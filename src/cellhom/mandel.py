"""Symmetric second- and fourth-order tensor algebra in orthonormal Mandel form.

Conventions used throughout the package (the bit-exact interchange format):

* a symmetric 3x3 matrix is stored as a length-6 vector ordered
  ``(11, 22, 33, 23, 13, 12)`` with the three shear slots scaled by sqrt(2),
  so the plain dot product of two Mandel vectors equals the full double
  contraction ``sum_ij A_ij B_ij``;
* a fourth-order tensor with minor and major symmetries is stored as a
  symmetric 6x6 matrix acting on Mandel vectors, so composition, inversion
  and contraction reduce to ordinary matrix algebra.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)

#: index pairs (i, j) of the Mandel slots, 0-based
MANDEL_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


class DomainError(ValueError):
    """Raised when tensor-construction preconditions are violated."""


class SingularTensor(ValueError):
    """Raised when a 6x6 Mandel matrix is too ill-conditioned to invert."""


#: reciprocal-condition threshold below which inversion is refused
RCOND_LIMIT = 1e-14


def sym_to_mandel(m: np.ndarray) -> np.ndarray:
    """Encode a symmetric 3x3 matrix as a Mandel 6-vector."""
    m = np.asarray(m, dtype=float)
    return np.array(
        [m[0, 0], m[1, 1], m[2, 2],
         SQRT2 * m[1, 2], SQRT2 * m[0, 2], SQRT2 * m[0, 1]]
    )


def mandel_to_sym(v: np.ndarray) -> np.ndarray:
    """Decode a Mandel 6-vector into the dense symmetric 3x3 matrix."""
    v = np.asarray(v, dtype=float)
    s = v[3:] / SQRT2
    return np.array(
        [[v[0], s[2], s[1]],
         [s[2], v[1], s[0]],
         [s[1], s[0], v[2]]]
    )


def iso_tensor(lam: float, mu: float) -> np.ndarray:
    """Isotropic stiffness ``C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)``.

    Parameters
    ----------
    lam, mu : float
        Lame parameters. Positivity of ``mu`` and of the bulk combination
        ``3 lam + 2 mu`` is required so the result is SPD.

    Returns
    -------
    numpy.ndarray
        Symmetric positive definite 6x6 Mandel matrix.
    """
    if not mu > 0.0:
        raise DomainError(f"shear modulus must be positive, got mu={mu}")
    if not 3.0 * lam + 2.0 * mu > 0.0:
        raise DomainError(f"bulk combination 3*lam + 2*mu must be positive, got {3.0 * lam + 2.0 * mu}")
    c = np.zeros((6, 6))
    c[:3, :3] = lam
    c[np.arange(3), np.arange(3)] += 2.0 * mu
    c[np.arange(3, 6), np.arange(3, 6)] = 2.0 * mu
    return c


def eigen_range(t: np.ndarray) -> tuple:
    """Smallest and largest eigenvalue of the symmetrized 6x6 matrix."""
    t = np.asarray(t, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (t + t.T))
    return float(w[0]), float(w[-1])


def invert(t: np.ndarray) -> np.ndarray:
    """Invert an SPD Mandel matrix (stiffness <-> compliance).

    Raises
    ------
    SingularTensor
        If the reciprocal condition number falls below ``RCOND_LIMIT`` or the
        matrix is not positive definite.
    """
    t = np.asarray(t, dtype=float)
    lo, hi = eigen_range(t)
    if lo <= 0.0 or lo / hi < RCOND_LIMIT:
        raise SingularTensor(
            f"cannot invert tensor: eigenvalue range [{lo:.3e}, {hi:.3e}]"
        )
    inv = np.linalg.inv(t)
    return 0.5 * (inv + inv.T)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of ``m`` that neither overflows nor underflows in its
    sum of squares.

    ``m`` is scaled by 2**-e, e the binary exponent of ``max|m|``: an exact
    power of two, so an ordinary ``m`` keeps ``np.linalg.norm``'s value bit
    for bit, and a norm past the float range is inf.
    """
    _, e = np.frexp(np.abs(m).max())
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(m, -e)), e))
