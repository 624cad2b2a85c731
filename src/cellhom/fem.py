"""Discrete periodic spaces on the voxel grid.

Discretization: trilinear (Q1) hexahedral elements on the voxel partition,
one periodic node per voxel corner equivalence class, 2x2x2 Gauss quadrature
per voxel. Linear displacement fields are reproduced exactly and the
element Jacobian is one constant matrix for the whole grid, so every
operator below is a short stencil.

Field layouts (all plain float arrays):

* nodal displacement / functional:  ``(n1, n2, n3, 3)``
* per-quadrature-point Mandel field: ``(n1, n2, n3, 8, 6)``

``div_adjoint`` is defined as the exact transpose of the quadrature pairing,
so the discrete Green identity

    integral <s, sym_grad v>  ==  <div_adjoint(s), v>_nodes

holds to rounding by construction; the continuous minus-divergence sign is
absorbed into this dual pairing.

Every operator application (strain B, stiffness C, compliance D, adjoint
B^T and the DFT block inverses of constant-material operators) is a method
of one ``Stencil`` per cell, built on first use by ``stencil_of(cell)`` and
cached on the cell; the module functions below go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import itertools
import weakref

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .mandel import SQRT2, mandel_to_sym

#: corner offsets of a voxel, fixed ordering shared by gather and scatter
CORNERS = tuple(itertools.product((0, 1), repeat=3))

_GAUSS_1D = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
#: Gauss points on the reference unit cube, fixed ordering
GAUSS_POINTS = tuple(itertools.product(_GAUSS_1D, repeat=3))


@dataclass
class LinPerField:
    """Displacement of the form ``u(y) = A y + phi(y)`` with periodic phi.

    ``macro`` is the symmetric matrix A as a Mandel 6-vector; ``periodic``
    holds the nodal coefficients of phi. The cell average of the symmetric
    gradient of such a field equals ``macro`` (the periodic part contributes
    zero mean strain).
    """

    macro: np.ndarray
    periodic: np.ndarray

    def __post_init__(self):
        self.macro = np.asarray(self.macro, dtype=float)
        self.periodic = np.asarray(self.periodic, dtype=float)

    @classmethod
    def zeros(cls, cell: VoxelCell, macro=None) -> "LinPerField":
        m = np.zeros(6) if macro is None else np.asarray(macro, dtype=float)
        return cls(m, np.zeros(cell.dims + (3,)))


def shape_gradients(cell: VoxelCell) -> np.ndarray:
    """Physical shape-function gradients, shape ``(8 gauss, 8 corners, 3)``."""
    jac = cell.lattice.matrix @ np.diag([1.0 / n for n in cell.dims])
    jinv_t = np.linalg.inv(jac).T
    grad = np.zeros((8, 8, 3))
    for qi, xi in enumerate(GAUSS_POINTS):
        for ai, a in enumerate(CORNERS):
            g = np.zeros(3)
            for d in range(3):
                val = 2.0 * a[d] - 1.0
                for dd in range(3):
                    if dd != d:
                        val *= xi[dd] if a[dd] else 1.0 - xi[dd]
                g[d] = val
            grad[qi, ai] = jinv_t @ g
    return grad


def strain_tables(cell: VoxelCell) -> np.ndarray:
    """Mandel strain-displacement matrices, shape ``(8, 8, 6, 3)``.

    ``B[q, a] @ u_a`` is the Mandel strain contribution of corner ``a`` at
    Gauss point ``q``.
    """
    g = shape_gradients(cell)
    b = np.zeros((8, 8, 6, 3))
    b[:, :, 0, 0] = g[:, :, 0]
    b[:, :, 1, 1] = g[:, :, 1]
    b[:, :, 2, 2] = g[:, :, 2]
    b[:, :, 3, 1] = g[:, :, 2] / SQRT2
    b[:, :, 3, 2] = g[:, :, 1] / SQRT2
    b[:, :, 4, 0] = g[:, :, 2] / SQRT2
    b[:, :, 4, 2] = g[:, :, 0] / SQRT2
    b[:, :, 5, 0] = g[:, :, 1] / SQRT2
    b[:, :, 5, 1] = g[:, :, 0] / SQRT2
    return b


def gather_corners(values: np.ndarray) -> np.ndarray:
    """Collect the 8 corner-node values of every voxel, shape ``dims+(8,3)``."""
    return np.stack(
        [np.roll(values, shift=(-a[0], -a[1], -a[2]), axis=(0, 1, 2)) for a in CORNERS],
        axis=3,
    )


def _const_stress(c: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.einsum("cd,ijkqd->ijkqc", c, e)


def _dft_block_solve(pinv: np.ndarray, r: np.ndarray) -> np.ndarray:
    rhat = np.fft.fftn(r, axes=(0, 1, 2))
    zhat = np.einsum("ijkab,ijkb->ijka", pinv, rhat)
    return np.real(np.fft.ifftn(zhat, axes=(0, 1, 2)))


class Stencil:
    """Operator core of one cell: strain tables, material fields, DFT inverses.

    Obtain it through ``stencil_of(cell)``, which builds one per cell.
    """

    def __init__(self, cell: VoxelCell):
        # weak, because the cell caches its core: a strong reference would be
        # a cycle that keeps both alive until the cyclic garbage collector runs
        self._cell = weakref.ref(cell)
        self.tables = strain_tables(cell)
        self.w = cell.voxel_volume / 8.0
        self.cvox = cell.stiffness_field
        self.dvox = cell.compliance_field
        self.cmean = cell.mean_stiffness
        self.cmean_inv = mandel.invert(self.cmean)
        self.volume = cell.volume
        self.dims = cell.dims
        self._ref_pinv = None

    @property
    def cell(self) -> VoxelCell:
        return self._cell()

    # field operations ------------------------------------------------------

    def strain_periodic(self, phi: np.ndarray) -> np.ndarray:
        return np.einsum("qacd,ijkad->ijkqc", self.tables, gather_corners(phi))

    def strain(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        e = self.strain_periodic(phi)
        e += macro
        return e

    def stress(self, e: np.ndarray) -> np.ndarray:
        return np.einsum("ijkcd,ijkqd->ijkqc", self.cvox, e)

    def stress_ref(self, e: np.ndarray) -> np.ndarray:
        return _const_stress(self.cmean, e)

    def compliance_stress(self, s: np.ndarray) -> np.ndarray:
        return np.einsum("ijkcd,ijkqd->ijkqc", self.dvox, s)

    def divadj(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dims + (3,))
        for ai, a in enumerate(CORNERS):
            contrib = self.w * np.einsum("qcd,ijkqc->ijkd", self.tables[:, ai], s)
            out += np.roll(contrib, shift=a, axis=(0, 1, 2))
        return out

    def project(self, phi: np.ndarray) -> np.ndarray:
        return phi - node_mean(phi)

    @cached_property
    def dual_scale(self) -> float:
        """Operator-norm bound of ``divadj``: sqrt(8 * lambda_max) of one
        element Gram matrix (a node touches at most 8 elements)."""
        bm = self.tables.transpose(0, 2, 1, 3).reshape(8, 6, 24)
        gram = self.w * np.einsum("qci,qcj->ij", bm, bm)
        lam = np.linalg.eigvalsh(gram)[-1]
        return float(np.sqrt(8.0 * max(lam, 0.0)))

    # periodic-fluctuation operator ------------------------------------------

    def k_phi(self, phi: np.ndarray) -> np.ndarray:
        out = self.divadj(self.stress(self.strain_periodic(phi)))
        return self.project(out)

    def k_ref_phi(self, phi: np.ndarray) -> np.ndarray:
        out = self.divadj(self.stress_ref(self.strain_periodic(phi)))
        return self.project(out)

    # extended operator on (mean strain, fluctuation) -------------------------

    def unpack(self, x: np.ndarray):
        return x[:6], x[6:].reshape(self.dims + (3,))

    def pack(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(macro, dtype=float).ravel(), phi.ravel()])

    def strain_ext(self, x: np.ndarray) -> np.ndarray:
        return self.strain(*self.unpack(x))

    def k_ext(self, x: np.ndarray) -> np.ndarray:
        s = self.stress(self.strain_ext(x))
        return self.pack(self.volume * cell_average(self.cell, s),
                         self.project(self.divadj(s)))

    def m_ext(self, x: np.ndarray) -> np.ndarray:
        """Apply the block preconditioner operator itself (not its inverse)."""
        macro, phi = self.unpack(x)
        return self.pack(self.volume * (self.cmean @ macro), self.k_ref_phi(phi))

    # constant-material inverses -----------------------------------------------

    def circulant_pinv(self, c: np.ndarray) -> np.ndarray:
        """DFT-diagonalized pseudo-inverse blocks of the periodic operator of
        the constant material ``c``.

        That operator is block-circulant on the periodic grid, so one
        impulse response gives its 3x3 Hermitian block per frequency; the
        zero frequency, which carries the constant nullspace, is annihilated.
        """
        kernel = np.zeros(self.dims + (3, 3))
        for d in range(3):
            imp = np.zeros(self.dims + (3,))
            imp[0, 0, 0, d] = 1.0
            kernel[..., :, d] = self.divadj(_const_stress(c, self.strain_periodic(imp)))
        khat = np.fft.fftn(kernel, axes=(0, 1, 2))
        khat = 0.5 * (khat + np.conj(khat.transpose(0, 1, 2, 4, 3)))
        pinv = np.linalg.pinv(khat, rcond=1e-12, hermitian=True)
        pinv[0, 0, 0] = 0.0
        return pinv

    @property
    def ref_pinv(self) -> np.ndarray:
        """Inverse blocks of the mean-stiffness (reference) operator."""
        if self._ref_pinv is None:
            self._ref_pinv = self.circulant_pinv(self.cmean)
        return self._ref_pinv

    @cached_property
    def unit_pinv(self) -> np.ndarray:
        """Inverse blocks of the unit-material operator (the normal equations
        of the least-squares fit by symmetric gradients)."""
        return self.circulant_pinv(np.eye(6))

    def ref_solve(self, r: np.ndarray) -> np.ndarray:
        return _dft_block_solve(self.ref_pinv, r)

    def precond_ext(self, x: np.ndarray) -> np.ndarray:
        macro, phi = self.unpack(x)
        return self.pack(self.cmean_inv @ macro / self.volume, self.ref_solve(phi))


def stencil_of(cell: VoxelCell) -> Stencil:
    """The operator core of ``cell``, built on first use and cached on it.

    Cells are immutable, so the core never goes stale. Code that shares a
    cell between threads fetches the core, and the inverse it will use,
    before starting them.
    """
    st = vars(cell).get("_stencil")
    if st is None:
        st = vars(cell)["_stencil"] = Stencil(cell)
    return st


def sym_gradient(cell: VoxelCell, u: LinPerField) -> np.ndarray:
    """Symmetric gradient of ``u`` at every Gauss point, Mandel components."""
    return stencil_of(cell).strain(u.macro, u.periodic)


def div_adjoint(cell: VoxelCell, s: np.ndarray) -> np.ndarray:
    """Nodal functional dual to the quadrature pairing with ``sym_gradient``.

    Returns the array ``F`` with ``<F, v>_nodes = integral <s, sym_grad v>``
    for every periodic nodal field ``v``.
    """
    return stencil_of(cell).divadj(s)


def quad_inner(cell: VoxelCell, f: np.ndarray, g: np.ndarray) -> float:
    """L2 inner product of two quadrature fields."""
    w = cell.voxel_volume / 8.0
    return float(w * np.sum(f * g))


def quad_norm(cell: VoxelCell, f: np.ndarray) -> float:
    """L2 norm of a quadrature field."""
    return float(np.sqrt(max(quad_inner(cell, f, f), 0.0)))


def node_mean(values: np.ndarray) -> np.ndarray:
    """Mean nodal value per component."""
    return values.mean(axis=(0, 1, 2))


def node_centroid(cell: VoxelCell) -> np.ndarray:
    """Mean position of the periodic nodes (nodes sit at G @ (i/n))."""
    frac = np.array([(n - 1) / (2.0 * n) for n in cell.dims])
    return cell.lattice.matrix @ frac


def project_zero_mean(cell: VoxelCell, u: LinPerField) -> LinPerField:
    """Shift ``u`` by a constant vector so its nodal cell average vanishes.

    The symmetric gradient is unchanged (constants drop out); idempotent.
    """
    shift = node_mean(u.periodic) + mandel_to_sym(u.macro) @ node_centroid(cell)
    return LinPerField(u.macro.copy(), u.periodic - shift)


def dual_norm_scale(cell: VoxelCell) -> float:
    """Operator-norm bound converting L2 field size to nodal-functional size.

    ``|div_adjoint(s)|_2 <= dual_norm_scale * |s|_L2`` for every field s.
    """
    return stencil_of(cell).dual_scale


def is_equilibrated(cell: VoxelCell, s: np.ndarray, mean: np.ndarray, tol: float):
    """Weak test for membership in the admissible stress set.

    A quadrature stress field is accepted when its weak divergence vanishes
    against every periodic test displacement and its cell average equals
    ``mean``, both up to ``tol``.

    Returns
    -------
    (ok, div_residual, mean_residual) : tuple[bool, float, float]
        Dimensionless residual ratios; the divergence one is measured in the
        nodal dual norm scaled by ``dual_norm_scale * |s|_L2``, the mean one
        relative to ``|mean|`` (absolute when ``mean`` is zero).
    """
    mean = np.asarray(mean, dtype=float)
    st = stencil_of(cell)
    fnorm = float(np.linalg.norm(st.divadj(s)))
    scale = st.dual_scale * quad_norm(cell, s)
    div_res = fnorm / scale if scale > 0.0 else 0.0
    dmean = np.linalg.norm(cell_average(cell, s) - mean)
    mnorm = np.linalg.norm(mean)
    mean_res = float(dmean / mnorm) if mnorm > 0.0 else float(dmean)
    return (div_res <= tol and mean_res <= tol), div_res, mean_res


def compatibility_residual(cell: VoxelCell, e: np.ndarray) -> float:
    """L2 distance from ``e`` to the range of ``sym_gradient``.

    The best macro part is the cell average of ``e`` (periodic gradients have
    zero mean). The periodic part solves the normal equations of the
    least-squares fit, whose operator is the unit-material stiffness; it is
    block-circulant, so one DFT block solve gives it exactly. Zero iff ``e``
    is a discrete compatible strain.
    """
    st = stencil_of(cell)
    phi = _dft_block_solve(st.unit_pinv, st.divadj(e))
    return quad_norm(cell, e - st.strain(cell_average(cell, e), phi))
