"""Numerical verification of the solver suite: identities, bounds, oracles.

Everything here checks finished solves and makes none: the equivalence
matrix is handed a run's probe strain solution and the Uzawa solve of that
solution's mean stress. The dense reference solver is a deliberately
independent implementation (scalar-loop assembly, Lagrange multiplier
constraint, direct factorization) used to cross-validate the matrix-free path
on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .energies import complementary_energy, mean_stress_indicator, stress_potential
from .fem import (
    LinPerField,
    compatibility_residual,
    is_equilibrated,
    project_zero_mean,
    quad_inner,
    quad_norm,
    stencil_of,
    sym_gradient,
)


class SingularSystem(RuntimeError):
    """Dense reference assembly produced an unsolvable system."""


def hill_mandel_residual(cell: VoxelCell, v: LinPerField, s: np.ndarray) -> float:
    """Mismatch of the average-of-product and product-of-averages identity.

    Returns ``|avg <grad_s v, s> - <avg grad_s v, avg s>|`` normalized by the
    L2 norms of the two fields; small only when ``s`` is (weakly)
    equilibrated.
    """
    # each field scaled by an exact power of two, which the ratio cancels bit
    # for bit, so that no product or sum of squares can overflow
    ev = sym_gradient(cell, v)
    ev = np.ldexp(ev, -np.frexp(np.abs(ev).max())[1])
    s = np.ldexp(s, -np.frexp(np.abs(s).max())[1])
    avg_prod = quad_inner(cell, ev, s) / cell.volume
    prod_avg = float(np.dot(cell_average(cell, ev), cell_average(cell, s)))
    denom = quad_norm(cell, ev) * quad_norm(cell, s) / cell.volume
    return abs(avg_prod - prod_avg) / max(denom, 1e-300)


def duality_gap_strain(cell: VoxelCell, s: np.ndarray, e: np.ndarray,
                       macro_stress, tol: float) -> float:
    """Primal-dual gap between a feasible stress and a compatible strain.

    The dual value ``-stress_potential(e)`` is a certified lower bound only
    for strains in the compatible (gradient) class; infinite when the stress
    fails the admissibility test at ``tol``.
    """
    ind = mean_stress_indicator(cell, s, macro_stress, tol)
    if math.isinf(ind):
        return math.inf
    return complementary_energy(cell, s) + stress_potential(cell, e, macro_stress)


def duality_gap_displacement(cell: VoxelCell, s: np.ndarray, v: LinPerField,
                             macro_stress, tol: float) -> float:
    """Primal-dual gap between a feasible stress and any displacement."""
    return duality_gap_strain(cell, s, sym_gradient(cell, v), macro_stress, tol)


def voigt_reuss_margins(cell: VoxelCell, ch: np.ndarray):
    """Smallest eigenvalues of the arithmetic and harmonic bound gaps.

    Returns ``(upper, lower)`` where ``upper`` is the minimal eigenvalue of
    ``<C> - CH`` and ``lower`` that of ``CH - <D>^-1``; both must be
    nonnegative up to rounding for any admissible homogenized tensor.
    """
    upper = float(np.linalg.eigvalsh(cell.mean_stiffness - ch)[0])
    lower = float(np.linalg.eigvalsh(ch - mandel.invert(cell.mean_compliance))[0])
    return upper, lower


def random_equilibrated_stress(cell: VoxelCell, macro_stress, rng) -> np.ndarray:
    """Random member of the admissible set with the requested mean: a random
    quadrature field plus its ``Stencil.correction``, one exact projection,
    (weakly) divergence-free to rounding with no iterative solve."""
    st = stencil_of(cell)
    tau = rng.standard_normal(cell.dims + (8, 6))
    misfit = cell_average(cell, tau) - np.asarray(macro_stress, dtype=float)
    return tau + st.correction(misfit, st.ref_solve(st.divadj(tau)))


# ---------------------------------------------------------------------------
# dense reference solver (independent oracle)

_DENSE_DOF_LIMIT = 200


def _dense_shape_gradients(cell: VoxelCell):
    """Scalar-loop recomputation of the physical shape gradients."""
    jac = cell.lattice.matrix @ np.diag([1.0 / n for n in cell.dims])
    jinv_t = np.linalg.inv(jac).T
    pts = [0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)]
    corners = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    gauss = [(x, y, z) for x in pts for y in pts for z in pts]
    grads = []
    for xi in gauss:
        row = []
        for a in corners:
            g = []
            for d in range(3):
                val = 1.0
                for dd in range(3):
                    if dd == d:
                        val *= 1.0 if a[dd] else -1.0
                    else:
                        val *= xi[dd] if a[dd] else 1.0 - xi[dd]
                g.append(val)
            row.append(jinv_t @ np.array(g))
        grads.append(row)
    return corners, grads


def _dense_strain_row(g):
    """6x3 Mandel strain matrix of one shape gradient."""
    s = math.sqrt(2.0)
    return np.array([
        [g[0], 0.0, 0.0],
        [0.0, g[1], 0.0],
        [0.0, 0.0, g[2]],
        [0.0, g[2] / s, g[1] / s],
        [g[2] / s, 0.0, g[0] / s],
        [g[1] / s, g[0] / s, 0.0],
    ])


def dense_reference_strain(cell: VoxelCell, macro_strain) -> np.ndarray:
    """Strain field of the mean-strain cell problem via dense assembly.

    Assembles the full periodic stiffness matrix with explicit loops,
    enforces the zero-mean constraint with Lagrange multipliers and solves
    by direct factorization. Intended for cross-validation on cells with at
    most ``_DENSE_DOF_LIMIT`` displacement unknowns.
    """
    n1, n2, n3 = cell.dims
    nn = n1 * n2 * n3
    if 3 * nn > _DENSE_DOF_LIMIT:
        raise ValueError(f"dense reference limited to {_DENSE_DOF_LIMIT} dof")
    a6 = np.asarray(macro_strain, dtype=float)
    corners, grads = _dense_shape_gradients(cell)
    bmats = [[_dense_strain_row(grads[q][a]) for a in range(8)] for q in range(8)]
    w = cell.voxel_volume / 8.0

    kmat = np.zeros((3 * nn, 3 * nn))
    rhs = np.zeros(3 * nn)
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                cmat = cell.phases[cell.phase_of[i, j, k]]
                nodes = []
                for a in corners:
                    ia, ja, ka = (i + a[0]) % n1, (j + a[1]) % n2, (k + a[2]) % n3
                    nodes.append((ia * n2 + ja) * n3 + ka)
                for q in range(8):
                    for aa in range(8):
                        fa = w * (bmats[q][aa].T @ (cmat @ a6))
                        rhs[3 * nodes[aa]:3 * nodes[aa] + 3] -= fa
                        for bb in range(8):
                            ke = w * (bmats[q][aa].T @ cmat @ bmats[q][bb])
                            ra, rb = 3 * nodes[aa], 3 * nodes[bb]
                            kmat[ra:ra + 3, rb:rb + 3] += ke

    sys = np.zeros((3 * nn + 3, 3 * nn + 3))
    sys[:3 * nn, :3 * nn] = kmat
    for d in range(3):
        sys[3 * nn + d, d::3] = 1.0
        sys[d::3, 3 * nn + d] = 1.0
    full_rhs = np.concatenate([rhs, np.zeros(3)])
    try:
        sol = np.linalg.solve(sys, full_rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("non-finite solution from dense factorization")
    phi = sol[:3 * nn]

    e = np.zeros(cell.dims + (8, 6))
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                nodes = []
                for a in corners:
                    ia, ja, ka = (i + a[0]) % n1, (j + a[1]) % n2, (k + a[2]) % n3
                    nodes.append((ia * n2 + ja) * n3 + ka)
                for q in range(8):
                    val = a6.copy()
                    for aa in range(8):
                        val = val + bmats[q][aa] @ phi[3 * nodes[aa]:3 * nodes[aa] + 3]
                    e[i, j, k, q] = val
    return e


# ---------------------------------------------------------------------------
# formulation-equivalence test matrix


@dataclass
class ArrowCheck:
    """One cross-formulation agreement check with its residual."""

    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


#: probe mean strain of a run, whose solution the equivalence matrix checks
PROBE_STRAIN = np.array([0.3, -0.1, 0.2, 0.25, -0.15, 0.1])
#: equivalence-matrix residual tolerance, and the seed of its random stress
ARROW_TOL = 1e-7
ARROW_SEED = 1234


def equivalence_matrix(cell: VoxelCell, u_a: LinPerField, sig: np.ndarray,
                       w: LinPerField) -> list:
    """Run every cross-formulation agreement check on one cell, at the
    strain-driven solution ``u_a`` (a run's, at ``PROBE_STRAIN``) and the
    admissible stress ``sig`` and displacement ``w`` that
    ``solve_stress_uzawa`` returns for the mean stress of ``u_a``.

    ``u_a.macro`` is the strain datum and the mean stress of ``u_a`` the
    stress datum. Each entry corresponds to one equivalence between two
    formulations of the cell problem (displacement, fluctuation,
    stress-space, saddle point) or to one structural identity they rely on;
    residuals are relative to the norm of the total strain, or to another
    natural scale. No solve is made here.
    """
    tol = ARROW_TOL
    rng = np.random.default_rng(ARROW_SEED)
    st = stencil_of(cell)
    checks: list = []

    a = u_a.macro
    e_a = sym_gradient(cell, u_a)
    s = cell_average(cell, st.stress(e_a))
    e_scale = quad_norm(cell, e_a)

    # zero-mean normalization leaves the strain untouched
    e_proj = sym_gradient(cell, project_zero_mean(cell, u_a))
    checks.append(ArrowCheck(
        "displacement vs zero-mean displacement",
        quad_norm(cell, e_proj - e_a) / e_scale, tol))

    # the solution lives in the prescribed mean-strain class
    checks.append(ArrowCheck(
        "mean strain of solution equals datum",
        float(np.linalg.norm(cell_average(cell, e_a) - a) / np.linalg.norm(a)),
        tol))

    # fluctuation strain is a compatible zero-mean field; its rounding is
    # relative to the total strain, which may be all there is of it
    e_fluct = e_a - a
    checks.append(ArrowCheck(
        "fluctuation strain compatibility",
        compatibility_residual(cell, e_fluct) / e_scale, tol))

    # the Uzawa displacement is the stress-driven one
    e_w = sym_gradient(cell, w)
    checks.append(ArrowCheck(
        "stress-driven vs strain-driven strain",
        quad_norm(cell, e_w - e_a) / e_scale, tol))

    # constitutive stress of the solution is admissible, its mean the datum
    sig_w = st.stress(e_w)
    _, div_res, mean_res = is_equilibrated(cell, sig_w, s, tol)
    checks.append(ArrowCheck(
        "constitutive stress admissibility", max(div_res, mean_res), tol))

    # the two stress readouts of that solve agree
    checks.append(ArrowCheck(
        "uzawa stress vs constitutive stress",
        quad_norm(cell, sig - sig_w) / quad_norm(cell, sig_w), 1e-6))

    # orthogonality of compatible fluctuations and zero-mean admissible stress
    t = rng.standard_normal(6)
    sig_t = random_equilibrated_stress(cell, t, rng)
    mu = sig_t - cell_average(cell, sig_t)
    checks.append(ArrowCheck(
        "fluctuation orthogonal to zero-mean admissible stress",
        abs(quad_inner(cell, e_fluct, mu)) / (e_scale * quad_norm(cell, mu)), tol))

    return checks
