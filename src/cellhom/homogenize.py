"""Assembly of the homogenized stiffness and compliance from cell solves."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .fem import stencil_of
from .solvers import (SolveParams, _lockstep_runs, _stress_columns, solve_strain_stack,
                      solve_stress_uzawa)

#: orthonormal Mandel basis: three unit normal strains, three normalized shears
MANDEL_BASIS = np.eye(6)

#: a displacement or strain column, and each stress-driven solve of
#: ``dual_consistency``, stops once the Gauss-Radau bound on its energy error
#: is at most ``min(tol, ENERGY_TOL_CEIL)`` of twice its energy's magnitude
ENERGY_TOL_CEIL = 1e-13

#: a displacement or strain CH, and ``dual_consistency``'s compliance, is
#: rejected unless every column's certified energy error bound is at most
#: this times the tensor's norm
CERTIFICATE_LIMIT = 1e-11

#: the energy check of a displacement or strain CH may exceed its certified
#: bound by this times ``|CH|``, the rounding of the products it compares
ENERGY_CHECK_ROUNDING = 8 * float(np.finfo(float).eps)

#: the energy check limit of a stress-uzawa result, times ``|DH|``
ENERGY_CHECK_LIMIT = 1e-8

#: relative asymmetry above which a stress-uzawa compliance is rejected
ASYMMETRY_LIMIT = 1e-9

#: stress-uzawa columns are solved at least this tightly so the asymmetry
#: gate measures assembly bugs rather than leftover iteration error
COLUMN_TOL_CEIL = 1e-10

#: and this over the condition bound ``Lam/lam`` (``Stencil.phase_bounds``),
#: by which the residual understates the first-order error of the stress average
COLUMN_TOL_CONTRAST = 5e-9


class AsymmetricResult(RuntimeError):
    """Assembled homogenized tensor is not symmetric to tolerance, or, for
    the displacement and strain formulations and for ``dual_consistency``,
    not certified; ``check`` names the step that rejected it,
    ``"homogenize"`` or ``"dual_consistency"``."""

    def __init__(self, message: str, check: str = "homogenize"):
        super().__init__(message)
        self.check = check


@dataclass
class HomogResult:
    """Homogenized stiffness/compliance pair with per-column diagnostics.

    ``energy_check[i, j]`` is ``|G_ij - sym[i, j]|``, the cell energy
    product ``G_ij = x_j . Kx_i / V`` of columns ``i`` and ``j`` against the
    symmetrized mean-stress entry: ``x`` is the packed ``(mean strain,
    fluctuation)`` solution and ``Kx`` its ``Stencil.k_ext``, or for
    stress-uzawa the strain ``D sigma`` and the weighted stress ``w sigma``
    (a column keeps only sigma, and the check forms each ``D sigma`` once
    more). It quantifies the agreement of the averaged-stress and energy
    definitions of the homogenized tensor, and ``energy_check_limit`` is
    the ``(6, 6)`` bound it must keep: for the displacement and strain
    formulations the certified bound of the mean-stress error (see
    ``homogenize``) plus ``ENERGY_CHECK_ROUNDING |CH|``, for stress-uzawa
    ``ENERGY_CHECK_LIMIT |DH|``.
    """

    CH: np.ndarray
    DH: np.ndarray
    per_column_reports: list
    energy_check: np.ndarray
    energy_check_limit: np.ndarray


def _column_tol(cell: VoxelCell, params: SolveParams) -> SolveParams:
    lam, lam_max = stencil_of(cell).phase_bounds
    return replace(params, tol=min(params.tol, COLUMN_TOL_CEIL,
                                   COLUMN_TOL_CONTRAST * lam / lam_max))


def homogenize(cell: VoxelCell, params: SolveParams | None = None,
               formulation: str = "displacement", threads: int = 1) -> HomogResult:
    """Compute the homogenized tensors from six canonical cell solves.

    With the displacement (or strain) formulation, the stiffness is the
    energy (Gram) matrix of the six Mandel basis strain solutions, ``CH =
    sym(G)`` with ``G_ij = x_j . Kx_i / V``. The formulation is a minimum
    principle, so by Galerkin orthogonality ``G`` exceeds the exact tensor
    by ``d_i . K d_j / V`` for the solution errors ``d``: an upper bound,
    second order in the error. Each column stops once the Gauss-Radau bound
    of its CG error is at most ``min(tol, ENERGY_TOL_CEIL)`` of twice its
    energy (``solve_strain_stack``'s ``energy_tol``). With the Uzawa
    formulation the compliance is assembled first from the mean strains of
    six basis mean stresses, each solved to the residual ``_column_tol``,
    and then inverted.

    The six displacement (or strain) columns are one ``solve_strain_stack``:
    on grids where the preconditioner is the dense inverse (at most
    ``fem.DENSE_REF_MAX_DOF`` nodal unknowns) they are solved in lockstep,
    so each operator and preconditioner call, whose per-call overhead
    dominates on such grids, serves all six; on larger grids, and with the
    Uzawa formulation, the columns are solved one after another. Either way
    each column, and so the result, is bit for bit the same, in one thread.
    ``threads`` is accepted and ignored; it stays only because
    ``bench/workloads.py`` passes it, until the benchmark drops it.

    A displacement or strain result is certified without trusting the CG
    scalars: with ``r_i`` the nodal residual of column ``i``, minus the
    nodal part of its ``k_ext(x_i)``, ``eps_i = r_i . M^-1 r_i / (lam V)``
    (one ``ref_solve`` per column; ``lam K0 <= K``, so ``lam^-1 M^-1`` bounds
    ``K^-1``) bounds its energy error per volume, and so ``G_ii`` minus the
    exact entry; it is each column's ``error_bound``. The mean-stress entry
    ``raw_ji`` differs from ``G_ij`` by ``phi_j . r_i / V``, at most ``B_ji =
    sqrt(eps_i) sqrt(E_j) + sqrt(eps_i eps_j)`` with ``E_j = (<C> - G)_jj +
    eps_j``, which bounds the fluctuation energy per volume of the exact
    column ``j``; so ``energy_check`` is at most ``(B + B^T) / 2``, its
    limit.

    Raises ``AsymmetricResult`` when a displacement or strain column's
    ``eps_i`` exceeds ``CERTIFICATE_LIMIT |CH|``, or when a stress-uzawa
    compliance is asymmetric beyond ``ASYMMETRY_LIMIT`` (a solver or
    assembly bug), and propagates ``NotConverged`` from the column solves.
    """
    if formulation not in ("displacement", "strain", "stress-uzawa"):
        raise ValueError(f"unknown formulation {formulation!r}")
    params = params or SolveParams()
    if formulation == "stress-uzawa":
        return _homogenize_uzawa(cell, _column_tol(cell, params))

    st = stencil_of(cell)
    xs, reports = [], []  # the fields go once packed, before the certificate's solves
    for u, rep in solve_strain_stack(cell, MANDEL_BASIS, params,
                                     energy_tol=min(params.tol, ENERGY_TOL_CEIL)):
        xs.append(st.pack(u.macro, u.periodic))
        reports.append(rep)
    kxs = [st.k_ext(x) for x in xs]
    raw = np.column_stack([kx[:6] for kx in kxs]) / cell.volume
    g = np.array([[xj @ kxi for xj in xs] for kxi in kxs]) / cell.volume
    ch = 0.5 * (g + g.T)

    # the certificate: each residual from the readout's own k_ext, one
    # ref_solve per column (a stack of six would add its transforms' work
    # arrays to the peak memory past the dense cap)
    eps = np.array([r @ st.ref_solve(r.reshape(cell.dims + (3,))).ravel()
                    for r in (-kx[6:] for kx in kxs)]) / (st.phase_bounds[0] * cell.volume)
    # norms taken at a power-of-two scale: a cell of huge or tiny moduli
    # would overflow or underflow a plain sum of squares
    norm = mandel.frobenius(ch)
    worst = int(np.argmax(eps))
    if not eps[worst] <= CERTIFICATE_LIMIT * norm:  # a NaN fails too
        raise AsymmetricResult(
            f"column {worst + 1} not certified: energy error bound "
            f"{eps[worst] / norm:.3e} relative")
    for rep, e in zip(reports, eps.tolist()):
        rep.error_bound = e
    # the clamps take only rounding below 0: a product r.M^-1 r, or the
    # fluctuation energy of a column whose fluctuation vanishes
    root_eps = np.sqrt(np.maximum(eps, 0.0))
    root_e = np.sqrt(np.maximum(np.diag(st.cmean - g) + eps, 0.0))
    bound = np.outer(root_e + root_eps, root_eps)  # B[j, i]
    return HomogResult(CH=ch, DH=mandel.invert(ch), per_column_reports=reports,
                       energy_check=np.abs(g - 0.5 * (raw + raw.T)),
                       energy_check_limit=0.5 * (bound + bound.T) + ENERGY_CHECK_ROUNDING * norm)


def _homogenize_uzawa(cell: VoxelCell, params: SolveParams) -> HomogResult:
    """``homogenize``'s stress-uzawa formulation: the compliance from the
    mean strains of six basis mean stresses, gated by its asymmetry."""
    st = stencil_of(cell)
    cols, sigmas, reports = [], [], []
    for load in MANDEL_BASIS:
        sig, _, rep = solve_stress_uzawa(cell, load, params)
        cols.append(cell_average(cell, st.compliance_stress(sig)))
        sigmas.append(sig)
        reports.append(rep)
    raw = np.column_stack(cols)

    # norms taken at a power-of-two scale: the compliance columns of a cell
    # of tiny moduli would overflow a plain sum of squares
    norm = mandel.frobenius(raw)
    asym = mandel.frobenius(raw - raw.T)
    if asym > ASYMMETRY_LIMIT * norm:
        raise AsymmetricResult(
            f"assembled tensor asymmetric: {asym / norm:.3e} relative")
    sym = 0.5 * (raw + raw.T)
    ch = mandel.invert(sym)
    dh = mandel.invert(ch)
    # one strain D sigma_j at a time, against every weighted stress w sigma_i
    products = np.empty((6, 6))
    for j, sig_j in enumerate(sigmas):
        e_j = st.compliance_stress(sig_j).ravel()
        products[:, j] = [e_j @ (st.w * sig_i).ravel() for sig_i in sigmas]
    limit = ENERGY_CHECK_LIMIT * mandel.frobenius(dh)
    return HomogResult(CH=ch, DH=dh, per_column_reports=reports,
                       energy_check=np.abs(products / cell.volume - sym),
                       energy_check_limit=np.full((6, 6), limit))


def dual_consistency(cell: VoxelCell, result: HomogResult,
                     params: SolveParams | None = None) -> float:
    """Worst relative mismatch, over the six Mandel basis stresses, between
    the compliance columns read from stress-driven solves and those of
    ``result.DH``: ``max_i |DH_s e_i - DH e_i| / |DH e_i|``.

    The stress formulation is a minimum principle too, of the complementary
    energy, so ``DH_s`` is read from it: with ``x_i`` the packed returned
    solution of basis stress ``e_i``, ``E_ij`` entry ``i`` of its mean
    strain and ``G_ij = x_j . Kx_i / V``, ``DH_s = E + E^T - sym(G)``, which
    is the exact compliance minus ``d_i . K d_j / V`` for the solution
    errors ``d``: a lower bound, second order in the error, where the mean
    strains are first order. Each solve stops once the Gauss-Radau bound of
    its CG error is at most ``min(tol, ENERGY_TOL_CEIL)`` of twice its
    energy's magnitude (``solvers._stress_columns``' ``energy_tol``); the
    six are one stack, solved in lockstep runs of at most
    ``fem.LOCKSTEP_MAX_DOF`` nodal unknowns, each column bit for bit its
    one-column solve, and the stack's energy readout gives each ``Kx_i``.

    ``DH_s`` is certified as ``homogenize`` certifies ``CH``, without
    trusting the CG scalars: with ``r_i = b_i - Kx_i``, ``eps_i = r_i .
    precond_ext(r_i) / (lam V)`` bounds the energy error per volume of
    column ``i`` (one ``precond_ext`` per lockstep run), and
    ``AsymmetricResult`` is raised unless every ``eps_i`` is at most
    ``CERTIFICATE_LIMIT |DH_s|``. ``NotConverged`` propagates from the
    solves."""
    params = params or SolveParams()
    st = stencil_of(cell)
    xs, kxs = [], []  # all the solves keep: each returned field is a view of its x
    for _, _, x, kx in _stress_columns(cell, MANDEL_BASIS, params,
                                       min(params.tol, ENERGY_TOL_CEIL)):
        xs.append(x)
        kxs.append(kx)
    means = np.column_stack([x[:6] for x in xs])
    g = np.array([[xj @ kxi for xj in xs] for kxi in kxs]) / cell.volume
    dh = means + means.T - 0.5 * (g + g.T)

    # each K x_i becomes its residual b_i - K x_i in place, and is stacked
    # only for its lockstep run's precond_ext
    for r, load in zip(kxs, MANDEL_BASIS):
        np.negative(r, out=r)
        r[:6] += st.volume * load
    eps = []
    for run in _lockstep_runs(cell, np.arange(len(kxs))):
        residuals = np.array([kxs[i] for i in run])
        eps += [r @ z for r, z in zip(residuals, st.precond_ext(residuals))]
    eps = np.array(eps) / (st.phase_bounds[0] * cell.volume)
    # the norm at a power-of-two scale, as homogenize takes it
    norm = mandel.frobenius(dh)
    worst = int(np.argmax(eps))
    if not eps[worst] <= CERTIFICATE_LIMIT * norm:  # a NaN fails too
        raise AsymmetricResult(
            f"dual consistency column {worst + 1} not certified: energy error bound "
            f"{eps[worst] / norm:.3e} relative", check="dual_consistency")
    mismatches = []
    for load in MANDEL_BASIS:
        a_tensor = result.DH @ load
        mismatches.append(float(np.linalg.norm(dh @ load - a_tensor) / np.linalg.norm(a_tensor)))
    return max(mismatches)
