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
    ``"homogenize"`` or ``"dual_consistency"``, and ``reports`` holds the
    reports of its six columns, each with its ``error_bound`` where the
    certificate rejected it."""

    def __init__(self, message: str, check: str = "homogenize", reports: list = ()):
        super().__init__(message)
        self.check = check
        self.reports = list(reports)


@dataclass
class HomogResult:
    """Homogenized stiffness/compliance pair with per-column diagnostics.

    ``energy_check[i, j]`` is ``|G_ij - sym[i, j]|``, the cell energy
    product ``G_ij = x_j . Kx_i / V`` of columns ``i`` and ``j`` against the
    symmetrized mean-stress entry: ``x`` is the packed ``(mean strain,
    fluctuation)`` solution and ``Kx`` its ``Stencil.k_ext``, or for
    stress-uzawa the strain ``D sigma`` and the weighted stress ``w sigma``
    (a column keeps only sigma; each ``D sigma`` is formed once, for its
    mean too). It quantifies the agreement of the averaged-stress and energy
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


def _certified_gram(cell: VoxelCell, xs, kxs, reports, stresses, readout, check: str):
    """``(readout(G), G, eps)`` of six packed column solutions ``xs`` of a
    minimum principle and their ``k_ext`` ``kxs``: the energy (Gram) matrix
    ``G_ij = x_j . Kx_i / V``, and each column's ``error_bound`` ``eps_i =
    r_i . M^-1 r_i / (lam V)``, which bounds its energy error per volume
    without trusting the CG scalars (``lam K0 <= K``, so ``lam^-1 M^-1``
    bounds ``K^-1``). For mean strains (``stresses`` None) ``r_i`` is the
    nodal part of ``-Kx_i`` and ``M^-1`` is ``ref_solve``; for the mean
    stresses ``stresses`` it is ``(V s_i, 0) - Kx_i`` and ``precond_ext``.
    The residuals of each ``solvers._lockstep_runs`` run are formed and
    preconditioned as one stack, each field with the bits of its own call.
    Raises ``AsymmetricResult``, naming ``check`` and carrying ``reports``,
    unless every ``eps_i`` is at most ``CERTIFICATE_LIMIT |readout(G)|``."""
    st = stencil_of(cell)
    g = np.array([[xj @ kxi for xj in xs] for kxi in kxs]) / cell.volume
    tensor = readout(g)
    part, precond = (slice(6, None), st.ref_solve) if stresses is None else \
        (slice(None), st.precond_ext)
    eps = []
    for run in _lockstep_runs(cell, np.arange(len(kxs))):
        r = np.array([kxs[i][part] for i in run])
        np.negative(r, out=r)
        if stresses is not None:
            r[:, :6] += st.volume * stresses[run]
        eps += [ri @ zi for ri, zi in zip(r, precond(r))]
    eps = np.array(eps) / (st.phase_bounds[0] * cell.volume)
    for rep, e in zip(reports, eps.tolist()):
        rep.error_bound = e
    # the norm at a power-of-two scale: a cell of huge or tiny moduli would
    # overflow or underflow a plain sum of squares
    norm = mandel.frobenius(tensor)
    worst = int(np.argmax(eps))
    if not eps[worst] <= CERTIFICATE_LIMIT * norm:  # a NaN fails too
        what = "dual consistency column" if check == "dual_consistency" else "column"
        raise AsymmetricResult(f"{what} {worst + 1} not certified: energy error bound "
                               f"{eps[worst] / norm:.3e} relative", check, reports)
    return tensor, g, eps


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
    six basis mean stresses, each solved to the residual ``min(tol,
    COLUMN_TOL_CEIL, COLUMN_TOL_CONTRAST lam / Lam)`` (``Lam / lam`` the
    condition bound of ``Stencil.phase_bounds``), and then inverted.

    The six displacement (or strain) columns are one ``solve_strain_stack``:
    on grids where the preconditioner is the dense inverse (at most
    ``fem.DENSE_REF_MAX_DOF`` nodal unknowns) they are solved in lockstep,
    so each operator and preconditioner call, whose per-call overhead
    dominates on such grids, serves all six; on larger grids, and with the
    Uzawa formulation, the columns are solved one after another. Either way
    each column, and so the result, is bit for bit the same, in one thread.
    ``threads`` is accepted and ignored; it stays only because
    ``bench/workloads.py`` passes it, until the benchmark drops it.

    A displacement or strain result is certified by ``_certified_gram``, as
    ``dual_consistency``'s compliance is: ``eps_i``, from the nodal residual
    ``r_i`` of column ``i``, bounds its energy error per volume, and so
    ``G_ii`` minus the exact entry. The mean-stress entry ``raw_ji`` differs
    from ``G_ij`` by ``phi_j . r_i / V``, at most ``B_ji = sqrt(eps_i)
    sqrt(E_j) + sqrt(eps_i eps_j)`` with ``E_j = (<C> - G)_jj + eps_j``,
    which bounds the fluctuation energy per volume of the exact column
    ``j``; so ``energy_check`` is at most ``(B + B^T) / 2``, its limit.

    Raises ``AsymmetricResult``, with the six column reports, when a
    displacement or strain column's ``eps_i`` exceeds ``CERTIFICATE_LIMIT
    |CH|``, or when a stress-uzawa compliance is asymmetric beyond
    ``ASYMMETRY_LIMIT`` (a solver or assembly bug), and propagates
    ``NotConverged`` from the column solves.
    """
    if formulation not in ("displacement", "strain", "stress-uzawa"):
        raise ValueError(f"unknown formulation {formulation!r}")
    params = params or SolveParams()
    if formulation == "stress-uzawa":
        return _homogenize_uzawa(cell, params)

    st = stencil_of(cell)
    xs, reports = [], []  # the fields go once packed, before the certificate's solves
    for u, rep in solve_strain_stack(cell, MANDEL_BASIS, params,
                                     energy_tol=min(params.tol, ENERGY_TOL_CEIL)):
        xs.append(st.pack(u.macro, u.periodic))
        reports.append(rep)
    kxs = [st.k_ext(x) for x in xs]
    ch, g, eps = _certified_gram(cell, xs, kxs, reports, None, lambda g: 0.5 * (g + g.T),
                                 "homogenize")
    raw = np.column_stack([kx[:6] for kx in kxs]) / cell.volume
    # the clamps take only rounding below 0: a product r.M^-1 r, or the
    # fluctuation energy of a column whose fluctuation vanishes
    root_eps = np.sqrt(np.maximum(eps, 0.0))
    root_e = np.sqrt(np.maximum(np.diag(st.cmean - g) + eps, 0.0))
    bound = np.outer(root_e + root_eps, root_eps)  # B[j, i]
    return HomogResult(CH=ch, DH=mandel.invert(ch), per_column_reports=reports,
                       energy_check=np.abs(g - 0.5 * (raw + raw.T)),
                       energy_check_limit=0.5 * (bound + bound.T)
                       + ENERGY_CHECK_ROUNDING * mandel.frobenius(ch))


def _homogenize_uzawa(cell: VoxelCell, params: SolveParams) -> HomogResult:
    """``homogenize``'s stress-uzawa formulation: the compliance from the
    mean strains of six basis mean stresses, gated by its asymmetry."""
    st = stencil_of(cell)
    lam, lam_max = st.phase_bounds
    params = replace(params, tol=min(params.tol, COLUMN_TOL_CEIL,
                                     COLUMN_TOL_CONTRAST * lam / lam_max))
    sigmas, reports = [], []
    for load in MANDEL_BASIS:
        sig, _, rep = solve_stress_uzawa(cell, load, params)
        sigmas.append(sig)
        reports.append(rep)
    # one strain D sigma_j at a time: its mean, and its products with every
    # weighted stress w sigma_i
    raw, products = np.empty((6, 6)), np.empty((6, 6))
    for j, sig_j in enumerate(sigmas):
        e_j = st.compliance_stress(sig_j)
        raw[:, j] = cell_average(cell, e_j)
        products[:, j] = [e_j.ravel() @ (st.w * sig_i).ravel() for sig_i in sigmas]

    # norms taken at a power-of-two scale: the compliance columns of a cell
    # of tiny moduli would overflow a plain sum of squares
    norm = mandel.frobenius(raw)
    asym = mandel.frobenius(raw - raw.T)
    if asym > ASYMMETRY_LIMIT * norm:
        raise AsymmetricResult(
            f"assembled tensor asymmetric: {asym / norm:.3e} relative", reports=reports)
    sym = 0.5 * (raw + raw.T)
    ch = mandel.invert(sym)
    dh = mandel.invert(ch)
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

    ``DH_s`` is certified as ``homogenize`` certifies ``CH``, by
    ``_certified_gram``: ``AsymmetricResult`` is raised unless the bound
    ``eps_i`` on the energy error per volume of every column, from its
    residual ``r_i = b_i - Kx_i``, is at most ``CERTIFICATE_LIMIT |DH_s|``.
    ``NotConverged`` propagates from the solves."""
    params = params or SolveParams()
    # all the solves keep: each returned field is a view of its x
    _, reports, xs, kxs = zip(*_stress_columns(cell, MANDEL_BASIS, params,
                                               min(params.tol, ENERGY_TOL_CEIL)))
    means = np.column_stack([x[:6] for x in xs])
    dh, _, _ = _certified_gram(cell, xs, kxs, reports, MANDEL_BASIS,
                               lambda g: means + means.T - 0.5 * (g + g.T), "dual_consistency")
    mismatches = []
    for load in MANDEL_BASIS:
        a_tensor = result.DH @ load
        mismatches.append(float(np.linalg.norm(dh @ load - a_tensor) / np.linalg.norm(a_tensor)))
    return max(mismatches)
