"""Matrix-free solvers for the periodic cell problem.

Three routes are provided:

* ``solve_strain_driven``: preconditioned CG on the periodic fluctuation for
  a prescribed mean strain;
* ``solve_stress_driven``: preconditioned CG on the (mean strain, fluctuation)
  pair for a prescribed mean stress, with an exact mean-stress correction at
  return;
* ``solve_stress_uzawa``: alternating closed-form stress minimization and
  preconditioned displacement ascent on the stress-displacement Lagrangian,
  stopped by the duality gap, the complementary energy of the correction
  stress, which each iteration evaluates as a per-phase sum of squares over
  the element corner values (``Stencil.correction_gap``) without forming
  that stress; it is formed once, for the returned stress, which comes with
  the displacement that ``solve_stress_driven`` returns.

Every route runs one loop, ``_pcg``: textbook preconditioned CG from a
zero start with the Fletcher-Reeves beta, whose iterates equal those of
Polak-Ribiere CG in exact arithmetic because the preconditioner is fixed
and SPD. The energy of every iterate is read off the CG scalars, so the
loop keeps no running ``K x``; the Uzawa route stops it on the duality gap
through a hook, and its fixed step makes it preconditioned Richardson, each
step the fixed length along the preconditioned residual. The loop iterates
a stack of right-hand sides in lockstep, as independent CGs that share
each operator and preconditioner call: ``solve_strain_stack`` stacks
several mean strains where the preconditioner is the dense inverse, and
the private ``_stress_columns`` several mean stresses in runs of at most
``fem.LOCKSTEP_MAX_DOF`` unknowns, each solved with the bits of its own
solve; ``solve_strain_driven`` and ``solve_stress_driven`` are stacks of
one, and the Uzawa route passes ``_pcg`` a stack of one. The strain- and
stress-driven solves stop on the relative residual ``tol``, or, given
``energy_tol`` (as ``homogenize`` gives it to the strain stack, and
``dual_consistency`` to ``_stress_columns``), on the Gauss-Radau bound of
each column's CG error in the energy norm, read off the CG scalars with the
lower phase bound of ``Stencil.phase_bounds``.

The preconditioner is the constant-coefficient operator built from the
volume-averaged stiffness; being block-circulant on the periodic grid it is
inverted exactly by DFT diagonalization: 3x3 Hermitian blocks per frequency
on the half spectrum of the real FFT, inverted once by a batched 3x3
inverse, the zero frequency annihilated, which also enforces the zero-mean
constraint. On grids of at most ``fem.DENSE_REF_MAX_DOF`` unknowns the same
inverse is applied as one dense matrix, built once from those blocks,
because there a transform pair costs more than the dense product. Up to
``fem.DFT_MATRIX_MAX_SIDE`` voxels a side the transforms are products with
per-axis DFT matrices, one BLAS call per stage (the real half spectrum of
the first axis, then the second and the third axis, and back in reverse),
cheaper there than ``rfftn``/``irfftn``, which take the longer grids. The
operator the displacement route iterates on, ``Stencil.k_phi``, is fused:
per phase, one product of the gathered corner displacements with the 24x24
element stiffness. The stress-driven route's ``Stencil.k_ext`` is
``k_phi`` of the fluctuation plus a rank-6 coupling of the mean strain: the
six unit-strain loads, kept on the core, and per phase the 6x24 mean
coupling times the sum of the corners ``k_phi`` gathered. Each
``SolveReport`` counts the applications of both.
The same DFT block inverse, built for the unit material, gives the
compatibility residual of ``fem`` by one exact solve. All operators come
from the cell's one cached core, ``fem.stencil_of(cell)``; ``Stencil`` is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math
import numbers

import numpy as np

from .cell import VoxelCell
from .energies import MacroLoad
from .fem import (LOCKSTEP_MAX_DOF, LinPerField, Stencil, project_zero_mean, stencil_of,
                  sym_gradient)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class SolveParams:
    """Knobs shared by all solvers.

    ``tol`` is a positive finite real, ``max_iter`` an integer of at least
    1 and ``seed`` a nonnegative integer; bools are rejected, numpy integers
    and reals accepted and stored as Python ``int`` and ``float``, and any
    other type is a ``ValueError`` naming the field. ``uzawa_step`` is
    either a positive finite real, the fixed step of the displacement
    ascent, or the string ``"auto"``, in which case each step takes CG's
    step length along CG's conjugate direction. ``seed`` is accepted and
    recorded; no solver draws random numbers, so it has no effect. These
    defaults and range rules are the only ones: the run configuration takes
    both from here.
    """

    tol: float = 1e-9
    max_iter: int = 10000
    uzawa_step: float | str = "auto"
    seed: int = 0

    def __post_init__(self):
        if not (_is_real(self.tol) and math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be a positive finite real")
        if not (_is_int(self.max_iter) and self.max_iter >= 1):
            raise ValueError("max_iter must be an integer of at least 1")
        if not (self.uzawa_step == "auto" or _is_real(self.uzawa_step)
                and math.isfinite(self.uzawa_step) and self.uzawa_step > 0.0):
            raise ValueError("uzawa_step must be a positive finite real, or 'auto'")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        # builtin scalars from here on, so a report of them serializes
        self.tol, self.max_iter, self.seed = float(self.tol), int(self.max_iter), int(self.seed)
        if self.uzawa_step != "auto":
            self.uzawa_step = float(self.uzawa_step)


@dataclass
class SolveReport:
    """Per-solve record; ``stop_reason`` says why the iteration ended:
    ``converged``, ``budget`` (``max_iter`` spent), ``breakdown`` (PCG met a
    non-positive curvature or preconditioned residual product, the
    right-hand side, a residual or a gap is not finite, or a nonzero
    right-hand side underflows: its squared norm is below the normal range,
    so that no relative residual of it can be taken) or
    ``step-too-large`` (the gap of a fixed-step Uzawa solve kept growing).
    ``operator_applications`` counts the solve's ``k_phi``/``k_ext`` calls
    and its mean-strain load (``mean_strain_load``), and
    ``preconditioner_applications`` its ``ref_solve``/``precond_ext`` calls,
    set-up and final correction included; all counts are ``int``.
    ``bound_history`` holds the Gauss-Radau bound on ``|x* - x_k|_K^2`` of
    each iterate of a solve stopped on that bound (``energy_tol``), and is
    empty for the others. ``error_bound`` is the certificate of a column of
    ``homogenize``'s displacement or strain formulation, or of
    ``dual_consistency``'s stress solves, a bound on its energy error per
    volume computed from the column's own residual, and None elsewhere."""

    iterations: int
    residual_history: list
    final_energy: float
    converged: bool
    gap_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    stop_reason: str = "converged"
    operator_applications: int = 0
    preconditioner_applications: int = 0
    bound_history: list = field(default_factory=list)
    error_bound: float | None = None


#: smallest normal float: a nonzero right-hand side whose squared norm is
#: below it has no relative residual, and breaks down
_TINY = float(np.finfo(float).tiny)


class NotConverged(RuntimeError):
    """Solve stopped before convergence; carries the partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class StepTooLarge(NotConverged):
    """Uzawa gap grew for 10 consecutive fixed steps; carries the report."""


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients


def _ratio_going(num, den, going):
    """``num / den`` of the columns going, and 0 for the stopped ones,
    without dividing by their scalars, which may be 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=going)


def _pcg(op, m_inv, b, tol, max_iter, energy_offsets=None, hook=None, rho=None, mu=None):
    """Textbook preconditioned CG from ``x = 0``, run on each right-hand
    side ``b[i]`` of a stack along the leading axis of ``b``.

    ``op`` applies the SPD operator and ``m_inv`` the inverse of the SPD
    preconditioner, each to the whole stack at once, and the column ``i`` of
    their result must equal their application to ``b[i]`` alone. Returns
    ``(x, reports)``, one report per column. Beta is Fletcher-Reeves,
    ``r.z_new / r.z_old``; with a fixed SPD preconditioner the new residual
    is conjugate to the old one, so the iterates are those of Polak-Ribiere
    CG in exact arithmetic. The recorded energies ``1/2 x.Kx - b.x`` plus
    the column's entry of ``energy_offsets`` (default 0) come from the CG
    scalars: as ``p.r = r.z``, each step lowers the energy by
    ``alpha r.z / 2``.

    The columns are independent CGs that share the calls of ``op`` and
    ``m_inv``: each has its own scalars (Python floats for a stack of one,
    else one array entry per column), stop test, counts and report, so it
    takes the iterates, and the bits, of a solve on its own. A column that
    stops is frozen: its histories end and its further steps are zero,
    which leave its ``x`` bit for bit (``x`` starts at +0 and never holds
    -0; its direction stays finite unless the column stopped unconverged on
    a non-finite residual), while the others go on. The stack is still
    applied whole, and an application counts once for each column still
    iterating.

    A right-hand side whose norm is not finite, or that is nonzero with a
    squared norm below ``np.finfo(float).tiny``, stops its column at once,
    unconverged, with no call of ``op`` or ``m_inv``, and a column that
    stops before ``max_iter`` steps without converging (a NaN residual fails
    the stop test too) reports ``breakdown``, not ``budget``.

    ``hook(x, r, z, energy)``, allowed only with one column, is called at
    every iterate with that column's arrays and the ``z = m_inv(r)`` the
    next direction uses, and returns whether to stop, in place of the test
    ``|r| <= tol |b|``, or None to stop unconverged. The loop updates
    ``x``, ``r`` and the direction (the first one is ``z`` itself) in place,
    so a hook copies whatever it keeps.

    A fixed step ``rho``, allowed only with one column too, makes the loop
    preconditioned Richardson: each step goes along ``z = m_inv(r)`` itself
    (beta 0) with ``alpha = rho``, and lowers the energy by ``alpha (r.z -
    alpha p.Kp / 2)``; at CG's alpha that is ``alpha r.z / 2``, the formula
    CG keeps.

    A lower bound ``mu > 0`` on the spectrum of ``m_inv op`` makes every
    column stop on the Gauss-Radau bound of its CG error (Golub & Meurant,
    BIT 37, 1997; Meurant & Tichy, Numer. Algorithms 82, 2019) in place of
    the residual test: with ``rho_k = r_k.z_k`` and CG's ``alpha_k``,

        g_0 = 1 / mu,  g_{k+1} = (g_k - alpha_k) / (mu (g_k - alpha_k) + rho_{k+1} / rho_k),

    ``|x* - x_k|_K^2 <= g_k rho_k``, read off the CG scalars with no
    further application. A column stops once that bound is at most ``tol``
    times twice the magnitude of its energy ``E_k``, the squared energy
    norm of the iterate's cell displacement: the energy of a strain-driven
    column, offset by that of its mean strain, is positive, and that of a
    stress-driven one is ``-1/2 x_k.Kx_k``. It records the bound of every
    iterate in ``bound_history``. The test needs ``z`` at every iterate,
    the last one included, as a hook does.
    """
    k = len(b)
    if k == 1:
        energy = 0.0 if energy_offsets is None else float(energy_offsets[0])
        sqrt, count = math.sqrt, int

        def dots(u, v):
            return float(np.vdot(u, v))

        def nonzero(u):
            return bool(u.any())
    else:
        if hook is not None or rho is not None:
            raise ValueError("a _pcg hook or fixed step takes one column")
        shape = (k,) + (1,) * (b.ndim - 1)  # a factor per column, over its field
        energy = np.zeros(shape) if energy_offsets is None else \
            np.array(energy_offsets, dtype=float).reshape(shape)
        sqrt, count = np.sqrt, np.count_nonzero

        def dots(u, v):
            # numpy takes each row-by-column product by the BLAS dot that
            # np.vdot calls, so each is bit for bit a column's own vdot
            return np.matmul(u.reshape(k, 1, -1), v.reshape(k, -1, 1)).reshape(shape)

        def nonzero(u):
            return u.reshape(k, -1).any(axis=1).reshape(shape)

    x = np.zeros_like(b)
    r = b.copy()
    step = np.empty_like(b)  # alpha p, then alpha K p
    bb = dots(b, b)
    bnorm = sqrt(bb)
    # a zero right-hand side is solved by x = 0, with no iteration; one whose
    # norm is not finite (a NaN compares false too), or whose nonzero squared
    # norm underflows, is not solved at all
    finite = bnorm < math.inf
    tiny = finite & (bb < _TINY) & nonzero(b)
    going, stop = finite & (bb >= _TINY), finite ^ tiny
    res = (going | tiny) + 0.0 * bnorm  # |r| / |b|: 1, 0, or NaN where |b| is not finite
    broke = going & False
    went, live = going, count(going)
    # the Gauss-Radau bound: 0 for a zero load, which x = 0 solves, and NaN,
    # which fails the stop test, for a load that is not iterated on
    gamma = None if mu is None else 1.0 / mu
    bound = np.where(res == 0.0, 0.0, math.nan)
    history, energies, bounds = [res], [energy], [bound]
    steps = []  # which columns took each step; those going took every one
    p = None
    while True:
        rz_new = None
        if hook is not None:
            if going:
                z = m_inv(r)
                stop = hook(x[0], r[0], z[0], energy)
                going = stop is not None and not stop
        elif mu is None:
            # the residual test needs no z, so a converged solve spends no
            # m_inv on it; "not >" stops on a NaN residual too, unconverged
            z, going = None, going & (res > tol)
        elif live:
            z = m_inv(r)
            rz_new = dots(r, z)
            if p is not None:
                g = gamma - alpha
                gamma = g / (mu * g + rz_new / rz) if live == k else _ratio_going(
                    g, mu * g + _ratio_going(rz_new, rz, going), going)
            bound = gamma * rz_new if live == k else np.where(going, gamma * rz_new, bound)
            # "not >" stops on a NaN bound too, unconverged
            going = going & (bound > 2.0 * tol * abs(energy))
            bounds[-1] = bound
        live = count(going)
        if not live or len(steps) >= max_iter:
            break
        if z is None:
            z = m_inv(r)
        if rz_new is None:
            rz_new = dots(r, z)
        if p is None or rho is not None:
            p = z
        else:
            p *= rz_new / rz if live == k else _ratio_going(rz_new, rz, going)
            p += z
        rz = rz_new
        kp = op(p)
        pkp = dots(p, kp)
        broken = going & ((pkp <= 0.0) | (rz <= 0.0))
        if count(broken):  # rounding noise at an unconverged iterate
            broke, going = broke | broken, going ^ broken
            live = count(going)
            if not live:
                break
        if rho is not None:
            alpha = rho
        else:
            alpha = rz / pkp if live == k else _ratio_going(rz, pkp, going)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(kp, alpha, out=step)
        steps.append(going)
        rnorm = sqrt(dots(r, r))
        res = rnorm / bnorm if live == k else _ratio_going(rnorm, bnorm, going)
        if rho is None:
            energy = energy - 0.5 * alpha * rz
        else:
            energy = energy - alpha * (rz - 0.5 * alpha * pkp)
        history.append(res)
        energies.append(energy)
        bounds.append(bound)  # the next stop test puts the new iterate's in its place
    its = sum(steps, going * 0)
    columns = zip(*np.reshape([its, broke, went], (3, k)).tolist(), *np.reshape(
        [history, energies, bounds], (3, -1, k)).transpose(0, 2, 1).tolist())
    reports = []
    for n_it, broken, n_first, hist, ens, bnds in columns:
        hist, ens, bnds = hist[:n_it + 1], ens[:n_it + 1], bnds[:n_it + 1]
        if hook is not None:
            converged = bool(stop)
        elif mu is not None:
            converged = bnds[-1] <= 2.0 * tol * abs(ens[-1])
        else:
            converged = hist[-1] <= tol
        # each step applies op and m_inv once, a breakdown op once more, and
        # with a hook or the bound m_inv also serves the last stop test
        n_op = n_it + broken
        reports.append(SolveReport(
            n_it, hist, ens[-1], converged, energy_history=ens,
            stop_reason="converged" if converged else "budget" if n_it == max_iter
            else "breakdown",
            operator_applications=n_op,
            preconditioner_applications=n_op if hook is None and mu is None else n_it + n_first,
            bound_history=bnds if mu is not None else []))
    return x, reports


def _not_converged(solve: str, report: SolveReport) -> NotConverged:
    res, gaps = report.residual_history[-1], report.gap_history
    if not math.isfinite(res):
        why = "non-finite right-hand side" if report.iterations == 0 else "non-finite residual"
    elif gaps and not math.isfinite(gaps[-1]):
        why = "non-finite gap"
    elif report.preconditioner_applications == 0:
        # only a right-hand side too small to iterate on stops before its
        # first preconditioner call without converging
        why = "right-hand side underflows"
    else:
        why = {"budget": "iteration budget spent",
               "breakdown": "PCG breakdown"}[report.stop_reason]
    gap = f", gap {gaps[-1]:.3e}" if gaps else ""
    return NotConverged(
        f"{solve} solve: {why}, residual {res:.3e}{gap} "
        f"after {report.iterations} iterations", report)


def _macro_load(value, name: str, ndim: int = 1) -> np.ndarray:
    """``value`` as floats: 6 finite reals, or rows of them with ``ndim``
    2; anything else is a ``ValueError`` that names the load."""
    try:
        load = np.asarray(value, dtype=float)
        ok = load.ndim == ndim and load.shape[-1:] == (6,) and bool(np.isfinite(load).all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {'rows of ' * (ndim - 1)}6 finite reals, got {value!r}")
    return load


def _quiet(solve):
    """``solve`` with NumPy's floating-point warnings off: a load or an
    iterate out of the float range shows as a norm that is not finite, which
    the solve reports as a ``breakdown``."""
    @functools.wraps(solve)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return solve(*args, **kwargs)
    return quiet


def _stop_test(st: Stencil, params: SolveParams, energy_tol) -> tuple:
    """``(tol, mu)`` of ``_pcg``: the residual ``params.tol`` and no ``mu``,
    or, given ``energy_tol``, the Gauss-Radau stop at it with ``mu`` the
    lower phase bound, as ``lam`` times the reference operator is at most
    the cell's, element by element."""
    if energy_tol is None:
        return params.tol, None
    if _is_real(energy_tol) and 0.0 < energy_tol < math.inf:
        return float(energy_tol), st.phase_bounds[0]
    raise ValueError("energy_tol must be a positive finite real")


def _lockstep_runs(cell: VoxelCell, rows: np.ndarray) -> list:
    """``rows`` split into consecutive runs of stress-driven columns solved
    in lockstep, or of certificate residuals preconditioned by one call
    (``homogenize._certified_gram``): as few runs, of sizes differing by at most one, as keep
    each within ``fem.LOCKSTEP_MAX_DOF`` nodal unknowns, and runs of one row
    where a single column exceeds that."""
    per_run = max(1, LOCKSTEP_MAX_DOF // (3 * cell.n_voxels))
    return np.array_split(rows, max(1, -(-len(rows) // per_run)))


# ---------------------------------------------------------------------------
# solver entry points


def solve_strain_driven(cell: VoxelCell, macro_strain, params: SolveParams | None = None, *,
                        energy_tol: float | None = None):
    """Cell solution for a prescribed mean strain.

    Returns ``(u, report)`` where ``u.macro`` is the given strain and
    ``u.periodic`` the zero-mean fluctuation; at convergence the nodal
    residual of the equilibrium equations is below ``tol`` relative to the
    load produced by the mean strain.

    With ``energy_tol`` the solve stops instead on the Gauss-Radau bound of
    its energy error (``_pcg``'s ``mu``, the lower phase bound
    ``Stencil.phase_bounds[0]``, as ``lam K0 <= K``): at convergence
    ``|u* - u|_K^2 <= energy_tol * 2 E``, where ``E = 1/2 x.K_ext x`` is
    the cell energy of the iterate, which ``report.bound_history`` ends
    with.
    """
    return solve_strain_stack(cell, _macro_load(macro_strain, "macro strain")[None], params,
                              energy_tol=energy_tol)[0]


@_quiet
def solve_strain_stack(cell: VoxelCell, macro_strains, params: SolveParams | None = None, *,
                       energy_tol: float | None = None):
    """``solve_strain_driven`` of each mean strain of a stack (one per row),
    with the same ``energy_tol``.

    Where ``ref_solve`` applies the dense inverse
    (``Stencil.uses_ref_dense``), the strains are solved in lockstep: one
    ``_pcg`` over the stack, so that one ``k_phi`` and one ``ref_solve``
    call per iteration serve all the columns. On larger grids, where a
    stack no longer pays, each strain is one ``solve_strain_driven`` call.

    Returns a list of ``(u, report)``, each bit for bit what
    ``solve_strain_driven`` returns for its strain. When columns fail to
    converge, raises the ``NotConverged`` of the one of lowest index, which
    a solve of one column after another would have raised first.
    """
    params = params or SolveParams()
    strains = _macro_load(macro_strains, "macro strains", ndim=2)
    st = stencil_of(cell)
    if len(strains) > 1 and not st.uses_ref_dense:
        return [solve_strain_driven(cell, a, params, energy_tol=energy_tol) for a in strains]
    # the stiffness of (a, 0) gives the load of the mean strain and its energy
    b = np.empty((len(strains),) + cell.dims + (3,))
    offsets = []
    for a, b_a in zip(strains, b):
        mean, load = st.mean_strain_load(a)
        np.negative(load, out=b_a)
        offsets.append(0.5 * float(a @ mean))
    tol, mu = _stop_test(st, params, energy_tol)
    sols, reports = _pcg(st.k_phi, st.ref_solve, b, tol, params.max_iter,
                         energy_offsets=offsets, mu=mu)
    for report in reports:
        report.operator_applications += 1  # the load
        if not report.converged:
            raise _not_converged("strain-driven", report)
    return [(LinPerField(a, sol), report)
            for a, sol, report in zip(strains, st._center(sols), reports)]


def solve_stress_driven(cell: VoxelCell, macro_stress, params: SolveParams | None = None):
    """Cell solution for a prescribed mean stress.

    Returns ``(w, report)`` with zero-mean ``w``; the returned field carries
    the prescribed mean stress exactly (a final 6x6 correction of the mean
    strain eliminates constraint drift) and equilibrium holds to ``tol``.
    """
    w, report, _, _ = _stress_columns(cell, _macro_load(macro_stress, "macro stress")[None],
                                      params)[0]
    return w, report


@_quiet
def _stress_columns(cell: VoxelCell, macro_stresses, params: SolveParams | None = None,
                    energy_tol: float | None = None) -> list:
    """``solve_stress_driven`` of each mean stress of a stack (one per row),
    in lockstep runs of consecutive rows (``_lockstep_runs``), each one
    ``_pcg`` whose one ``k_ext`` and one ``precond_ext`` call per iteration
    serve all its columns: a list of ``(w, report, x, kx)``, each ``(w,
    report)`` bit for bit the solve of its stress alone, ``x`` the packed
    ``(mean strain, fluctuation)`` of ``w``, whose fields are views of it,
    and ``kx`` its ``k_ext``, which the report's energy readout forms. When
    columns fail to converge, raises the ``NotConverged`` of the one of
    lowest index, which a solve of one column after another would have
    raised first.

    With ``energy_tol`` (``dual_consistency``'s stop) each column stops
    instead on the Gauss-Radau bound of its energy error, as
    ``solve_strain_driven``'s do, with the same ``mu``: ``precond_ext`` is
    the exact inverse of ``k_ext`` for the mean stiffness, which couples no
    fluctuation to the mean strain, so ``lam`` bounds the spectrum again.
    At convergence ``|x* - x_k|_K^2 <= energy_tol * x_k.K_ext x_k`` for the
    last packed iterate ``x_k``, whose energy is ``-1/2 x_k.K_ext x_k``;
    ``report.bound_history`` ends with that bound."""
    params = params or SolveParams()
    stresses = _macro_load(macro_stresses, "macro stresses", ndim=2)
    st = stencil_of(cell)
    tol, mu = _stop_test(st, params, energy_tol)
    out = []
    for run in _lockstep_runs(cell, stresses):
        b = np.zeros((len(run), 6 + 3 * cell.n_voxels))
        b[:, :6] = st.volume * run
        sols, reports = _pcg(st.k_ext, st.precond_ext, b, tol, params.max_iter, mu=mu)
        for s_target, sol, report in zip(run, sols, reports):
            w = _readout(cell, st, sol, s_target - st.k_ext(sol)[:6] / st.volume)
            x = st.pack(w.macro, w.periodic)
            w = LinPerField(*st.unpack(x))  # one copy of the fields per column
            kx = st.k_ext(x)
            report.final_energy = 0.5 * float(x @ kx) - st.volume * float(s_target @ w.macro)
            report.operator_applications += 2  # the mean-stress correction and energy
            if not report.converged:
                raise _not_converged("stress-driven", report)
            out.append((w, report, x, kx))
    return out


def _readout(cell: VoxelCell, st: Stencil, x: np.ndarray, misfit: np.ndarray) -> LinPerField:
    """Zero-mean displacement of the stress-driven iterate ``x``, its mean
    strain corrected by ``cmean^-1`` times the misfit ``S - mean stress``."""
    macro, phi = st.unpack(x)
    return project_zero_mean(cell, LinPerField(macro + st.cmean_inv @ misfit, phi))


@_quiet
def solve_stress_uzawa(cell: VoxelCell, macro_stress, params: SolveParams | None = None):
    """Alternating-directions saddle-point solve for a prescribed mean stress.

    The stress step is closed form (the inner minimum of the
    stress-displacement Lagrangian is attained at the constitutive stress of
    the current displacement); the displacement step is a preconditioned
    ascent on the dual. The nodal part of that step is the reference solve
    ``psi`` of the weak divergence of the constitutive stress ``C e(x)``, so
    subtracting the correction stress ``tau = C0 e(psi) + (mean stress -
    S)`` makes it admissible exactly, and weak duality holds per iteration.
    Because ``integral e(x).C0 e(psi) = phi.K0 psi = phi.(K x)_phi``,
    expanding the complementary energy of ``C e(x) - tau`` against the
    displacement energy ``E = 1/2 x.Kx - b.x`` gives ``compl + E = 1/2
    integral D tau.tau``. ``Stencil.correction_gap`` evaluates that integral
    from the corner values of ``psi`` and the mean misfit by per-phase
    element factors, as a sum of squares: nonnegative by construction,
    exactly 0 at zero input, and not the difference of two O(1) energies,
    so no cancellation error enters it; no quadrature field is formed per
    iteration, and ``tau`` is formed once, at return. Convergence requires
    both the gap (relative to the complementary energy) and the equilibrium
    residual to fall below ``tol``.

    With ``uzawa_step = "auto"`` the displacement steps are those of
    ``_pcg`` (Uzawa's algorithm with conjugate-gradient directions). The gap
    of a CG iterate need not fall monotonically, so the recorded gap is the
    best certified one, ``best_k = min(gap_k, max(0, best_{k-1} - (E_{k-1} -
    E_k)))``: the gap of the admissible stress of the best iterate ``j`` so
    far against the current displacement, whose energy only falls. The
    energy decrements come from CG scalars and can overshoot by rounding,
    and a gap is never negative, so the bound is clamped at 0; a bound of 0
    already passes the gap test. A numeric
    ``uzawa_step`` is the paper's literal algorithm, a fixed step along the
    preconditioned residual: ``_pcg``'s fixed step, through the same hook,
    which records the gap of each iterate itself and raises ``StepTooLarge``
    when it grows for 10 consecutive iterations.

    Returns ``(sigma, w, report)``: the admissible stress (of iterate ``j``),
    the ``solve_stress_driven`` displacement of the last iterate (the strain
    of ``j`` can be off by about 1e-8 even at ``tol = 1e-12``), and the report
    with the gap history; ``final_energy`` is the complementary energy of
    ``sigma``. The dual multiplier of the underlying Lagrangian is ``-w``.
    """
    params = params or SolveParams()
    s_target = _macro_load(macro_stress, "macro stress")
    st = stencil_of(cell)

    if not s_target.any():
        report = SolveReport(0, [0.0], 0.0, True, gap_history=[0.0],
                             energy_history=[0.0])
        return np.zeros(cell.dims + (8, 6)), LinPerField.zeros(cell), report

    b = st.pack(st.volume * s_target, np.zeros(cell.dims + (3,)))
    bnorm = float(np.linalg.norm(b))
    rho = None if params.uzawa_step == "auto" else params.uzawa_step
    gaps: list = []
    x_j = m_j = psi_j = m = None
    best = compl = np.inf
    energy_prev = 0.0
    streak = 0

    def gap_test(x, r, z, energy):
        nonlocal x_j, m_j, psi_j, m, best, compl, energy_prev, streak
        m, psi = r[:6] / st.volume, st.unpack(z)[1]
        gap = st.correction_gap(m, psi)
        if not gap < math.inf:  # a NaN compares false too
            gaps.append(gap)
            return None  # stop, unconverged
        if rho is None:
            # the energy decrements come from CG scalars and can overshoot by
            # rounding; a gap is never negative, so neither is its bound
            best = max(best - (energy_prev - energy), 0.0)
        else:
            # a fixed step is judged by its own iterate's gap
            grew = gaps and gap > gaps[-1] * (1.0 + 1e-15) + 1e-300
            best, streak = gap, streak + 1 if grew else 0
        if gap <= best:
            best, compl = gap, gap - energy
            x_j, m_j, psi_j = x.copy(), m, psi.copy()
        gaps.append(best)
        energy_prev = energy
        if (best <= params.tol * max(compl, 1e-300)
                and float(np.linalg.norm(r)) <= params.tol * bnorm):
            return True
        return None if streak >= 10 else False

    (x,), (report,) = _pcg(st.k_ext, st.precond_ext, b[None], params.tol, params.max_iter,
                           hook=gap_test, rho=rho)
    report.gap_history, report.final_energy = gaps, compl
    if not report.converged:
        if streak >= 10:
            report.stop_reason = "step-too-large"
            raise StepTooLarge(f"uzawa gap grew for {streak} consecutive iterations "
                               f"(step {rho:.3e})", report)
        raise _not_converged("uzawa", report)

    # the last residual's mean part is the misfit, so the readout costs no k_ext
    sigma = st.stress(st.strain_ext(x_j)) - st.correction(m_j, psi_j)
    return sigma, _readout(cell, st, x, m), report


def solve_strain_route(cell: VoxelCell, load: MacroLoad,
                       params: SolveParams | None = None):
    """Cell solve reported in strain space through the gradient isomorphisms.

    For a mean-strain load the result is the zero-mean fluctuation strain
    (the image of the periodic displacement); for a mean-stress load it is
    the total strain of the zero-mean displacement solution. Paired calls
    with consistent data differ exactly by the mean strain.
    """
    params = params or SolveParams()
    if load.kind == "strain":
        u, report = solve_strain_driven(cell, load.value, params)
        e = sym_gradient(cell, u)
        return e - load.value, report
    w, report = solve_stress_driven(cell, load.value, params)
    return sym_gradient(cell, w), report
