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

The CG routes, and the Uzawa route with the AUTO step, run one loop,
``_pcg``: textbook preconditioned CG from a zero start with the
Fletcher-Reeves beta, whose iterates equal those of Polak-Ribiere CG in
exact arithmetic because the preconditioner is fixed and SPD. The energy of
every iterate is read off the CG scalars, so the loop keeps no running
``K x``; the Uzawa route stops it on the duality gap through a hook. The
loop iterates a stack of right-hand sides in lockstep, as independent CGs
that share each operator and preconditioner call: ``solve_strain_stack``
stacks several mean strains where the preconditioner is the dense inverse,
each solved with the bits of its own solve, and every other route passes a
stack of one.

The preconditioner is the constant-coefficient operator built from the
volume-averaged stiffness; being block-circulant on the periodic grid it is
inverted exactly by DFT diagonalization: 3x3 Hermitian blocks per frequency
on the half spectrum of the real FFT, inverted once by a batched 3x3
inverse, the zero frequency annihilated, which also enforces the zero-mean
constraint. On grids of at most ``fem.DENSE_REF_MAX_DOF`` unknowns the same
inverse is applied as one dense matrix, built once from those blocks,
because there a transform pair costs more than the dense product. Up to
``fem.DFT_MATRIX_MAX_SIDE`` voxels a side the transforms are products with
per-axis DFT matrices, cheaper there than ``rfftn``/``irfftn``, which take
the longer grids. The operators the solvers iterate on (``Stencil.k_phi``,
``Stencil.k_ext``) are fused: per phase, one product of the gathered corner
displacements with the 24x24 element stiffness, plus the 6x24 mean-strain
coupling for the stress-driven route. Each ``SolveReport`` counts the
applications of both.
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
from .fem import LinPerField, Stencil, project_zero_mean, stencil_of, sym_gradient


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
    set-up and final correction included; all counts are ``int``."""

    iterations: int
    residual_history: list
    final_energy: float
    converged: bool
    gap_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    stop_reason: str = "converged"
    operator_applications: int = 0
    preconditioner_applications: int = 0


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


def _pcg(op, m_inv, b, tol, max_iter, energy_offsets=None, hook=None):
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
        if hook is not None:
            raise ValueError("a _pcg hook takes one column")
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
    history, energies = [res], [energy]
    steps = []  # which columns took each step; those going took every one
    p = None
    while True:
        if hook is None:
            # the residual test needs no z, so a converged solve spends no
            # m_inv on it; "not >" stops on a NaN residual too, unconverged
            z, going = None, going & (res > tol)
        elif going:
            z = m_inv(r)
            stop = hook(x[0], r[0], z[0], energy)
            going = stop is not None and not stop
        live = count(going)
        if not live or len(steps) >= max_iter:
            break
        if z is None:
            z = m_inv(r)
        rz_new = dots(r, z)
        if p is None:
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
        alpha = rz / pkp if live == k else _ratio_going(rz, pkp, going)
        x += np.multiply(p, alpha, out=step)
        r -= np.multiply(kp, alpha, out=step)
        steps.append(going)
        rnorm = sqrt(dots(r, r))
        res = rnorm / bnorm if live == k else _ratio_going(rnorm, bnorm, going)
        energy = energy - 0.5 * alpha * rz
        history.append(res)
        energies.append(energy)
    its = sum(steps, going * 0)
    columns = zip(*np.reshape([its, broke], (2, k)).tolist(),
                  *np.reshape([history, energies], (2, -1, k)).transpose(0, 2, 1).tolist())
    reports = []
    for n_it, broken, hist, ens in columns:
        hist, ens = hist[:n_it + 1], ens[:n_it + 1]
        converged = bool(stop) if hook is not None else hist[-1] <= tol
        # each step applies op and m_inv once, a breakdown op once more, and
        # with a hook m_inv also serves the last stop test
        n_op = n_it + broken
        reports.append(SolveReport(
            n_it, hist, ens[-1], converged, energy_history=ens,
            stop_reason="converged" if converged else "budget" if n_it == max_iter
            else "breakdown",
            operator_applications=n_op,
            preconditioner_applications=n_op if hook is None else n_it + (_TINY <= bb < math.inf)))
    return x, reports


def _pcg_one(op, m_inv, b, tol, max_iter, hook=None):
    """``_pcg`` on the one right-hand side ``b``, for an operator and
    preconditioner that apply to one vector: returns ``(x, report)``."""
    x, reports = _pcg(lambda v: op(v[0])[None], lambda v: m_inv(v[0])[None], b[None],
                      tol, max_iter, hook=hook)
    return x[0], reports[0]


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


# ---------------------------------------------------------------------------
# solver entry points


def solve_strain_driven(cell: VoxelCell, macro_strain, params: SolveParams | None = None):
    """Cell solution for a prescribed mean strain.

    Returns ``(u, report)`` where ``u.macro`` is the given strain and
    ``u.periodic`` the zero-mean fluctuation; at convergence the nodal
    residual of the equilibrium equations is below ``tol`` relative to the
    load produced by the mean strain.
    """
    return solve_strain_stack(cell, _macro_load(macro_strain, "macro strain")[None], params)[0]


@_quiet
def solve_strain_stack(cell: VoxelCell, macro_strains, params: SolveParams | None = None):
    """``solve_strain_driven`` of each mean strain of a stack (one per row).

    Where ``ref_solve`` applies the dense inverse
    (``Stencil.uses_ref_dense``), the strains are solved in lockstep: one
    ``_pcg`` over the stack, so that one ``k_phi`` and one ``ref_solve``
    call per iteration serve all the columns. On larger grids, where a
    stack no longer pays, each strain is one ``solve_strain_driven``.

    Returns a list of ``(u, report)``, each bit for bit what
    ``solve_strain_driven`` returns for its strain. When columns fail to
    converge, raises the ``NotConverged`` of the one of lowest index, which
    a solve of one column after another would have raised first.
    """
    params = params or SolveParams()
    strains = _macro_load(macro_strains, "macro strains", ndim=2)
    st = stencil_of(cell)
    if len(strains) > 1 and not st.uses_ref_dense:
        return [solve_strain_driven(cell, a, params) for a in strains]
    # the stiffness of (a, 0) gives the load of the mean strain and its energy
    b = np.empty((len(strains),) + cell.dims + (3,))
    offsets = []
    for a, b_a in zip(strains, b):
        mean, load = st.mean_strain_load(a)
        np.negative(load, out=b_a)
        offsets.append(0.5 * float(a @ mean))
    sols, reports = _pcg(st.k_phi, st.ref_solve, b, params.tol, params.max_iter,
                         energy_offsets=offsets)
    for report in reports:
        report.operator_applications += 1  # the load
        if not report.converged:
            raise _not_converged("strain-driven", report)
    return [(LinPerField(a, sol), report)
            for a, sol, report in zip(strains, st._center(sols), reports)]


@_quiet
def solve_stress_driven(cell: VoxelCell, macro_stress, params: SolveParams | None = None):
    """Cell solution for a prescribed mean stress.

    Returns ``(w, report)`` with zero-mean ``w``; the returned field carries
    the prescribed mean stress exactly (a final 6x6 correction of the mean
    strain eliminates constraint drift) and equilibrium holds to ``tol``.
    """
    params = params or SolveParams()
    s_target = _macro_load(macro_stress, "macro stress")
    st = stencil_of(cell)
    b = st.pack(st.volume * s_target, np.zeros(cell.dims + (3,)))
    sol, report = _pcg_one(st.k_ext, st.precond_ext, b, params.tol, params.max_iter)
    w = _readout(cell, st, sol, s_target - st.k_ext(sol)[:6] / st.volume)
    x = st.pack(w.macro, w.periodic)
    report.final_energy = (0.5 * float(x @ st.k_ext(x))
                           - st.volume * float(s_target @ w.macro))
    report.operator_applications += 2  # the mean-stress correction and energy
    if not report.converged:
        raise _not_converged("stress-driven", report)
    return w, report


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
    best certified one, ``best_k = min(gap_k, best_{k-1} - (E_{k-1} - E_k))``:
    the gap of the admissible stress of the best iterate ``j`` so far against
    the current displacement, whose energy only falls. A numeric
    ``uzawa_step`` is a fixed step along the preconditioned residual, which
    raises ``StepTooLarge`` when the gap grows for 10 consecutive iterations.

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
    gaps: list = []
    if params.uzawa_step == "auto":
        x_j = m_j = psi_j = m = None
        best = compl = np.inf
        energy_prev = 0.0

        def gap_test(x, r, z, energy):
            nonlocal x_j, m_j, psi_j, m, best, compl, energy_prev
            m, psi = r[:6] / st.volume, st.unpack(z)[1]
            gap = st.correction_gap(m, psi)
            if not gap < math.inf:  # a NaN compares false too
                gaps.append(gap)
                return None  # stop, unconverged
            best -= energy_prev - energy
            if gap <= best:
                best, compl = gap, gap - energy
                x_j, m_j, psi_j = x.copy(), m, psi.copy()
            gaps.append(best)
            energy_prev = energy
            return (best <= params.tol * max(compl, 1e-300)
                    and float(np.linalg.norm(r)) <= params.tol * bnorm)

        x, report = _pcg_one(st.k_ext, st.precond_ext, b, params.tol, params.max_iter,
                             hook=gap_test)
        report.gap_history, report.final_energy = gaps, compl
        if not report.converged:
            raise _not_converged("uzawa", report)
    else:
        if float(np.vdot(b, b)) < _TINY:  # as _pcg: a nonzero load that underflows
            raise _not_converged("uzawa", SolveReport(0, [1.0], 0.0, False,
                                                      stop_reason="breakdown"))
        x = np.zeros_like(b)
        history: list = []
        energies: list = []
        streak = it = 0

        def report_at(reason):
            """Report of a stop at the current iterate; every pass, this one
            included, applies ``k_ext`` and ``precond_ext`` once."""
            return SolveReport(it, history, compl, reason == "converged", gap_history=gaps,
                               energy_history=energies, stop_reason=reason,
                               operator_applications=it + 1,
                               preconditioner_applications=it + 1)

        while True:
            kx = st.k_ext(x)
            r = b - kx
            z = st.precond_ext(r)
            m, psi = r[:6] / st.volume, st.unpack(z)[1]
            gap = st.correction_gap(m, psi)
            energies.append(0.5 * float(x @ kx) - float(b @ x))
            compl = gap - energies[-1]
            history.append(float(np.linalg.norm(r)) / bnorm)
            gaps.append(gap)
            if not (math.isfinite(gap) and math.isfinite(history[-1])):
                raise _not_converged("uzawa", report_at("breakdown"))
            if gap <= params.tol * max(compl, 1e-300) and history[-1] <= params.tol:
                break
            if len(gaps) > 1 and gap > gaps[-2] * (1.0 + 1e-15) + 1e-300:
                streak += 1
                if streak >= 10:
                    raise StepTooLarge(
                        f"uzawa gap grew for {streak} consecutive iterations "
                        f"(step {params.uzawa_step:.3e})", report_at("step-too-large"))
            else:
                streak = 0
            if it >= params.max_iter:
                raise _not_converged("uzawa", report_at("budget"))
            x += params.uzawa_step * z
            it += 1
        report = report_at("converged")
        x_j, m_j, psi_j = x, m, psi

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
