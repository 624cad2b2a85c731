"""Matrix-free solvers for the periodic cell problem.

Three routes are provided:

* ``solve_strain_driven``: preconditioned CG on the periodic fluctuation for
  a prescribed mean strain;
* ``solve_stress_driven``: preconditioned CG on the (mean strain, fluctuation)
  pair for a prescribed mean stress, with an exact mean-stress correction at
  return;
* ``solve_stress_uzawa``: alternating closed-form stress minimization and
  preconditioned displacement ascent on the stress-displacement Lagrangian,
  stopped by the duality gap, which is the complementary energy of one
  correction stress per iteration.

Both CG routes run one loop, ``_pcg``: textbook preconditioned CG from a
zero start with the Fletcher-Reeves beta, whose iterates equal those of
Polak-Ribiere CG in exact arithmetic because the preconditioner is fixed
and SPD. The energy of every iterate is read off the CG scalars, so the loop
keeps no running ``K x``.

The preconditioner is the constant-coefficient operator built from the
volume-averaged stiffness; being block-circulant on the periodic grid it is
inverted exactly by DFT diagonalization: 3x3 Hermitian blocks per frequency
on the half spectrum of the real FFT, inverted once by a batched 3x3
inverse, the zero frequency annihilated, which also enforces the zero-mean
constraint. The operators the solvers iterate on (``Stencil.k_phi``,
``Stencil.k_ext``) are fused: per phase, one product of the gathered corner
displacements with the 24x24 element stiffness, plus the 6x24 mean-strain
coupling for the stress-driven route.
The same DFT block inverse, built for the unit material, gives the
compatibility residual of ``fem`` by one exact solve. All operators come
from the cell's one cached core, ``fem.stencil_of(cell)``; ``Stencil`` is
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    other type is a ``ValueError`` naming the field. ``uzawa_step`` is either a positive finite real or the string
    ``"auto"``, in which case the step is set to 2 / (Lam + lmin) of the
    preconditioned operator: ``Lam`` is the phase bound of
    ``Stencil.phase_bounds``, an upper bound of its spectrum, so the step
    cannot overshoot, and ``lmin`` is estimated by 20 seeded power
    iterations. These defaults and range rules are the only ones: the run
    configuration takes both from here.
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
    non-positive curvature or preconditioned residual product) or
    ``step-too-large`` (Uzawa gap kept growing)."""

    iterations: int
    residual_history: list
    final_energy: float
    converged: bool
    gap_history: list = field(default_factory=list)
    energy_history: list = field(default_factory=list)
    stop_reason: str = "converged"


class NotConverged(RuntimeError):
    """Solve stopped before convergence; carries the partial report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class StepTooLarge(RuntimeError):
    """Uzawa gap grew for 10 consecutive iterations; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# preconditioned conjugate gradients


def _pcg(op, m_inv, b, tol, max_iter, energy_offset=0.0):
    """Textbook preconditioned CG from ``x = 0`` on arrays of any shape.

    ``op`` applies the SPD operator and ``m_inv`` the inverse of the SPD
    preconditioner. Returns (x, report). Beta is Fletcher-Reeves,
    ``r.z_new / r.z_old``; with a fixed SPD preconditioner the new residual
    is conjugate to the old one, so the iterates are those of Polak-Ribiere
    CG in exact arithmetic. The recorded energies ``1/2 x.Kx - b.x`` plus
    ``energy_offset`` come from the CG scalars: as ``p.r = r.z``, each step
    lowers the energy by ``alpha r.z / 2``.
    """
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveReport(0, [0.0], energy_offset, True,
                              energy_history=[energy_offset])
    r = b.copy()
    history = [1.0]
    energies = [energy_offset]
    p = None
    it = 0
    stop_reason = "budget"
    while history[-1] > tol and it < max_iter:
        z = m_inv(r)
        rz_new = float(np.vdot(r, z))
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        kp = op(p)
        pkp = float(np.vdot(p, kp))
        if pkp <= 0.0 or rz <= 0.0:
            stop_reason = "breakdown"  # rounding noise; residual test decides below
            break
        alpha = rz / pkp
        x += alpha * p
        r -= alpha * kp
        it += 1
        history.append(float(np.linalg.norm(r)) / bnorm)
        energies.append(energies[-1] - 0.5 * alpha * rz)
    converged = history[-1] <= tol
    return x, SolveReport(it, history, energies[-1], converged,
                          energy_history=energies,
                          stop_reason="converged" if converged else stop_reason)


def _not_converged(solve: str, report: SolveReport) -> NotConverged:
    why = {"budget": "iteration budget spent",
           "breakdown": "PCG breakdown"}[report.stop_reason]
    return NotConverged(
        f"{solve} solve: {why}, residual {report.residual_history[-1]:.3e} after "
        f"{report.iterations} iterations", report)


# ---------------------------------------------------------------------------
# solver entry points


def solve_strain_driven(cell: VoxelCell, macro_strain, params: SolveParams | None = None):
    """Cell solution for a prescribed mean strain.

    Returns ``(u, report)`` where ``u.macro`` is the given strain and
    ``u.periodic`` the zero-mean fluctuation; at convergence the nodal
    residual of the equilibrium equations is below ``tol`` relative to the
    load produced by the mean strain.
    """
    params = params or SolveParams()
    a = np.asarray(macro_strain, dtype=float)
    st = stencil_of(cell)
    # the stiffness of (a, 0) gives the load of the mean strain and its energy
    mean, load = st.unpack(st.k_ext(st.pack(a, np.zeros(cell.dims + (3,)))))
    sol, report = _pcg(st.k_phi, st.ref_solve, -load, params.tol, params.max_iter,
                       energy_offset=0.5 * float(a @ mean))
    u = LinPerField(a, st.project(sol))
    if not report.converged:
        raise _not_converged("strain-driven", report)
    return u, report


def solve_stress_driven(cell: VoxelCell, macro_stress, params: SolveParams | None = None):
    """Cell solution for a prescribed mean stress.

    Returns ``(w, report)`` with zero-mean ``w``; the returned field carries
    the prescribed mean stress exactly (a final 6x6 correction of the mean
    strain eliminates constraint drift) and equilibrium holds to ``tol``.
    """
    params = params or SolveParams()
    s_target = np.asarray(macro_stress, dtype=float)
    st = stencil_of(cell)
    b = st.pack(st.volume * s_target, np.zeros(cell.dims + (3,)))
    sol, report = _pcg(st.k_ext, st.precond_ext, b, params.tol, params.max_iter)
    mean_sig = st.k_ext(sol)[:6] / st.volume
    macro, phi = st.unpack(sol)
    macro = macro + st.cmean_inv @ (s_target - mean_sig)
    w = project_zero_mean(cell, LinPerField(macro, phi))
    x = st.pack(w.macro, w.periodic)
    report.final_energy = (0.5 * float(x @ st.k_ext(x))
                           - st.volume * float(s_target @ w.macro))
    if not report.converged:
        raise _not_converged("stress-driven", report)
    return w, report


def _power_step_estimate(st: Stencil, seed: int, iters: int = 20) -> float:
    """AUTO Uzawa step 2/(Lam+lmin) of the preconditioned operator.

    ``Lam`` is the phase bound of ``Stencil.phase_bounds``: element by element
    ``K_ext <= Lam M_ext``, so the step cannot overshoot. ``lmin`` is the
    Rayleigh quotient after 20 seeded power iterations on the shifted
    operator ``Lam - M_ext^-1 K_ext``; iterates are kept clear of the
    constant-shift nullspace so roundoff cannot collapse the estimate.
    """
    lam_max = st.phase_bounds[1]
    rng = np.random.default_rng(seed)

    def clean(x):
        macro, phi = st.unpack(x)
        return st.pack(macro, st.project(phi))

    z = clean(st.pack(rng.standard_normal(6), rng.standard_normal(st.dims + (3,))))
    z /= np.linalg.norm(z)
    for _ in range(iters):
        y = clean(lam_max * z - st.precond_ext(st.k_ext(z)))
        ny = float(np.linalg.norm(y))
        if ny <= 1e-10 * lam_max:
            # spectrum collapsed onto lam_max; the shifted operator vanishes
            return 1.0 / lam_max
        z = y / ny
    den = float(z @ st.m_ext(z))
    lam_min = float(z @ st.k_ext(z)) / den if den > 1e-30 else 1.0
    lam_min = min(max(lam_min, 1e-12 * lam_max), lam_max)
    return 2.0 / (lam_max + lam_min)


def solve_stress_uzawa(cell: VoxelCell, macro_stress, params: SolveParams | None = None):
    """Alternating-directions saddle-point solve for a prescribed mean stress.

    The stress step is closed form (the inner minimum of the
    stress-displacement Lagrangian is attained at the constitutive stress of
    the current displacement); the displacement step is a preconditioned
    gradient ascent on the dual. The nodal part of that step is the
    reference solve ``psi`` of the weak divergence of the constitutive
    stress ``C e(x)``, so subtracting the correction stress
    ``tau = C0 e(psi) + (mean stress - S)`` makes it admissible exactly,
    and weak duality holds per iteration. Because ``integral e(x).C0 e(psi)
    = phi.K0 psi = phi.(K x)_phi``, expanding the complementary energy of
    ``C e(x) - tau`` against the displacement energy
    ``k_en = 1/2 x.Kx - b.x`` gives ``compl + k_en = 1/2 integral D tau.tau``:
    the recorded gap is that one quadratic form, nonnegative by
    construction, not the difference of two O(1) energies, so it carries no
    cancellation error. Convergence requires both the gap (relative to the
    complementary energy) and the equilibrium residual to fall below
    ``tol``.

    Returns ``(sigma, v, report)``: the admissible stress, the zero-mean
    displacement whose constitutive stress it approximates, and the report
    with the per-iteration gap history. The dual multiplier of the
    underlying Lagrangian is ``-v``.
    """
    params = params or SolveParams()
    s_target = np.asarray(macro_stress, dtype=float)
    st = stencil_of(cell)
    gaps: list = []
    history: list = []
    energies: list = []

    if np.linalg.norm(s_target) == 0.0:
        report = SolveReport(0, [0.0], 0.0, True, gap_history=[0.0],
                             energy_history=[0.0])
        return np.zeros(cell.dims + (8, 6)), LinPerField.zeros(cell), report

    rho = (float(params.uzawa_step) if params.uzawa_step != "auto"
           else _power_step_estimate(st, params.seed))
    b = st.pack(st.volume * s_target, np.zeros(cell.dims + (3,)))
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    streak = 0
    prev_gap = np.inf
    it = 0
    converged = False

    def stopped(reason):
        """Report of an unconverged stop at the current iterate."""
        return SolveReport(it, history, compl, False, gap_history=gaps,
                           energy_history=energies, stop_reason=reason)

    while True:
        kx = st.k_ext(x)
        grad = kx - b
        step = st.precond_ext(grad)
        # correction stress: the reference stress of the step's nodal part
        # (psi) removes the weak divergence, the constant fixes the mean
        tau = st.strain_periodic(st.unpack(step)[1]) @ st.cmean_rows
        tau += kx[:6] / st.volume - s_target
        k_en = 0.5 * float(x @ kx) - float(b @ x)
        gap = 0.5 * float(np.sum(st.compliance_stress(tau) * tau)) * st.w
        compl = gap - k_en
        gaps.append(gap)
        relres = float(np.linalg.norm(grad)) / bnorm
        history.append(relres)
        energies.append(k_en)

        gap_rel = gap / max(compl, 1e-300)
        if gap_rel <= params.tol and relres <= params.tol:
            converged = True
            break
        if gap > prev_gap * (1.0 + 1e-15) + 1e-300:
            streak += 1
            if streak >= 10:
                raise StepTooLarge(
                    f"uzawa gap grew for {streak} consecutive iterations "
                    f"(step {rho:.3e})", stopped("step-too-large"))
        else:
            streak = 0
        prev_gap = gap
        if it >= params.max_iter:
            raise NotConverged(
                f"uzawa: gap {gap_rel:.3e} after {it} iterations", stopped("budget"))
        x = x - rho * step
        it += 1

    macro, phi = st.unpack(x)
    v = project_zero_mean(cell, LinPerField(macro, st.project(phi)))
    report = SolveReport(it, history, compl, converged,
                         gap_history=gaps, energy_history=energies)
    return st.stress(st.strain_ext(x)) - tau, v, report


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
