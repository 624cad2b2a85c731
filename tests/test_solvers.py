import dataclasses

import numpy as np
import pytest

import cellhom as ch
from cellhom.checks import PROBE_STRAIN
from cellhom.energies import MacroLoad, displacement_potential
from cellhom.fem import LinPerField, quad_norm
from cellhom.mandel import SQRT2
from cellhom.microstructures import homogeneous_cell, random_two_phase_cell
from cellhom.solvers import (NotConverged, SolveParams, Stencil, StepTooLarge, _pcg,
                             solve_strain_stack)
from test_fem import GAP_CELLS


def test_params_validation():
    with pytest.raises(ValueError):
        SolveParams(tol=-1.0)
    with pytest.raises(ValueError):
        SolveParams(max_iter=0)
    with pytest.raises(ValueError):
        SolveParams(uzawa_step=0.0)
    with pytest.raises(ValueError, match="tol"):
        SolveParams(tol=np.inf)
    with pytest.raises(ValueError, match="uzawa_step"):
        SolveParams(uzawa_step=np.inf)
    with pytest.raises(ValueError, match="seed"):
        SolveParams(seed=-1)
    # wrong types name the field instead of failing later in numpy or math
    for bad in ("abc", None, True, 1e-9j):
        with pytest.raises(ValueError, match="tol"):
            SolveParams(tol=bad)
    for bad in ("10", 2.5, 10.0, True, None):
        with pytest.raises(ValueError, match="max_iter"):
            SolveParams(max_iter=bad)
    for bad in (1.5, "3", False, None):
        with pytest.raises(ValueError, match="seed"):
            SolveParams(seed=bad)
    for bad in ("0.5", "AUTO", True, None):
        with pytest.raises(ValueError, match="uzawa_step"):
            SolveParams(uzawa_step=bad)
    # numpy scalars of the right kind are accepted
    ok = SolveParams(tol=np.float64(1e-8), max_iter=np.int64(5),
                     uzawa_step=np.float32(0.5), seed=np.uint8(3))
    assert (ok.tol, ok.max_iter, ok.uzawa_step, ok.seed) == (1e-8, 5, 0.5, 3)
    assert [type(v) for v in (ok.tol, ok.max_iter, ok.uzawa_step, ok.seed)] == [
        float, int, float, int]


def test_strain_driven_homogeneous_is_trivial():
    cell = homogeneous_cell()
    a = np.array([0.3, -0.2, 0.1, 0.5, 0.0, -0.4])
    u, rep = ch.solve_strain_driven(cell, a)
    assert np.abs(u.periodic).max() <= 1e-12
    assert rep.iterations <= 2
    assert rep.converged and rep.residual_history[-1] <= 1e-9


def test_strain_driven_zero_load_is_exact(cell_d):
    u, rep = ch.solve_strain_driven(cell_d, np.zeros(6))
    assert np.abs(u.periodic).max() == 0.0
    assert rep.iterations == 0 and rep.converged


def test_laminate_shear_matches_harmonic_mean(cell_b):
    # transverse shear of an axis-1 laminate of mu = 1 and mu = 2
    a12 = 0.7
    a = np.array([0.0, 0, 0, 0, 0, SQRT2 * a12])
    u, _ = ch.solve_strain_driven(cell_b, a, SolveParams(tol=1e-11))
    st = Stencil(cell_b)
    sig = st.stress(ch.sym_gradient(cell_b, u))
    mean = ch.cell_average(cell_b, sig)
    mu_h = 2.0 * 1.0 * 2.0 / (1.0 + 2.0)
    assert mean[5] == pytest.approx(2.0 * mu_h * a12 * SQRT2, rel=1e-9)
    # fluctuation varies along the layering axis only
    span = np.ptp(u.periodic, axis=1).max() + np.ptp(u.periodic, axis=2).max()
    assert span <= 1e-9


def test_strain_driven_report_contract(cell_d, probe_solution_d):
    rep = probe_solution_d["rep_u"]
    assert rep.residual_history
    assert rep.converged and rep.residual_history[-1] <= 1e-9
    assert rep.final_energy == pytest.approx(
        ch.strain_energy(cell_d, probe_solution_d["u"]), rel=1e-12)


def test_pcg_energy_monotone(cell_d, probe_solution_d):
    for rep in (probe_solution_d["rep_u"], probe_solution_d["rep_w"]):
        diffs = np.diff(rep.energy_history)
        assert (diffs <= 1e-12).all()


def test_pcg_energy_recurrence_matches_iterates():
    # a dense SPD system with a Jacobi preconditioner: the energies read off
    # the CG scalars equal 1/2 x.Ax - b.x + offset at every iterate
    rng = np.random.default_rng(5)
    g = rng.standard_normal((12, 12))
    a = g @ g.T + 12.0 * np.diag(rng.uniform(0.5, 4.0, 12))
    b = rng.standard_normal(12)
    d = np.diag(a).copy()
    offset = 0.75

    def run(max_iter):
        x, (rep,) = _pcg(lambda v: v @ a, lambda v: v / d, b[None], 1e-14, max_iter,
                         energy_offsets=[offset])
        return x[0], rep

    x, rep = run(100)
    assert rep.converged
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-10)
    assert len(rep.energy_history) == rep.iterations + 1
    scale = abs(rep.energy_history[-1])
    for k, e in enumerate(rep.energy_history):
        xk, _ = run(k)
        exact = 0.5 * xk @ a @ xk - b @ xk + offset
        assert abs(e - exact) <= 1e-12 * scale


def test_not_converged_carries_report(cell_d):
    with pytest.raises(NotConverged) as err:
        ch.solve_strain_driven(cell_d, np.array([1.0, 0, 0, 0, 0, 0]),
                               SolveParams(tol=1e-12, max_iter=2))
    assert err.value.report.iterations == 2
    assert not err.value.report.converged
    assert err.value.report.stop_reason == "budget"
    assert "budget" in str(err.value)


def test_pcg_reports_breakdown():
    _, (rep,) = _pcg(lambda v: -v, lambda v: v, np.ones((1, 4)), 1e-9, 10)
    assert rep.stop_reason == "breakdown"
    assert not rep.converged and rep.iterations == 0


def test_pcg_hook_sees_every_iterate_at_no_extra_preconditioner_cost():
    # without a hook a converged solve spends no m_inv on its last residual;
    # a hook gets the z of every iterate, the last one included
    rng = np.random.default_rng(8)
    g = rng.standard_normal((10, 10))
    a = g @ g.T + 10.0 * np.eye(10)
    b = rng.standard_normal(10)
    d = np.diag(a).copy()
    calls = []

    def m_inv(v):
        calls.append(v.copy())
        return v / d

    x, (rep,) = _pcg(lambda v: v @ a, m_inv, b[None], 1e-12, 100)
    assert rep.converged and len(calls) == rep.iterations
    calls.clear()
    seen = []

    def hook(xk, r, z, energy):
        np.testing.assert_array_equal(z, r / d)
        seen.append(energy)
        return float(np.linalg.norm(r)) / float(np.linalg.norm(b)) <= 1e-12

    x_hook, (rep_hook,) = _pcg(lambda v: v @ a, m_inv, b[None], 1e-12, 100, hook=hook)
    assert rep_hook.converged and rep_hook.iterations == rep.iterations
    assert len(calls) == rep.iterations + 1 and seen == rep_hook.energy_history
    np.testing.assert_array_equal(x_hook, x)


def _column_system(i, rng):
    g = rng.standard_normal((10, 10))
    a = g @ g.T + (10.0 + 5.0 * i) * np.eye(10)
    return (-a if i == 3 else a), np.diag(a).copy()  # column 3 is not positive


@pytest.mark.parametrize("max_iter", [100, 4])
def test_pcg_columns_in_lockstep_equal_solves_of_one(max_iter):
    # four columns share each call: column 2 has a zero load, column 3 breaks
    # down on its first step, and at max_iter 4 the others spend the budget;
    # each column's bits and report are those of a solve of that column alone
    rng = np.random.default_rng(12)
    mats, diags = zip(*(_column_system(i, rng) for i in range(4)))
    b = rng.standard_normal((4, 10))
    b[2] = 0.0
    offsets = [0.5, -1.0, 2.0, 0.25]

    def solve(cols):
        def op(v):
            return np.stack([vi @ mats[c] for vi, c in zip(v, cols)])

        d = np.stack([diags[c] for c in cols])
        return _pcg(op, lambda v: v / d, b[cols], 1e-12, max_iter,
                    energy_offsets=[offsets[c] for c in cols])

    x, reports = solve([0, 1, 2, 3])
    assert [rep.stop_reason for rep in reports] == (
        ["converged", "converged", "converged", "breakdown"] if max_iter == 100
        else ["budget", "budget", "converged", "breakdown"])
    for c in range(4):
        x_one, (rep_one,) = solve([c])
        np.testing.assert_array_equal(x[c], x_one[0])
        assert dataclasses.asdict(reports[c]) == dataclasses.asdict(rep_one)
        assert type(reports[c].converged) is bool


def test_pcg_hook_takes_one_column():
    with pytest.raises(ValueError):
        _pcg(lambda v: v, lambda v: v, np.ones((2, 3)), 1e-9, 10, hook=lambda *a: True)


def test_stress_driven_homogeneous():
    cell = homogeneous_cell()
    s = np.array([1.0, -0.5, 0.25, 0.3, 0.1, -0.2])
    w, rep = ch.solve_stress_driven(cell, s)
    d = ch.invert(cell.phases[0])
    np.testing.assert_allclose(w.macro, d @ s, atol=1e-12)
    assert np.ptp(w.periodic, axis=(0, 1, 2)).max() <= 1e-12
    assert rep.iterations <= 2


def test_stress_driven_zero_load():
    cell = homogeneous_cell()
    w, rep = ch.solve_stress_driven(cell, np.zeros(6))
    assert np.abs(w.macro).max() == 0.0 and np.abs(w.periodic).max() == 0.0
    assert rep.converged


def test_stress_driven_exact_mean_constraint(cell_d, probe_solution_d):
    w, s = probe_solution_d["w"], probe_solution_d["S"]
    st = Stencil(cell_d)
    mean = ch.cell_average(cell_d, st.stress(ch.sym_gradient(cell_d, w)))
    assert np.abs(mean - s).max() <= 1e-13 * np.abs(s).max()


def test_stress_driven_report_contract(cell_d, probe_solution_d):
    rep = probe_solution_d["rep_w"]
    assert rep.residual_history
    assert rep.converged and rep.residual_history[-1] <= 1e-9
    assert rep.final_energy == pytest.approx(
        displacement_potential(cell_d, probe_solution_d["w"], probe_solution_d["S"]),
        rel=1e-12)


def test_stress_strain_roundtrip(cell_d, probe_solution_d):
    w = probe_solution_d["w"]
    e_w = ch.sym_gradient(cell_d, w)
    a_round = ch.cell_average(cell_d, e_w)
    u, _ = ch.solve_strain_driven(cell_d, a_round)
    e_u = ch.sym_gradient(cell_d, u)
    assert quad_norm(cell_d, e_u - e_w) <= 1e-8 * quad_norm(cell_d, e_w)


def test_uzawa_homogeneous_converges_immediately():
    cell = homogeneous_cell()
    s = np.array([2.0, -1.0, 0.5, 0.3, -0.2, 0.1])
    sig, v, rep = ch.solve_stress_uzawa(cell, s, SolveParams(tol=1e-10))
    assert np.abs(v.periodic - v.periodic.mean(axis=(0, 1, 2))).max() <= 1e-10
    assert np.abs(sig - s).max() <= 1e-9
    assert rep.iterations <= 3
    assert min(rep.gap_history) <= 1e-10


def test_uzawa_zero_load():
    sig, v, rep = ch.solve_stress_uzawa(homogeneous_cell(), np.zeros(6))
    assert np.abs(sig).max() == 0.0 and rep.converged


@pytest.mark.parametrize("fixture_name", ["b", "d"])
def test_uzawa_gap_monotone(fixture_name, cell_b, cell_d, homog_b, homog_d):
    cell = {"b": cell_b, "d": cell_d}[fixture_name]
    res = {"b": homog_b, "d": homog_d}[fixture_name]
    s = res.CH @ np.array([0.3, -0.1, 0.2, 0.25, -0.15, 0.1])
    _, _, rep = ch.solve_stress_uzawa(cell, s, SolveParams(tol=1e-8))
    gaps = np.array(rep.gap_history)
    assert rep.iterations <= 2000
    assert (np.diff(gaps[1:]) <= 1e-12).all()


@pytest.mark.parametrize("fixture_name", ["b", "d"])
def test_uzawa_gap_is_exact(fixture_name, cell_b, cell_d, homog_b, homog_d):
    # the gap is the energy of the correction stress, not a difference of
    # energies: positive, nonincreasing and far below the energies at the end
    cell = {"b": cell_b, "d": cell_d}[fixture_name]
    res = {"b": homog_b, "d": homog_d}[fixture_name]
    _, _, rep = ch.solve_stress_uzawa(cell, res.CH @ PROBE_STRAIN, SolveParams(tol=1e-12))
    gaps = np.array(rep.gap_history)
    assert (gaps > 0.0).all()
    assert (gaps[2:] <= gaps[1:-1] * (1.0 + 1e-12)).all()
    assert gaps[-1] <= 1e-20 * rep.final_energy


@pytest.mark.parametrize("seed", [5, 9])
def test_uzawa_auto_step_does_not_overshoot(seed):
    # contrast 1000: the AUTO route takes CG's steps and converges well
    # inside the budget, and the recorded (best certified) gap never grows
    cell = random_two_phase_cell((4, 4, 4), seed, (1.0, 1.0), (1000.0, 1000.0), 0.1)
    _, _, rep = ch.solve_stress_uzawa(cell, cell.mean_stiffness @ PROBE_STRAIN,
                                      SolveParams(tol=1e-8, max_iter=500))
    assert rep.converged and rep.iterations <= 200
    gaps = np.array(rep.gap_history)
    assert (gaps > 0.0).all()
    assert (np.diff(gaps) <= 0.0).all()


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("name", ["a", "b", "c", "d", "random-sheared-3x4x5",
                                  "contrast-1000-6x6x6"])
def test_uzawa_agrees_with_stress_driven(name, tol, request):
    # fixtures a-d, then the sheared cell of FULL phases and the contrast-1000
    # cell of test_fem
    cell = request.getfixturevalue(f"cell_{name}") if len(name) == 1 else GAP_CELLS[name]()
    s = cell.mean_stiffness @ PROBE_STRAIN
    params = SolveParams(tol=tol)
    w, rep_w = ch.solve_stress_driven(cell, s, params)
    sig_uz, w_uz, rep = ch.solve_stress_uzawa(cell, s, params)
    e_ref = ch.sym_gradient(cell, w)
    sig_ref = Stencil(cell).stress(e_ref)
    assert quad_norm(cell, sig_uz - sig_ref) <= 1e-6 * quad_norm(cell, sig_ref)
    ok, div_res, mean_res = ch.is_equilibrated(cell, sig_uz, s, tol)
    assert ok, (div_res, mean_res)
    # both walk the same Krylov iterates, and the Uzawa route returns the
    # displacement readout of the stress-driven solve at the last one
    assert rep.iterations == rep_w.iterations
    e_uz = ch.sym_gradient(cell, w_uz)
    assert quad_norm(cell, e_uz - e_ref) <= 1e-14 * quad_norm(cell, e_ref)


def test_uzawa_saddle_inequalities(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    sig, v, _ = ch.solve_stress_uzawa(cell_d, s, SolveParams(tol=1e-10))
    rng = np.random.default_rng(32)
    g_opt = ch.complementary_energy(cell_d, sig)
    # primal minimality within the admissible set
    for _ in range(10):
        delta_s = ch.random_equilibrated_stress(cell_d, np.zeros(6), rng)
        assert ch.complementary_energy(cell_d, sig + delta_s) >= g_opt - 1e-9 * g_opt
    # the inner stress minimum at the dual multiplier (-v) is the solution
    minus_v = LinPerField(-v.macro, -v.periodic)
    for _ in range(10):
        sig_rand = rng.standard_normal(cell_d.dims + (8, 6))
        assert ch.stress_displacement_lagrangian(cell_d, sig_rand, minus_v, s) >= \
            ch.stress_displacement_lagrangian(cell_d, sig, minus_v, s) - 1e-9 * g_opt


def test_uzawa_step_too_large(cell_d):
    s = np.array([1.0, 0, 0, 0, 0, 0])
    with pytest.raises(StepTooLarge) as err:
        ch.solve_stress_uzawa(cell_d, s, SolveParams(uzawa_step=50.0))
    assert err.value.report.gap_history
    assert isinstance(err.value, NotConverged)


def test_uzawa_fixed_step_converges(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    sig, _, rep = ch.solve_stress_uzawa(cell_d, s,
                                        SolveParams(tol=1e-8, uzawa_step=0.8))
    assert rep.converged


def test_application_counts_are_builtin_ints_on_every_route(cell_d, probe_solution_d):
    # report.json goes through json.dumps, which rejects numpy integers; each
    # route's counts exceed its iteration count by its set-up and final
    # applications: (operator, preconditioner)
    s = probe_solution_d["S"]
    auto = ch.solve_stress_uzawa(cell_d, s, SolveParams(tol=1e-8))[2]
    fixed = ch.solve_stress_uzawa(cell_d, s, SolveParams(tol=1e-8, uzawa_step=0.8))[2]
    with pytest.raises(StepTooLarge) as err:
        ch.solve_stress_uzawa(cell_d, s, SolveParams(uzawa_step=50.0))
    # a column of a lockstep homogenize counts as a strain-driven solve
    lockstep = ch.homogenize(cell_d).per_column_reports[1]
    routes = {
        "strain-driven": (probe_solution_d["rep_u"], 1, 0),
        "strain-driven-lockstep": (lockstep, 1, 0),
        "stress-driven": (probe_solution_d["rep_w"], 2, 0),
        "uzawa-auto": (auto, 0, 1),
        "uzawa-fixed-step": (fixed, 1, 1),
        "uzawa-step-too-large": (err.value.report, 1, 1),
    }
    for name, (rep, extra_op, extra_prec) in routes.items():
        counts = (rep.iterations, rep.operator_applications, rep.preconditioner_applications)
        assert all(type(c) is int for c in counts), name
        assert type(rep.converged) is bool, name
        assert counts[1:] == (rep.iterations + extra_op, rep.iterations + extra_prec), name


def test_strain_route_strain_driven_homogeneous():
    cell = homogeneous_cell()
    e, rep = ch.solve_strain_route(
        cell, MacroLoad.strain_driven(np.array([1.0, 0, 0, 0, 0.2, 0])))
    assert np.abs(e).max() <= 1e-12
    assert rep.converged


def test_strain_route_pairing(cell_d, probe_solution_d):
    a, s = probe_solution_d["A"], probe_solution_d["S"]
    e_bar, _ = ch.solve_strain_route(cell_d, MacroLoad.strain_driven(a))
    e_tilde, _ = ch.solve_strain_route(cell_d, MacroLoad.stress_driven(s))
    assert np.abs(ch.cell_average(cell_d, e_bar)).max() <= 1e-12
    np.testing.assert_allclose(ch.cell_average(cell_d, e_tilde), a, atol=1e-7)
    assert quad_norm(cell_d, e_tilde - e_bar - a) <= 1e-8 * quad_norm(cell_d, e_tilde)



# ---------------------------------------------------------------------------
# non-finite and overflowing loads (pytest turns any NumPy warning into an
# error here, so each of these also checks that none is emitted)

#: a cell whose unit-strain loads are finite but whose squared norm overflows
HUGE_CELL_TEXT = "CELLVOX 1\n2 2 2 2\nISO 1e300 1e300\nISO 2e300 1e300\n0 1 0 1 1 0 1 0\n"
HUGE = [1e308] * 6

ROUTES = {
    "strain-driven": lambda cell, v, p=None: ch.solve_strain_driven(cell, v, p),
    "strain-stack": lambda cell, v, p=None: solve_strain_stack(cell, [v, v], p)[0],
    "stress-driven": lambda cell, v, p=None: ch.solve_stress_driven(cell, v, p),
    "uzawa": lambda cell, v, p=None: ch.solve_stress_uzawa(cell, v, p),
    "uzawa-fixed": lambda cell, v, p=None: ch.solve_stress_uzawa(
        cell, v, SolveParams(uzawa_step=0.8)),
    "strain-route": lambda cell, v, p=None: ch.solve_strain_route(
        cell, MacroLoad.stress_driven(v), p),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("bad", [[np.nan] * 6, [1.0, 0, 0, 0, 0, np.inf], [1.0] * 5,
                                 [[1.0] * 6]])
def test_every_route_rejects_a_load_that_is_not_six_finite_reals(cell_d, route, bad):
    with pytest.raises(ValueError, match="macro (strain|stress)s? must be .*6 finite reals"):
        ROUTES[route](cell_d, bad)


def test_a_load_that_is_not_numbers_is_named_too(cell_d):
    with pytest.raises(ValueError, match="macro strain must be 6 finite reals, got 'abc'"):
        ch.solve_strain_driven(cell_d, "abc")
    with pytest.raises(ValueError, match="macro stress must be 6 finite reals"):
        ch.solve_stress_uzawa(cell_d, None)
    for bad in ([1.0] * 6, [[1.0] * 6, [np.nan] * 6]):
        with pytest.raises(ValueError, match="macro strains must be rows of 6 finite reals"):
            solve_strain_stack(cell_d, bad)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_an_overflowing_load_is_a_breakdown_at_once(cell_d, route):
    # the load is finite, its right-hand side is not: each route stops
    # before its first step, unconverged, and says why
    with pytest.raises(NotConverged, match="non-finite right-hand side") as err:
        ROUTES[route](cell_d, HUGE)
    rep = err.value.report
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 0


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("load", [1e-200, 2.0 ** -600])
def test_an_underflowing_load_is_a_breakdown_at_once(cell_d, route, load):
    # a nonzero load whose squared norm is below the normal range has no
    # relative residual: each route stops before its first step, unconverged,
    # and names the underflow, where it used to return a zero load's solution
    with pytest.raises(NotConverged, match="right-hand side underflows") as err:
        ROUTES[route](cell_d, [load] * 6)
    rep = err.value.report
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 0 and rep.preconditioner_applications == 0


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_small_and_zero_loads_keep_their_counts(cell_d, route):
    # a load of 2^-500 still has a normal squared norm: it takes the unit
    # load's iterations; an exactly zero load is solved by none
    def counts(load):
        rep = ROUTES[route](cell_d, load)[-1]
        return rep.iterations, rep.stop_reason

    assert counts(np.ldexp(PROBE_A_STRESS, -500)) == counts(PROBE_A_STRESS)
    assert counts(np.zeros(6)) == (0, "converged")


def test_a_cell_out_of_the_float_range_breaks_down_in_homogenize():
    cell = ch.parse_voxel_text(HUGE_CELL_TEXT)
    with pytest.raises(NotConverged, match="non-finite right-hand side") as err:
        ch.homogenize(cell)
    assert err.value.report.stop_reason == "breakdown"
    assert err.value.report.iterations == 0


def test_pcg_nan_residual_is_a_breakdown_not_a_spent_budget():
    # the operator turns NaN on its third call: the column stops there, long
    # before max_iter, and reports a breakdown
    rng = np.random.default_rng(40)
    g = rng.standard_normal((10, 10))
    a = g @ g.T + 10.0 * np.eye(10)
    calls = []

    def op(v):
        calls.append(1)
        return v @ a if len(calls) < 3 else np.full_like(v, np.nan)

    _, (rep,) = _pcg(op, lambda v: v, rng.standard_normal((1, 10)), 1e-12, 100)
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 3 and np.isnan(rep.residual_history[-1])
    assert rep.operator_applications == rep.preconditioner_applications == 3


def test_pcg_hook_returning_none_stops_unconverged():
    seen = []

    def hook(x, r, z, energy):
        seen.append(energy)
        return None if len(seen) == 2 else False

    g = np.random.default_rng(41).standard_normal((10, 10))
    a = g @ g.T + 10.0 * np.eye(10)
    _, (rep,) = _pcg(lambda v: v @ a, lambda v: v, np.ones((1, 10)), 1e-9, 5, hook=hook)
    assert rep.stop_reason == "breakdown" and not rep.converged
    assert rep.iterations == 1 and rep.preconditioner_applications == 2


@pytest.mark.parametrize("step", ["auto", 0.8])
def test_uzawa_non_finite_gap_is_a_breakdown_not_convergence(cell_d, monkeypatch, step):
    # an infinite gap used to pass the stop test as inf <= tol * inf
    real, calls = Stencil.correction_gap, []

    def gap(self, m, psi):
        calls.append(1)
        return np.inf if len(calls) == 3 else real(self, m, psi)

    monkeypatch.setattr(Stencil, "correction_gap", gap)
    with pytest.raises(NotConverged, match="non-finite gap") as err:
        ch.solve_stress_uzawa(cell_d, PROBE_A_STRESS, SolveParams(uzawa_step=step))
    rep = err.value.report
    assert rep.stop_reason == "breakdown" and rep.iterations == 2
    assert rep.gap_history[-1] == np.inf


PROBE_A_STRESS = np.array([1.0, 0.5, -0.2, 0.1, 0.0, 0.3])
