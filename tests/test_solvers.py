import numpy as np
import pytest

import cellhom as ch
from cellhom.checks import PROBE_STRAIN
from cellhom.energies import MacroLoad, displacement_potential
from cellhom.fem import LinPerField, quad_norm
from cellhom.mandel import SQRT2
from cellhom.microstructures import homogeneous_cell, random_two_phase_cell
from cellhom.solvers import NotConverged, SolveParams, Stencil, StepTooLarge, _pcg


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


def test_uniqueness_from_random_starts(cell_d):
    a = np.array([0.2, 0.1, -0.3, 0.0, 0.4, -0.1])
    rng = np.random.default_rng(31)
    u1, _ = ch.solve_strain_driven(cell_d, a,
                                   x0=rng.standard_normal(cell_d.dims + (3,)))
    u2, _ = ch.solve_strain_driven(cell_d, a,
                                   x0=rng.standard_normal(cell_d.dims + (3,)))
    e1, e2 = (ch.sym_gradient(cell_d, u) for u in (u1, u2))
    assert quad_norm(cell_d, e1 - e2) <= 1e-8 * quad_norm(cell_d, e1)


def test_not_converged_carries_report(cell_d):
    with pytest.raises(NotConverged) as err:
        ch.solve_strain_driven(cell_d, np.array([1.0, 0, 0, 0, 0, 0]),
                               SolveParams(tol=1e-12, max_iter=2))
    assert err.value.report.iterations == 2
    assert not err.value.report.converged
    assert err.value.report.stop_reason == "budget"
    assert "budget" in str(err.value)


def test_pcg_reports_breakdown():
    _, rep = _pcg(lambda v: -v, lambda v: v, np.ones(4), 1e-9, 10)
    assert rep.stop_reason == "breakdown"
    assert not rep.converged and rep.iterations == 0


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
    # contrast 1000: the AUTO step is capped by the phase bound, so the gap
    # never grows; the budget runs out long before convergence
    cell = random_two_phase_cell((4, 4, 4), seed, (1.0, 1.0), (1000.0, 1000.0), 0.1)
    with pytest.raises(NotConverged) as err:
        ch.solve_stress_uzawa(cell, cell.mean_stiffness @ PROBE_STRAIN,
                              SolveParams(tol=1e-8, max_iter=500))
    rep = err.value.report
    assert rep.stop_reason == "budget"
    assert (np.diff(rep.gap_history) <= 0.0).all()


def test_uzawa_agrees_with_stress_driven(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    sig_uz, v_uz, rep = ch.solve_stress_uzawa(cell_d, s, SolveParams(tol=1e-9))
    st = Stencil(cell_d)
    sig_ref = st.stress(ch.sym_gradient(cell_d, probe_solution_d["w"]))
    assert quad_norm(cell_d, sig_uz - sig_ref) <= 1e-6 * quad_norm(cell_d, sig_ref)
    ok, div_res, mean_res = ch.is_equilibrated(cell_d, sig_uz, s, 1e-9)
    assert ok, (div_res, mean_res)
    # the returned displacement matches the stress-driven one
    e_uz = ch.sym_gradient(cell_d, v_uz)
    e_ref = ch.sym_gradient(cell_d, probe_solution_d["w"])
    assert quad_norm(cell_d, e_uz - e_ref) <= 1e-6 * quad_norm(cell_d, e_ref)


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


def test_uzawa_fixed_step_converges(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    sig, _, rep = ch.solve_stress_uzawa(cell_d, s,
                                        SolveParams(tol=1e-8, uzawa_step=0.8))
    assert rep.converged


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

