import math

import numpy as np
import pytest

import cellhom as ch
from cellhom.energies import MacroLoad
from cellhom.fem import LinPerField, quad_inner, quad_norm
from cellhom.microstructures import homogeneous_cell
from cellhom.solvers import Stencil


def _const_field(cell, m):
    return np.broadcast_to(np.asarray(m, float), cell.dims + (8, 6)).copy()


def test_strain_energy_homogeneous_constant():
    cell = homogeneous_cell()
    a = np.array([1.0, 0, 0, 0, 0, 0])
    u = LinPerField(a, np.zeros(cell.dims + (3,)))
    # C1111 = 3 for lam = mu = 1, unit cell volume
    assert ch.strain_energy(cell, u) == pytest.approx(1.5, rel=1e-14)
    assert ch.strain_energy(cell, LinPerField.zeros(cell)) == 0.0


def test_strain_energy_minimality(cell_d, probe_solution_d):
    a = probe_solution_d["A"]
    u = probe_solution_d["u"]
    competitor = LinPerField(a, np.zeros(cell_d.dims + (3,)))
    assert ch.strain_energy(cell_d, u) <= ch.strain_energy(cell_d, competitor)


def test_displacement_potential_homogeneous():
    cell = homogeneous_cell()
    s = np.array([1.0, 0, 0, 0, 0, 0])
    assert ch.displacement_potential(cell, LinPerField.zeros(cell), s) == 0.0
    d = ch.invert(cell.phases[0])
    w = LinPerField(d @ s, np.zeros(cell.dims + (3,)))
    expect = -0.5 * float(s @ (d @ s))
    assert ch.displacement_potential(cell, w, s) == pytest.approx(expect, rel=1e-14)


def test_displacement_potential_equals_minus_complementary(cell_d, probe_solution_d):
    w, s = probe_solution_d["w"], probe_solution_d["S"]
    st = Stencil(cell_d)
    sig = st.stress(ch.sym_gradient(cell_d, w))
    k_val = ch.displacement_potential(cell_d, w, s)
    assert k_val == pytest.approx(-ch.complementary_energy(cell_d, sig), rel=1e-8)


def test_complementary_energy_values():
    cell = homogeneous_cell()
    assert ch.complementary_energy(cell, _const_field(cell, np.zeros(6))) == 0.0
    s = _const_field(cell, [1.0, 0, 0, 0, 0, 0])
    assert ch.complementary_energy(cell, s) == pytest.approx(0.2, rel=1e-14)


def test_fenchel_young_inequality(cell_d):
    rng = np.random.default_rng(21)
    st = Stencil(cell_d)
    for _ in range(5):
        e = rng.standard_normal(cell_d.dims + (8, 6))
        s = rng.standard_normal(cell_d.dims + (8, 6))
        lhs = quad_inner(cell_d, e, s)
        rhs = ch.complementary_energy(cell_d, s) + ch.elastic_energy(cell_d, e)
        assert lhs <= rhs + 1e-12
        # equality at the constitutive pairing
        s_eq = st.stress(e)
        lhs_eq = quad_inner(cell_d, e, s_eq)
        rhs_eq = ch.complementary_energy(cell_d, s_eq) + ch.elastic_energy(cell_d, e)
        assert abs(lhs_eq - rhs_eq) <= 1e-10 * abs(rhs_eq)


def test_conjugacy_of_energies(cell_d):
    rng = np.random.default_rng(22)
    st = Stencil(cell_d)
    s = rng.standard_normal(cell_d.dims + (8, 6))
    e = st.compliance_stress(s)
    assert ch.elastic_energy(cell_d, e) == pytest.approx(
        ch.complementary_energy(cell_d, s), rel=1e-12)


def test_strain_and_stress_potentials_zero_and_constant():
    cell = homogeneous_cell()
    zero = _const_field(cell, np.zeros(6))
    a = np.array([0.5, -0.25, 1.0, 0.0, 0.3, -0.1])
    assert ch.strain_potential(cell, zero, a) == 0.0
    assert ch.stress_potential(cell, zero, a) == 0.0
    # with e = -A the linear term doubles back: j = -1/2 <C A, A>
    c = cell.phases[0]
    expect = -0.5 * float(a @ (c @ a))
    assert ch.strain_potential(cell, _const_field(cell, -a), a) == pytest.approx(
        expect, rel=1e-14)


def test_strain_space_optima_relations(cell_d, homog_d, probe_solution_d):
    """The two strain-space optima differ by the mean strain; their optimal
    values differ by the explicit constant separating the two objectives."""
    a, s = probe_solution_d["A"], probe_solution_d["S"]
    e_bar, _ = ch.solve_strain_route(cell_d, MacroLoad.strain_driven(a))
    e_tilde, _ = ch.solve_strain_route(cell_d, MacroLoad.stress_driven(s))
    scale = quad_norm(cell_d, e_tilde)
    assert quad_norm(cell_d, e_tilde - (e_bar + a)) <= 1e-8 * scale

    j_val = ch.strain_potential(cell_d, e_bar, a)
    k_val = ch.stress_potential(cell_d, e_tilde, s)
    cmean = cell_d.mean_stiffness
    gap_const = 0.5 * cell_d.volume * float(a @ (cmean @ a)) \
        - cell_d.volume * float(s @ a)
    assert k_val - j_val == pytest.approx(gap_const, rel=1e-9)
    # and the stress-space optimum value is the negated optimal k
    assert k_val == pytest.approx(-0.5 * cell_d.volume * float(s @ a), rel=1e-9)


def test_mean_stress_indicator(cell_d, probe_solution_d):
    s = np.array([1.0, 0.5, -0.25, 0.1, 0.0, -0.3])
    assert ch.mean_stress_indicator(cell_d, _const_field(cell_d, s), s, 1e-12) == 0.0
    assert math.isinf(
        ch.mean_stress_indicator(cell_d, _const_field(cell_d, 2 * s), s, 1e-8))

    st = Stencil(cell_d)
    sig = st.stress(ch.sym_gradient(cell_d, probe_solution_d["w"]))
    assert ch.mean_stress_indicator(cell_d, sig, probe_solution_d["S"], 1e-8) == 0.0


def test_stress_strain_lagrangian(cell_d, probe_solution_d):
    s, u = probe_solution_d["S"], probe_solution_d["u"]
    st = Stencil(cell_d)
    s_const = _const_field(cell_d, s)
    zero = np.zeros(cell_d.dims + (8, 6))
    assert ch.stress_strain_lagrangian(cell_d, s_const, zero, s, 1e-10) == 0.0

    e_u = ch.sym_gradient(cell_d, u)
    sig = st.stress(e_u)
    val = ch.stress_strain_lagrangian(cell_d, sig, e_u, s, 1e-7)
    g_val = ch.complementary_energy(cell_d, sig)
    assert val == pytest.approx(g_val, rel=1e-8)

    # strict concavity in the strain argument
    rng = np.random.default_rng(23)
    for _ in range(10):
        delta = rng.standard_normal(cell_d.dims + (8, 6))
        perturbed = ch.stress_strain_lagrangian(cell_d, sig, e_u + delta, s, 1e-7)
        assert perturbed < val


def test_stress_strain_lagrangian_maximizer_is_compliance(cell_d, probe_solution_d):
    rng = np.random.default_rng(24)
    st = Stencil(cell_d)
    t = rng.standard_normal(6)
    sig = ch.random_equilibrated_stress(cell_d, t, rng)
    sup = ch.stress_strain_lagrangian(cell_d, sig, st.compliance_stress(sig), t, 1e-6)
    g_val = ch.complementary_energy(cell_d, sig)
    assert sup == pytest.approx(g_val, rel=1e-12)


def test_stress_displacement_lagrangian(cell_d, probe_solution_d):
    s, u = probe_solution_d["S"], probe_solution_d["u"]
    st = Stencil(cell_d)
    rng = np.random.default_rng(25)
    sig_rand = rng.standard_normal(cell_d.dims + (8, 6))
    v0 = LinPerField.zeros(cell_d)
    assert ch.stress_displacement_lagrangian(cell_d, sig_rand, v0, s) == pytest.approx(
        ch.complementary_energy(cell_d, sig_rand), rel=1e-12)

    v_rand = LinPerField(rng.standard_normal(6),
                         rng.standard_normal(cell_d.dims + (3,)))
    s_const = _const_field(cell_d, s)
    assert ch.stress_displacement_lagrangian(cell_d, s_const, v_rand, s) == \
        pytest.approx(ch.complementary_energy(cell_d, s_const), rel=1e-10)

    # saddle value and flatness in the displacement at the equilibrated stress
    sig = st.stress(ch.sym_gradient(cell_d, u))
    g_val = ch.complementary_energy(cell_d, sig)
    assert ch.stress_displacement_lagrangian(cell_d, sig, u, s) == pytest.approx(
        g_val, rel=1e-8)
    assert ch.stress_displacement_lagrangian(cell_d, sig, v_rand, s) == pytest.approx(
        g_val, rel=1e-6)

    # away from the admissible set the coupling grows linearly in v
    big_v = LinPerField(10.0 * v_rand.macro, 10.0 * v_rand.periodic)
    grow = abs(ch.stress_displacement_lagrangian(cell_d, sig_rand, big_v, s)
               - ch.complementary_energy(cell_d, sig_rand))
    base = abs(ch.stress_displacement_lagrangian(cell_d, sig_rand, v_rand, s)
               - ch.complementary_energy(cell_d, sig_rand))
    assert grow == pytest.approx(10.0 * base, rel=1e-9)


def test_weak_duality_trials(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    rng = np.random.default_rng(26)
    opt = ch.complementary_energy(
        cell_d, Stencil(cell_d).stress(ch.sym_gradient(cell_d, probe_solution_d["w"])))
    for _ in range(20):
        sig = ch.random_equilibrated_stress(cell_d, s, rng)
        # compatible strain: gradient of a random zero-mean displacement
        v = LinPerField(rng.standard_normal(6),
                        rng.standard_normal(cell_d.dims + (3,)))
        e = ch.sym_gradient(cell_d, v)
        gap = ch.duality_gap_strain(cell_d, sig, e, s, 1e-6)
        assert gap >= -1e-10 * max(abs(opt), 1.0)
        gap_v = ch.duality_gap_displacement(cell_d, sig, v, s, 1e-6)
        assert gap_v >= -1e-10 * max(abs(opt), 1.0)

