import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import VoxelCell
from cellhom.checks import (
    PROBE_STRAIN,
    SingularSystem,
    dense_reference_strain,
    equivalence_matrix,
)
from cellhom.fem import LinPerField, quad_norm, stencil_of
from cellhom.mandel import SQRT2, iso_tensor
from cellhom.microstructures import (
    cubic_inclusion_cell,
    homogeneous_cell,
    laminate_cell,
    random_cell,
    random_two_phase_cell,
)
from cellhom.solvers import SolveParams, Stencil
from test_fem import GAP_CELLS, REF_SOLVE_CELLS


def test_hill_mandel_at_converged_solution(cell_d, probe_solution_d):
    u = probe_solution_d["u"]
    st = Stencil(cell_d)
    sig = st.stress(ch.sym_gradient(cell_d, u))
    assert ch.hill_mandel_residual(cell_d, u, sig) <= 10.0 * 1e-9


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("j", [-600, 0, 600])
def test_hill_mandel_is_scale_free_bit_for_bit(cell_d, probe_solution_d, k, j):
    # v 2^k and s 2^j: the products of fields near 2^600 overflow and those
    # near 2^-600 underflow, unless each field is scaled before they are formed
    u = probe_solution_d["u"]
    sig = Stencil(cell_d).stress(ch.sym_gradient(cell_d, u))
    v = LinPerField(np.ldexp(u.macro, k), np.ldexp(u.periodic, k))
    assert ch.hill_mandel_residual(cell_d, v, np.ldexp(sig, j)) \
        == ch.hill_mandel_residual(cell_d, u, sig)


def test_hill_mandel_detects_non_equilibrated_field(cell_d):
    rng = np.random.default_rng(50)
    v = LinPerField(rng.standard_normal(6), rng.standard_normal(cell_d.dims + (3,)))
    # gradient of another random periodic field: generically not divergence-free
    u = LinPerField(np.zeros(6), rng.standard_normal(cell_d.dims + (3,)))
    s = ch.sym_gradient(cell_d, u)
    assert ch.hill_mandel_residual(cell_d, v, s) > 1e-3


def test_duality_gaps_at_homogeneous_optimum():
    cell = homogeneous_cell()
    s = np.array([1.0, -0.5, 0.25, 0.3, 0.1, -0.2])
    w, _ = ch.solve_stress_driven(cell, s)
    st = Stencil(cell)
    sig = st.stress(ch.sym_gradient(cell, w))
    assert abs(ch.duality_gap_displacement(cell, sig, w, s, 1e-8)) <= 1e-12
    e = ch.sym_gradient(cell, w)
    assert abs(ch.duality_gap_strain(cell, sig, e, s, 1e-8)) <= 1e-12


def test_duality_gap_infinite_for_infeasible(cell_d):
    rng = np.random.default_rng(51)
    sig = rng.standard_normal(cell_d.dims + (8, 6))
    assert ch.duality_gap_strain(cell_d, sig, sig, np.ones(6), 1e-8) == np.inf


def test_duality_gap_at_uzawa_output(cell_d, probe_solution_d):
    s = probe_solution_d["S"]
    params = SolveParams(tol=1e-9)
    sig, v, rep = ch.solve_stress_uzawa(cell_d, s, params)
    gap = ch.duality_gap_displacement(cell_d, sig, v, s, 10 * params.tol)
    assert abs(gap) <= params.tol * abs(ch.complementary_energy(cell_d, sig)) * 10


def test_voigt_reuss_homogeneous():
    cell = homogeneous_cell()
    res = ch.homogenize(cell)
    upper, lower = ch.voigt_reuss_margins(cell, res.CH)
    assert upper >= -1e-10 and lower >= -1e-10


def test_voigt_reuss_laminate_strict(cell_b, homog_b):
    # bounds hold; each is exactly tight in the slots the laminate realizes
    upper, lower = ch.voigt_reuss_margins(cell_b, homog_b.CH)
    assert upper >= -1e-10 and lower >= -1e-10
    # arithmetic beats harmonic strictly in the transverse shear slot
    cmean = cell_b.mean_stiffness
    gap_shear = cmean[5, 5] - homog_b.CH[5, 5]
    assert gap_shear == pytest.approx(3.0 - 8.0 / 3.0, rel=1e-8)
    reuss = ch.invert(cell_b.mean_compliance)
    gap_plane = homog_b.CH[1, 1] - reuss[1, 1]
    assert gap_plane == pytest.approx(3.0 - 8.0 / 3.0, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_voigt_reuss_random_cells(seed):
    cell = random_cell(dims=(4, 4, 4), seed=seed)
    res = ch.homogenize(cell)
    upper, lower = ch.voigt_reuss_margins(cell, res.CH)
    floor = -1e-8 * np.linalg.norm(res.CH)
    assert upper >= floor and lower >= floor


def test_dense_reference_homogeneous_single_voxel():
    cell = homogeneous_cell(dims=(1, 1, 1))
    a = np.array([0.5, -0.2, 0.1, 0.3, 0.0, -0.4])
    e = dense_reference_strain(cell, a)
    np.testing.assert_allclose(e, np.broadcast_to(a, cell.dims + (8, 6)), atol=1e-12)


def test_dense_reference_two_phase_bar_harmonic():
    cell = laminate_cell(dims=(2, 1, 1), phase_a=(1.0, 1.0), phase_b=(2.0, 3.0))
    a = np.array([1.0, 0, 0, 0, 0, 0])
    e = dense_reference_strain(cell, a)
    st = Stencil(cell)
    sig = st.stress(e)
    # series coupling: constant axial stress, harmonic mean of lam + 2 mu
    m1, m2 = 1.0 + 2.0 * 1.0, 2.0 + 2.0 * 3.0
    harm = 2.0 * m1 * m2 / (m1 + m2)
    assert ch.cell_average(cell, sig)[0] == pytest.approx(harm, rel=1e-12)
    # per-phase axial strains follow the 1D equilibrium split
    assert e[0, 0, 0, 0, 0] == pytest.approx(harm / m1, rel=1e-10)
    assert e[1, 0, 0, 0, 0] == pytest.approx(harm / m2, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_dense_reference_matches_matrix_free(seed):
    cell = random_cell(dims=(2, 2, 2), seed=seed)
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal(6)
    e_dense = dense_reference_strain(cell, a)
    u, _ = ch.solve_strain_driven(cell, a, SolveParams(tol=1e-12))
    e_mf = ch.sym_gradient(cell, u)
    assert quad_norm(cell, e_mf - e_dense) <= 1e-9 * quad_norm(cell, e_dense)


def test_dense_reference_rejects_large_cells():
    with pytest.raises(ValueError, match="dof"):
        dense_reference_strain(random_two_phase_cell(dims=(5, 5, 5)), np.ones(6))


def test_dense_reference_shear_oracle():
    # transverse shear of a 2-voxel laminate reproduces the harmonic mean
    cell = laminate_cell(dims=(2, 1, 1), phase_a=(0.0, 1.0), phase_b=(0.0, 2.0))
    a12 = 0.5
    a = np.array([0, 0, 0, 0, 0, SQRT2 * a12])
    e = dense_reference_strain(cell, a)
    st = Stencil(cell)
    mean = ch.cell_average(cell, st.stress(e))
    mu_h = 2.0 * 1.0 * 2.0 / 3.0
    assert mean[5] == pytest.approx(2.0 * mu_h * a12 * SQRT2, rel=1e-12)


#: fixture d, the reference-inverse cells of test_fem (dense, DFT-matrix and
#: rfftn inverses), its sheared cell and its contrast-1000 cell
PROJECTION_CELLS = {"fixture-d": random_two_phase_cell, **REF_SOLVE_CELLS, **GAP_CELLS}


@pytest.mark.parametrize("name", sorted(PROJECTION_CELLS))
def test_random_equilibrated_stress_is_feasible(name):
    # one exact projection: admissible to rounding, not to a solver tolerance
    cell = PROJECTION_CELLS[name]()
    rng = np.random.default_rng(52)
    s = rng.standard_normal(6)
    sig = ch.random_equilibrated_stress(cell, s, rng)
    ok, div_res, mean_res = ch.is_equilibrated(cell, sig, s, 1e-7)
    assert ok and div_res <= 1e-14 and mean_res <= 1e-13, (div_res, mean_res)


def test_constitutive_stress_admissible_at_solver_tolerance(cell_d, probe_solution_d):
    st = Stencil(cell_d)
    sig = st.stress(ch.sym_gradient(cell_d, probe_solution_d["w"]))
    ok, _, _ = ch.is_equilibrated(cell_d, sig, probe_solution_d["S"], 10.0 * 1e-9)
    assert ok


def test_average_product_identity_scales_with_admissibility(cell_d):
    # for any displacement and any stress passing the admissibility test at
    # tau, the identity mismatch stays below 10 tau
    rng = np.random.default_rng(53)
    for trial in range(5):
        v = LinPerField(rng.standard_normal(6),
                        rng.standard_normal(cell_d.dims + (3,)))
        sig = ch.random_equilibrated_stress(cell_d, rng.standard_normal(6), rng)
        _, div_res, mean_res = ch.is_equilibrated(
            cell_d, sig, ch.cell_average(cell_d, sig), 1.0)
        tau = max(div_res, mean_res, 1e-14)
        assert ch.hill_mandel_residual(cell_d, v, sig) <= 10.0 * tau


#: fixtures a-d, the sheared cell of test_fem and a contrast-1000 cell
EQUIVALENCE_CELLS = {
    "a": homogeneous_cell,
    "b": laminate_cell,
    "c": cubic_inclusion_cell,
    "d": random_two_phase_cell,
    "random-sheared-3x4x5": GAP_CELLS["random-sheared-3x4x5"],
    "contrast-1000-6x6x6-fraction-0.2": lambda: random_two_phase_cell(
        (6, 6, 6), seed=5, phase_b=(1000.0, 1000.0), fraction=0.2),
}


ARROW_NAMES = (
    "displacement vs zero-mean displacement",
    "mean strain of solution equals datum",
    "fluctuation strain compatibility",
    "stress-driven vs strain-driven strain",
    "constitutive stress admissibility",
    "uzawa stress vs constitutive stress",
    "fluctuation orthogonal to zero-mean admissible stress",
)


def probe_arrows(cell):
    """The equivalence matrix at a run's probe solves: ``PROBE_STRAIN``,
    then the Uzawa solve of its solution's mean stress."""
    u_a, _ = ch.solve_strain_driven(cell, PROBE_STRAIN)
    s = ch.cell_average(cell, stencil_of(cell).stress(ch.sym_gradient(cell, u_a)))
    sig, w, _ = ch.solve_stress_uzawa(cell, s)
    return equivalence_matrix(cell, u_a, sig, w)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CELLS))
def test_equivalence_matrix_passes_on_probe_solution(name):
    arrows = probe_arrows(EQUIVALENCE_CELLS[name]())
    assert tuple(a.name for a in arrows) == ARROW_NAMES
    failing = [(a.name, a.residual) for a in arrows if not a.passed]
    assert not failing, failing


def pattern_cell(ids) -> VoxelCell:
    """2x2x2 cell of phases ISO 1 1 and ISO 4 4, ``ids`` in file order (i
    fastest, then j, then k)."""
    phase = np.array(ids, dtype=np.int64).reshape(2, 2, 2).transpose(2, 1, 0)
    return VoxelCell((2, 2, 2), phase, [iso_tensor(1.0, 1.0), iso_tensor(4.0, 4.0)])


def test_equivalence_matrix_passes_on_every_2x2x2_two_phase_pattern():
    # on 14 patterns (the checkerboard among them) CH is the Voigt bound and
    # the computed fluctuation is rounding noise: the arrows on it must read
    # that noise relative to the total strain, not to itself
    failing = []
    for n in range(256):
        ids = [(n >> b) & 1 for b in range(8)]
        failing += [(ids, a.name, a.residual)
                    for a in probe_arrows(pattern_cell(ids)) if not a.passed]
    assert not failing, failing


def test_singular_system_error_exists():
    assert issubclass(SingularSystem, RuntimeError)
