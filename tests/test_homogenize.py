import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import Lattice, VoxelCell
from cellhom.fem import LinPerField, stencil_of
from cellhom.homogenize import MANDEL_BASIS
from cellhom.microstructures import homogeneous_cell, random_spd_tensor, random_two_phase_cell
from cellhom.solvers import NotConverged, SolveParams
from test_fem import _three_phase_sheared_cell


def test_homogeneous_identity_iso():
    c = ch.iso_tensor(2.0, 0.5)
    res = ch.homogenize(homogeneous_cell(dims=(3, 3, 3), stiffness=c))
    assert np.abs(res.CH - c).max() <= 1e-10 * np.abs(c).max()
    np.testing.assert_allclose(res.DH, ch.invert(c), atol=1e-12)


def test_homogeneous_cell_needs_no_iteration():
    # the load of a mean strain on a homogeneous cell is a uniform nodal
    # field that the zero-mean projection cancels exactly, because the
    # scatter sums every node's contributions in the same corner order
    res = ch.homogenize(homogeneous_cell())
    assert [r.iterations for r in res.per_column_reports] == [0] * 6
    assert all(r.stop_reason == "converged" for r in res.per_column_reports)


def test_homogeneous_identity_anisotropic_skewed_lattice():
    rng = np.random.default_rng(41)
    c = random_spd_tensor(rng)
    lat = Lattice(np.array([1.0, 0.1, 0.0]), np.array([0.0, 0.8, 0.2]),
                  np.array([0.1, 0.0, 1.2]))
    cell = VoxelCell((2, 3, 2), np.zeros((2, 3, 2), dtype=int), [c], lat)
    res = ch.homogenize(cell)
    assert np.abs(res.CH - c).max() <= 1e-10 * np.abs(c).max()


def test_laminate_oracle(homog_b):
    # axis-1 laminate of lam = 0 phases decouples in Mandel slots:
    # slots mixing direction 1 are harmonic, in-plane slots arithmetic
    harmonic = 2.0 * (2.0 * 1.0 * 2.0 / (1.0 + 2.0))
    arithmetic = 2.0 * 0.5 * (1.0 + 2.0)
    expect = np.diag([harmonic, arithmetic, arithmetic,
                      arithmetic, harmonic, harmonic])
    assert np.abs(homog_b.CH - expect).max() <= 1e-8 * arithmetic


def test_ch_is_spd(homog_d):
    assert np.linalg.eigvalsh(homog_d.CH)[0] > 0.0


def test_ch_dh_inverse_pair(homog_d):
    assert np.linalg.norm(homog_d.CH @ homog_d.DH - np.eye(6)) <= 1e-8


def test_reports_and_energy_check(homog_d):
    assert len(homog_d.per_column_reports) == 6
    assert all(r.converged for r in homog_d.per_column_reports)
    assert homog_d.energy_check.max() <= 1e-8 * np.linalg.norm(homog_d.CH)


def test_energy_product_cross_definition(cell_d, homog_d):
    params = SolveParams(tol=1e-10)
    us = [ch.solve_strain_driven(cell_d, MANDEL_BASIS[i], params)[0]
          for i in range(6)]
    for i in range(6):
        for j in range(6):
            prod = ch.energy_product(cell_d, us[i], us[j])
            assert abs(prod - homog_d.CH[i, j]) <= 1e-8 * np.linalg.norm(homog_d.CH)
    # symmetry of the bilinear form
    p01 = ch.energy_product(cell_d, us[0], us[1])
    p10 = ch.energy_product(cell_d, us[1], us[0])
    assert abs(p01 - p10) <= 1e-12 * max(abs(p01), 1.0)


def test_energy_product_homogeneous():
    cell = homogeneous_cell()
    a = np.array([1.0, 0, 0, 0, 0, 0])
    b = np.array([0.0, 1.0, 0, 0, 0, 0])
    u = LinPerField(a, np.zeros(cell.dims + (3,)))
    v = LinPerField(b, np.zeros(cell.dims + (3,)))
    c = cell.phases[0]
    assert ch.energy_product(cell, u, v) == pytest.approx(float(a @ (c @ b)), rel=1e-14)


@pytest.mark.parametrize("seed", [5, 6, 9])
def test_high_contrast_cells_pass_the_symmetry_gate(seed):
    # at contrast 1000 the column tolerance tightens with the phase-contrast
    # bound, so the asymmetry gate sees assembly, not leftover iteration error
    cell = random_two_phase_cell((6, 6, 6), seed, (1.0, 1.0), (1000.0, 1000.0), 0.1)
    res = ch.homogenize(cell)
    assert res.energy_check.max() <= 1e-10 * np.linalg.norm(res.CH)
    lam, lam_max = stencil_of(cell).phase_bounds
    assert lam_max / lam == pytest.approx(1000.0, rel=1e-12)


def test_linearity_of_cell_solutions(cell_d):
    rng = np.random.default_rng(42)
    a1, a2 = rng.standard_normal((2, 6))
    al, be = 0.6, -1.4
    params = SolveParams(tol=1e-11)
    e1 = ch.sym_gradient(cell_d, ch.solve_strain_driven(cell_d, a1, params)[0])
    e2 = ch.sym_gradient(cell_d, ch.solve_strain_driven(cell_d, a2, params)[0])
    e12 = ch.sym_gradient(
        cell_d, ch.solve_strain_driven(cell_d, al * a1 + be * a2, params)[0])
    err = ch.quad_norm(cell_d, e12 - al * e1 - be * e2)
    assert err <= 1e-8 * ch.quad_norm(cell_d, e12)


def test_dual_consistency(cell_b, cell_d, homog_b, homog_d):
    assert ch.dual_consistency(cell_b, homog_b) <= 1e-9
    assert ch.dual_consistency(cell_d, homog_d) <= 1e-7
    cell = homogeneous_cell()
    res = ch.homogenize(cell)
    assert ch.dual_consistency(cell, res) <= 1e-12


def test_homogenize_uzawa_formulation_agrees(cell_d, homog_d):
    res = ch.homogenize(cell_d, SolveParams(tol=1e-9), formulation="stress-uzawa")
    assert np.abs(res.CH - homog_d.CH).max() <= 1e-6 * np.linalg.norm(homog_d.CH)
    assert all(r.gap_history for r in res.per_column_reports)


def test_homogenize_threads_identical(cell_d, homog_d):
    res = ch.homogenize(cell_d, threads=4)
    np.testing.assert_array_equal(res.CH, homog_d.CH)


def test_homogenize_builds_one_core(core_builds):
    cell = random_two_phase_cell()
    ch.homogenize(cell, threads=2)
    assert len(core_builds) == 1 and core_builds[0] is cell


def test_homogenize_propagates_not_converged(cell_d):
    with pytest.raises(NotConverged):
        ch.homogenize(cell_d, SolveParams(max_iter=1))


def test_homogenize_rejects_asymmetric_assembly(cell_d, monkeypatch):
    # corrupt one column solve so the symmetry gate sees an assembly bug
    import importlib

    hz = importlib.import_module("cellhom.homogenize")
    original = hz.solve_strain_driven

    def crooked(cell, macro, params=None, **kw):
        u, rep = original(cell, macro, params, **kw)
        if macro[0] == 1.0:
            u.periodic = u.periodic + 1e-3 * np.sin(
                np.arange(u.periodic.size).reshape(u.periodic.shape))
        return u, rep

    monkeypatch.setattr(hz, "solve_strain_driven", crooked)
    with pytest.raises(ch.AsymmetricResult):
        ch.homogenize(cell_d)


def test_homogenize_rejects_unknown_formulation(cell_d):
    with pytest.raises(ValueError):
        ch.homogenize(cell_d, formulation="spectral")


def _translated(cell):
    return VoxelCell(cell.dims, np.roll(cell.phase_of, (1, 2, 3), axis=(0, 1, 2)),
                     cell.phases, cell.lattice)


def _relabelled(cell):
    # old phase k becomes new phase perm[k]
    perm = np.array([2, 0, 1])
    return VoxelCell(cell.dims, perm[cell.phase_of],
                     [cell.phases[k] for k in np.argsort(perm)], cell.lattice)


def _scaled(cell):
    lat = cell.lattice
    return VoxelCell(cell.dims, cell.phase_of, cell.phases,
                     Lattice(2.5 * lat.g1, 2.5 * lat.g2, 2.5 * lat.g3))


@pytest.mark.parametrize("transform", [_translated, _relabelled, _scaled],
                         ids=["translation", "relabelling", "scaling"])
def test_ch_invariance(transform):
    # a periodic translation of the phase grid, a renaming of the phases and
    # a uniform scaling of the lattice describe the same material
    cell = _three_phase_sheared_cell()
    expect = ch.homogenize(cell).CH
    got = ch.homogenize(transform(cell)).CH
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
