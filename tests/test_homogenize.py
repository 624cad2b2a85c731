import dataclasses
import warnings

import numpy as np
import pytest

import cellhom as ch
from cellhom import fem
from cellhom.cell import Lattice, VoxelCell
from cellhom.fem import stencil_of
from cellhom.homogenize import MANDEL_BASIS, _column_tol
from cellhom.microstructures import (
    homogeneous_cell,
    laminate_cell,
    random_spd_tensor,
    random_two_phase_cell,
)
from cellhom.solvers import NotConverged, SolveParams
from test_fem import LOCKSTEP_CELLS, _three_phase_sheared_cell


def test_homogeneous_identity_iso():
    c = ch.iso_tensor(2.0, 0.5)
    res = ch.homogenize(homogeneous_cell(dims=(3, 3, 3), stiffness=c))
    assert np.abs(res.CH - c).max() <= 1e-10 * np.abs(c).max()
    np.testing.assert_allclose(res.DH, ch.invert(c), atol=1e-12)
    # the energy products of the columns agree with the stress averages
    assert res.energy_check.max() <= 1e-14 * np.abs(c).max()


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
    # corrupt one column solve so the symmetry gate sees an assembly bug;
    # fixture d is small enough that its six columns are solved as one stack
    import importlib

    hz = importlib.import_module("cellhom.homogenize")
    original = hz.solve_strain_stack

    def crooked(cell, macros, params=None, **kw):
        solved = original(cell, macros, params, **kw)
        for macro, (u, _) in zip(macros, solved):
            if macro[0] == 1.0:
                u.periodic = u.periodic + 1e-3 * np.sin(
                    np.arange(u.periodic.size).reshape(u.periodic.shape))
        return solved

    monkeypatch.setattr(hz, "solve_strain_stack", crooked)
    with pytest.raises(ch.AsymmetricResult):
        ch.homogenize(cell_d)


#: per-column iteration counts of the lockstep cells whose counts are pinned
LOCKSTEP_COUNTS = {
    "fixture-a": [0, 0, 0, 0, 0, 0],
    "fixture-b": [1, 2, 0, 0, 1, 1],
    "contrast-1000-4x4x4": [117, 118, 117, 118, 118, 118],
}


@pytest.mark.parametrize("name", ["fixture-a", "fixture-b", "contrast-1000-4x4x4",
                                  "random-sheared-3x4x5"])
def test_lockstep_columns_equal_one_column_solves(name):
    # the six columns, solved as one stack, report what six solves of one
    # column report, and CH is bit for bit the tensor those solves assemble
    cell = LOCKSTEP_CELLS[name]()
    assert 3 * cell.n_voxels <= fem.DENSE_REF_MAX_DOF
    result = ch.homogenize(cell)
    params = _column_tol(cell, SolveParams())
    st = stencil_of(cell)
    cols = []
    for a, rep in zip(MANDEL_BASIS, result.per_column_reports):
        u, one = ch.solve_strain_driven(cell, a, params)
        for attr in ("iterations", "residual_history", "energy_history", "stop_reason",
                     "operator_applications", "preconditioner_applications"):
            assert getattr(rep, attr) == getattr(one, attr), attr
        cols.append(st.k_ext(st.pack(u.macro, u.periodic))[:6] / cell.volume)
    raw = np.column_stack(cols)
    assert result.CH.tobytes() == (0.5 * (raw + raw.T)).tobytes()
    if name in LOCKSTEP_COUNTS:
        assert [rep.iterations for rep in result.per_column_reports] == LOCKSTEP_COUNTS[name]


@pytest.mark.parametrize("make, column", [(random_two_phase_cell, 0), (laminate_cell, 1)],
                         ids=["fixture-d", "fixture-b"])
def test_lockstep_raises_the_lowest_failing_column(make, column):
    # with one iteration every column of fixture d fails, and on fixture b
    # only column 1 (which needs two): either way the stacked solve raises
    # what a solve of that column alone raises, as the one-at-a-time loop did
    cell = make()
    params = SolveParams(max_iter=1)
    with pytest.raises(NotConverged) as stacked:
        ch.homogenize(cell, params)
    one_column = _column_tol(cell, params)
    for a in MANDEL_BASIS[:column]:
        ch.solve_strain_driven(cell, a, one_column)
    with pytest.raises(NotConverged) as alone:
        ch.solve_strain_driven(cell, MANDEL_BASIS[column], one_column)
    assert str(stacked.value) == str(alone.value)
    assert dataclasses.asdict(stacked.value.report) == dataclasses.asdict(alone.value.report)


@pytest.mark.parametrize("name", ["fixture-a", "fixture-b"])
def test_lockstep_zero_loads_raise_no_warning(name):
    # fixture a has six zero loads and fixture b two: their columns stop at
    # x = 0 while the others iterate, with no division by their zero norms
    cell = LOCKSTEP_CELLS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ch.homogenize(cell)
    assert all(rep.converged for rep in result.per_column_reports)


def test_stack_past_the_dense_cap_solves_one_column_at_a_time(monkeypatch):
    # past the dense cap a stack is no lockstep: each strain is one
    # solve_strain_driven, and the result is what those solves return
    from cellhom import solvers

    cell = random_two_phase_cell(dims=(8, 8, 8), seed=5)
    assert not stencil_of(cell).uses_ref_dense
    alone = [ch.solve_strain_driven(cell, a) for a in MANDEL_BASIS[:2]]
    seen = []
    original = solvers.solve_strain_driven

    def counted(cell, macro, params=None):
        seen.append(tuple(macro))
        return original(cell, macro, params)

    monkeypatch.setattr(solvers, "solve_strain_driven", counted)
    stacked = solvers.solve_strain_stack(cell, MANDEL_BASIS[:2])
    assert seen == [tuple(a) for a in MANDEL_BASIS[:2]]
    for (u, rep), (u_one, rep_one) in zip(stacked, alone):
        np.testing.assert_array_equal(u.periodic, u_one.periodic)
        assert dataclasses.asdict(rep) == dataclasses.asdict(rep_one)


def _sheared_sweep_cell():
    # anisotropic two-phase cell on a sheared lattice, like the small cells
    # of the benchmark sweep
    rng = np.random.default_rng(43)
    lat = Lattice(np.array([0.9, 0.0, 0.0]), np.array([0.25, 1.1, 0.0]),
                  np.array([-0.3, 0.15, 1.2]))
    phases = [random_spd_tensor(rng, scale=s) for s in (1.0, 3.5)]
    return VoxelCell((5, 3, 6), rng.integers(0, 2, size=(5, 3, 6)), phases, lat)


@pytest.mark.parametrize("make", [laminate_cell, _sheared_sweep_cell],
                         ids=["fixture-b", "sheared-sweep-5x3x6"])
def test_dense_reference_inverse_matches_dft_solves(make, monkeypatch):
    # both cells fall below fem.DENSE_REF_MAX_DOF; a cap of 0 sends every
    # reference solve through the DFT blocks instead
    cell = make()
    assert 3 * cell.n_voxels <= fem.DENSE_REF_MAX_DOF
    dense = ch.homogenize(cell)
    monkeypatch.setattr(fem, "DENSE_REF_MAX_DOF", 0)
    dft = ch.homogenize(make())
    assert ([r.iterations for r in dense.per_column_reports]
            == [r.iterations for r in dft.per_column_reports])
    assert np.linalg.norm(dense.CH - dft.CH) <= 1e-12 * np.linalg.norm(dft.CH)


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


def _swapped(cell):
    # g1 <-> g2 with the grid axes swapped: the same voxels, relisted
    lat = cell.lattice
    n1, n2, n3 = cell.dims
    return VoxelCell((n2, n1, n3), cell.phase_of.transpose(1, 0, 2), cell.phases,
                     Lattice(lat.g2, lat.g1, lat.g3))


#: 90 degree rotation about e3, a signed permutation, so the rotated cell
#: is solved to rounding of the original rather than to iteration error
Q_E3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
#: its action on Mandel vectors (a signed permutation, rounded to exact
#: integers), column k the image of basis tensor k
R_E3 = np.rint(np.column_stack([ch.sym_to_mandel(Q_E3 @ ch.mandel_to_sym(e) @ Q_E3.T)
                                for e in np.eye(6)]))


def _rotated(cell):
    lat = cell.lattice
    return VoxelCell(cell.dims, cell.phase_of, [R_E3 @ c @ R_E3.T for c in cell.phases],
                     Lattice(Q_E3 @ lat.g1, Q_E3 @ lat.g2, Q_E3 @ lat.g3))


@pytest.mark.parametrize("transform, rot", [
    (_translated, np.eye(6)), (_relabelled, np.eye(6)), (_scaled, np.eye(6)),
    (_swapped, np.eye(6)), (_rotated, R_E3)],
    ids=["translation", "relabelling", "scaling", "generator-swap", "rotation-e3"])
def test_ch_invariance(transform, rot):
    # a periodic translation of the phase grid, a renaming of the phases, a
    # uniform scaling of the lattice and a relisting of its generators
    # describe the same material; a rotated cell has the rotated tensor
    cell = _three_phase_sheared_cell()
    expect = rot @ ch.homogenize(cell).CH @ rot.T
    got = ch.homogenize(transform(cell)).CH
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
