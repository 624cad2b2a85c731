import dataclasses
import warnings

import numpy as np
import pytest

import cellhom as ch
from cellhom import fem
from cellhom.cell import Lattice, VoxelCell
from cellhom.fem import stencil_of
from cellhom.homogenize import CERTIFICATE_LIMIT, ENERGY_TOL_CEIL, MANDEL_BASIS
from cellhom.microstructures import (
    cubic_inclusion_cell,
    homogeneous_cell,
    laminate_cell,
    random_cell,
    random_spd_tensor,
    random_two_phase_cell,
)
from cellhom.solvers import NotConverged, SolveParams, solve_strain_stack
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


def _energy_columns(cell, params, **stop):
    """The six packed column solutions of ``homogenize``'s solve and their
    energy matrix ``G_ij = x_j . Kx_i / V``."""
    st = stencil_of(cell)
    xs = [st.pack(u.macro, u.periodic)
          for u, _ in solve_strain_stack(cell, MANDEL_BASIS, params, **stop)]
    return xs, np.array([[xj @ kx for xj in xs] for kx in map(st.k_ext, xs)]) / cell.volume


def _reference_ch(cell):
    """CH read off the energy matrix of columns solved to the residual 1e-14."""
    g = _energy_columns(cell, SolveParams(tol=1e-14))[1]
    return 0.5 * (g + g.T)


@pytest.mark.parametrize("seed", [5, 6, 9])
def test_high_contrast_cells_pass_the_symmetry_gate(seed):
    # at contrast 1000 each column stops on its Gauss-Radau bound: the
    # certificate from its own residual keeps 10x headroom on its gate, CH
    # is within 1e-12 of columns solved to the residual 1e-14, and the energy
    # check, first order in the error by design (about 1e-8 |CH| here),
    # stays within its certified limit
    cell = random_two_phase_cell((6, 6, 6), seed, (1.0, 1.0), (1000.0, 1000.0), 0.1)
    res = ch.homogenize(cell)
    norm = np.linalg.norm(res.CH)
    assert max(r.error_bound for r in res.per_column_reports) <= 0.1 * CERTIFICATE_LIMIT * norm
    assert (res.energy_check <= res.energy_check_limit).all()
    ref = _reference_ch(cell)
    assert np.linalg.norm(res.CH - ref) <= 1e-12 * np.linalg.norm(ref)
    lam, lam_max = stencil_of(cell).phase_bounds
    assert lam_max / lam == pytest.approx(1000.0, rel=1e-12)


def _admissible_lower_bound(cell, xs):
    """``CH_lo = S H^-1 S^T`` of the stresses ``C e(x_i)`` made admissible by
    the correction stress of their residual, with ``S`` their means and
    ``H_ij = integral D sigma_i . sigma_j / V`` (the complementary energy
    principle)."""
    st = stencil_of(cell)
    sigmas = []
    for x in xs:
        sig = st.stress(st.strain_ext(x))
        sigmas.append(sig + st.correction(np.zeros(6), st.ref_solve(st.divadj(sig))))
    means = np.column_stack([ch.cell_average(cell, sig) for sig in sigmas])
    h = np.array([[np.vdot(st.compliance_stress(si), st.w * sj) for sj in sigmas]
                  for si in sigmas]) / cell.volume
    return means @ np.linalg.solve(h, means.T)


@pytest.mark.parametrize("make", [laminate_cell, cubic_inclusion_cell, random_two_phase_cell,
                                  lambda: random_two_phase_cell((6, 6, 6), 5, (1.0, 1.0),
                                                                (1000.0, 1000.0), 0.1)],
                         ids=["fixture-b", "fixture-c", "fixture-d", "contrast-1000-6x6x6"])
def test_admissible_stresses_bracket_ch(make):
    # the paper's bracket CH_lo <= CH <= G (Loewner order) at the certified
    # stop, to rounding, with CH taken from columns solved to the residual
    # 1e-14, and a width of at most 1e-12 |CH|; without the correction the
    # stresses are not admissible and the lower side fails by 4e-10 to 5e-8
    # |CH| on fixtures c, d and the contrast cell
    cell = make()
    res = ch.homogenize(cell)
    xs = _energy_columns(cell, SolveParams(), energy_tol=ENERGY_TOL_CEIL)[0]
    low = _admissible_lower_bound(cell, xs)
    ref = _reference_ch(cell)
    norm = np.linalg.norm(ref)
    for upper, lower in ((ref, low), (res.CH, ref)):
        d = upper - lower
        assert np.linalg.eigvalsh(0.5 * (d + d.T))[0] >= -1e-14 * norm
    assert np.linalg.norm(res.CH - low) <= 1e-12 * norm


#: cells of the corruption sweep: one under the dense cap, one at it, one past it
SWEEP_CELLS = {
    "fixture-c": cubic_inclusion_cell,
    "fixture-d": random_two_phase_cell,
    "two-phase-8x8x8": lambda: random_two_phase_cell((8, 8, 8), 7),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CELLS))
def test_certificate_lets_no_corruption_move_ch(name, monkeypatch):
    # the perturbation of test_homogenize_rejects_asymmetric_assembly, at
    # amplitudes 1e-3 to 1e-10 on column 0 or 3: the certificate rejects the
    # large ones, and one that it lets through moves CH by at most 1e-11 |CH|
    # (the mean-stress asymmetry gate it replaces let shifts of 4.7e-10 through)
    import copy
    import importlib

    hz = importlib.import_module("cellhom.homogenize")
    cell = SWEEP_CELLS[name]()
    solved = hz.solve_strain_stack(cell, MANDEL_BASIS, SolveParams(), energy_tol=ENERGY_TOL_CEIL)
    clean = ch.homogenize(cell).CH
    for column in (0, 3):
        for amplitude in 10.0 ** -np.arange(3, 11):
            u = copy.copy(solved[column][0])
            u.periodic = u.periodic + amplitude * np.sin(
                np.arange(u.periodic.size).reshape(u.periodic.shape))
            crooked = solved[:column] + [(u, solved[column][1])] + solved[column + 1:]
            monkeypatch.setattr(hz, "solve_strain_stack", lambda *a, **kw: crooked)
            try:
                shift = np.linalg.norm(ch.homogenize(cell).CH - clean)
            except ch.AsymmetricResult:
                continue
            assert amplitude < 1e-5
            assert shift <= 1e-11 * np.linalg.norm(clean)


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
    "fixture-b": [1, 0, 0, 0, 1, 1],
    "contrast-1000-4x4x4": [101, 98, 100, 101, 104, 101],
}


def _certified_column(cell, a, params):
    """The one-column solve of a homogenize column, stopped on its
    Gauss-Radau bound as homogenize stops it."""
    return ch.solve_strain_driven(cell, a, params,
                                  energy_tol=min(params.tol, ENERGY_TOL_CEIL))


@pytest.mark.parametrize("name", ["fixture-a", "fixture-b", "contrast-1000-4x4x4",
                                  "random-sheared-3x4x5"])
def test_lockstep_columns_equal_one_column_solves(name):
    # the six columns, solved as one stack, report what six certified solves
    # of one column report, and CH is bit for bit the energy matrix those
    # solves assemble
    cell = LOCKSTEP_CELLS[name]()
    assert 3 * cell.n_voxels <= fem.DENSE_REF_MAX_DOF
    result = ch.homogenize(cell)
    st = stencil_of(cell)
    xs = []
    for a, rep in zip(MANDEL_BASIS, result.per_column_reports):
        u, one = _certified_column(cell, a, SolveParams())
        for attr in ("iterations", "residual_history", "energy_history", "bound_history",
                     "stop_reason", "operator_applications", "preconditioner_applications"):
            assert getattr(rep, attr) == getattr(one, attr), attr
        xs.append(st.pack(u.macro, u.periodic))
    g = np.array([[xj @ kx for xj in xs] for kx in map(st.k_ext, xs)]) / cell.volume
    assert result.CH.tobytes() == (0.5 * (g + g.T)).tobytes()
    if name in LOCKSTEP_COUNTS:
        assert [rep.iterations for rep in result.per_column_reports] == LOCKSTEP_COUNTS[name]


@pytest.mark.parametrize("make, max_iter, column", [
    (random_two_phase_cell, 1, 0), (LOCKSTEP_CELLS["random-sheared-3x4x5"], 8, 1)],
    ids=["fixture-d", "random-sheared-3x4x5"])
def test_lockstep_raises_the_lowest_failing_column(make, max_iter, column):
    # with one iteration every column of fixture d fails, and with eight on
    # the sheared cell only the columns after column 0 (which needs eight):
    # either way the stacked solve raises what a certified solve of that
    # column alone raises, as the one-at-a-time loop did
    cell = make()
    params = SolveParams(max_iter=max_iter)
    with pytest.raises(NotConverged) as stacked:
        ch.homogenize(cell, params)
    for a in MANDEL_BASIS[:column]:
        _certified_column(cell, a, params)
    with pytest.raises(NotConverged) as alone:
        _certified_column(cell, MANDEL_BASIS[column], params)
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
    # solve_strain_driven, with the stack's stop (the residual test or the
    # certified one), and the result is what those solves return
    from cellhom import solvers

    cell = random_two_phase_cell(dims=(8, 8, 8), seed=5)
    assert not stencil_of(cell).uses_ref_dense
    original = solvers.solve_strain_driven
    for energy_tol in (None, ENERGY_TOL_CEIL):
        alone = [original(cell, a, energy_tol=energy_tol) for a in MANDEL_BASIS[:2]]
        seen = []

        def counted(cell, macro, params=None, **kw):
            seen.append((tuple(macro), kw))
            return original(cell, macro, params, **kw)

        monkeypatch.setattr(solvers, "solve_strain_driven", counted)
        stacked = solvers.solve_strain_stack(cell, MANDEL_BASIS[:2], energy_tol=energy_tol)
        monkeypatch.undo()
        assert seen == [(tuple(a), {"energy_tol": energy_tol}) for a in MANDEL_BASIS[:2]]
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


def _tiled(cell, reps):
    """``cell`` repeated ``reps[i]`` times along lattice direction ``i``,
    each generator scaled by the same factor: the same periodic material."""
    lat = cell.lattice
    return VoxelCell(tuple(n * k for n, k in zip(cell.dims, reps)),
                     np.tile(cell.phase_of, reps), cell.phases,
                     Lattice(reps[0] * lat.g1, reps[1] * lat.g2, reps[2] * lat.g3))


def _sheared_cell():
    return random_cell((3, 4, 5), seed=3, lattice=Lattice(
        np.array([1.1, 0.0, 0.0]), np.array([0.3, 0.9, 0.0]), np.array([-0.2, 0.25, 1.2])))


def _inverse(cell) -> str:
    """The reference inverse that the operator core of ``cell`` applies."""
    if stencil_of(cell).uses_ref_dense:
        return "dense"
    return "dft-matrix" if max(cell.dims) <= fem.DFT_MATRIX_MAX_SIDE else "rfftn"


#: (cell, tiling, inverse of the tiled cell): fixture d and the sheared cell
#: (dense inverse, lockstep columns) tiled onto both other inverses, fixture
#: c onto a larger grid of its own
SUPERCELLS = {
    "fixture-d-3x3x3": (random_two_phase_cell, (3, 3, 3), "dft-matrix"),
    "fixture-d-13x1x1": (random_two_phase_cell, (13, 1, 1), "rfftn"),
    "fixture-c-2x1x1": (cubic_inclusion_cell, (2, 1, 1), "dft-matrix"),
    "sheared-2x2x2": (_sheared_cell, (2, 2, 2), "dft-matrix"),
    "sheared-11x1x1": (_sheared_cell, (11, 1, 1), "dft-matrix"),
}


@pytest.mark.parametrize("name", sorted(SUPERCELLS))
def test_supercell_has_the_cell_s_ch_and_counts(name):
    # the tiled solution solves the Q1 problem on the tiled cell exactly,
    # and in exact arithmetic the CG iterates are tile-periodic too
    make, reps, inverse = SUPERCELLS[name]
    cell = make()
    supercell = _tiled(cell, reps)
    assert _inverse(supercell) == inverse
    base, tiled = ch.homogenize(cell), ch.homogenize(supercell)
    assert np.linalg.norm(tiled.CH - base.CH) <= 1e-13 * np.linalg.norm(base.CH)
    assert [r.iterations for r in tiled.per_column_reports] == \
        [r.iterations for r in base.per_column_reports]


@pytest.mark.parametrize("reps", [(3, 3, 3), (13, 1, 1)])
def test_supercell_has_the_cell_s_ch_by_the_stress_route(reps):
    # the stress route's relative residual weighs the six mean-stress entries
    # (x V) against the nodal ones, so its stop moves under tiling: CH is
    # held to its tolerance, not to rounding, and its counts are not pinned
    cell = random_two_phase_cell()
    base = ch.homogenize(cell, formulation="stress-uzawa").CH
    tiled = ch.homogenize(_tiled(cell, reps), formulation="stress-uzawa").CH
    assert np.linalg.norm(tiled - base) <= 1e-9 * np.linalg.norm(base)


def test_high_contrast_supercell_has_the_cell_s_ch():
    # rounding excites modes that are not tile-periodic, which cost this
    # cell iterations under tiling; CH holds to the solve tolerance
    cell = random_two_phase_cell((6, 6, 6), seed=5, phase_b=(1000.0, 1000.0), fraction=0.2)
    base = ch.homogenize(cell).CH
    tiled = ch.homogenize(_tiled(cell, (2, 1, 1))).CH
    assert np.linalg.norm(tiled - base) <= 1e-10 * np.linalg.norm(base)
