from concurrent.futures import ThreadPoolExecutor
import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import cellhom as ch
from cellhom import fem
from cellhom.cell import Lattice, VoxelCell
from cellhom.checks import _dense_shape_gradients, _dense_strain_row
from cellhom.fem import (
    DENSE_REF_MAX_DOF,
    DFT_MATRIX_MAX_SIDE,
    LinPerField,
    Stencil,
    compatibility_residual,
    corner_table,
    node_mean,
    quad_inner,
    quad_norm,
    stencil_of,
    strain_tables,
)
from cellhom.microstructures import (
    homogeneous_cell,
    laminate_cell,
    random_cell,
    random_spd_tensor,
    random_two_phase_cell,
)


def _centered(x):
    """``x`` less its mean nodal value."""
    return x - node_mean(x)


def _random_field(cell, seed):
    rng = np.random.default_rng(seed)
    return LinPerField(rng.standard_normal(6), rng.standard_normal(cell.dims + (3,)))


def test_sym_gradient_reproduces_linear_fields(cell_d):
    a = np.array([1.0, -0.5, 0.25, 0.3, -0.2, 0.1])
    e = ch.sym_gradient(cell_d, LinPerField(a, np.zeros(cell_d.dims + (3,))))
    np.testing.assert_array_equal(e, np.broadcast_to(a, cell_d.dims + (8, 6)))


def test_sym_gradient_constant_periodic_part_is_zero(cell_d):
    phi = np.broadcast_to(np.array([3.0, -2.0, 7.0]), cell_d.dims + (3,)).copy()
    e = ch.sym_gradient(cell_d, LinPerField(np.zeros(6), phi))
    assert np.abs(e).max() <= 1e-13


def test_periodic_gradient_has_zero_average(cell_d):
    u = _random_field(cell_d, 0)
    u.macro[:] = 0.0
    e = ch.sym_gradient(cell_d, u)
    assert np.abs(ch.cell_average(cell_d, e)).max() <= 1e-13


def test_mean_strain_is_macro_part(cell_d):
    u = _random_field(cell_d, 1)
    e = ch.sym_gradient(cell_d, u)
    np.testing.assert_allclose(ch.cell_average(cell_d, e), u.macro, atol=1e-13)


def test_green_identity_by_construction(cell_d):
    rng = np.random.default_rng(2)
    s = rng.standard_normal(cell_d.dims + (8, 6))
    u = _random_field(cell_d, 3)
    u.macro[:] = 0.0
    lhs = quad_inner(cell_d, s, ch.sym_gradient(cell_d, u))
    rhs = float(np.sum(ch.div_adjoint(cell_d, s) * u.periodic))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_div_adjoint_of_constant_vanishes(cell_d):
    s = np.broadcast_to(np.array([1.0, 2, 3, 4, 5, 6]), cell_d.dims + (8, 6)).copy()
    assert np.abs(ch.div_adjoint(cell_d, s)).max() <= 1e-13


def test_div_adjoint_nonuniform_lattice():
    lat = Lattice(np.array([1.0, 0.2, 0.0]), np.array([0.0, 2.0, 0.1]),
                  np.array([0.0, 0.0, 0.5]))
    cell = VoxelCell((3, 2, 2), np.zeros((3, 2, 2), dtype=int),
                     [ch.iso_tensor(1.0, 1.0)], lat)
    rng = np.random.default_rng(4)
    s = rng.standard_normal(cell.dims + (8, 6))
    u = LinPerField(np.zeros(6), rng.standard_normal(cell.dims + (3,)))
    lhs = quad_inner(cell, s, ch.sym_gradient(cell, u))
    rhs = float(np.sum(ch.div_adjoint(cell, s) * u.periodic))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_project_zero_mean(cell_d):
    const = LinPerField(np.zeros(6),
                        np.broadcast_to(np.array([1.0, 2.0, 3.0]),
                                        cell_d.dims + (3,)).copy())
    zeroed = ch.project_zero_mean(cell_d, const)
    assert np.abs(zeroed.periodic).max() <= 1e-15

    u = _random_field(cell_d, 5)
    once = ch.project_zero_mean(cell_d, u)
    twice = ch.project_zero_mean(cell_d, once)
    assert np.abs(twice.periodic - once.periodic).max() <= 1e-15

    e0 = ch.sym_gradient(cell_d, u)
    e1 = ch.sym_gradient(cell_d, once)
    assert quad_norm(cell_d, e1 - e0) <= 1e-13 * quad_norm(cell_d, e0)


def test_project_zero_mean_zeroes_nodal_average(cell_d):
    u = _random_field(cell_d, 6)
    proj = ch.project_zero_mean(cell_d, u)
    from cellhom.fem import node_centroid
    from cellhom.mandel import mandel_to_sym

    total = node_mean(proj.periodic) + mandel_to_sym(proj.macro) @ node_centroid(cell_d)
    assert np.abs(total).max() <= 1e-13


def test_is_equilibrated_constant_and_junk(cell_d):
    s_mean = np.array([1.0, 0.5, -0.25, 0.1, 0.0, -0.3])
    s = np.broadcast_to(s_mean, cell_d.dims + (8, 6)).copy()
    ok, div_res, mean_res = ch.is_equilibrated(cell_d, s, s_mean, 1e-13)
    assert ok and div_res <= 1e-13 and mean_res <= 1e-13

    # wrong mean fails
    ok, _, mean_res = ch.is_equilibrated(cell_d, s, 2.0 * s_mean, 1e-8)
    assert not ok and mean_res > 1e-2

    # stiff constitutive stress of a random periodic field is not equilibrated
    u = _random_field(cell_d, 7)
    u.macro[:] = 0.0
    e = ch.sym_gradient(cell_d, u)
    stiff = np.einsum("cd,ijkqd->ijkqc", 100.0 * ch.iso_tensor(5.0, 3.0), e)
    ok, div_res, _ = ch.is_equilibrated(
        cell_d, stiff, ch.cell_average(cell_d, stiff), 1e-6)
    assert not ok and div_res > 1e-3


def test_dual_norm_scale_bounds_operator(cell_d):
    rng = np.random.default_rng(8)
    scale = stencil_of(cell_d).dual_scale
    for _ in range(5):
        s = rng.standard_normal(cell_d.dims + (8, 6))
        lhs = float(np.linalg.norm(ch.div_adjoint(cell_d, s)))
        assert lhs <= scale * quad_norm(cell_d, s) * (1 + 1e-12)


def test_compatibility_residual_members(cell_d):
    u = _random_field(cell_d, 9)
    e = ch.sym_gradient(cell_d, u)
    assert compatibility_residual(cell_d, e) <= 1e-10 * quad_norm(cell_d, e)

    a = np.array([1.0, 2.0, -1.0, 0.5, 0.25, 0.0])
    e_const = np.broadcast_to(a, cell_d.dims + (8, 6)).copy()
    assert compatibility_residual(cell_d, e_const) <= 1e-10 * quad_norm(cell_d, e_const)


def test_core_is_cached_without_keeping_its_cell_alive():
    cell = random_two_phase_cell()
    st = stencil_of(cell)
    assert stencil_of(cell) is st and st.cell is cell
    alive = weakref.ref(cell)
    del cell
    assert alive() is None


def test_auto_uzawa_solve_leaves_no_cycle_holding_the_core():
    # with the cyclic collector off, the core dies with its cell after a solve
    cell = random_two_phase_cell()
    gc.disable()
    try:
        ch.solve_stress_uzawa(cell, cell.mean_stiffness @ np.ones(6))
        core = weakref.ref(stencil_of(cell))
        del cell
        assert core() is None
    finally:
        gc.enable()


def test_compatibility_residual_exact_on_sheared_anisotropic_cell():
    lat = Lattice(np.array([1.1, 0.0, 0.0]), np.array([0.3, 0.9, 0.0]),
                  np.array([-0.2, 0.25, 1.2]))
    cell = random_cell(dims=(3, 4, 5), seed=3, lattice=lat)
    e = ch.sym_gradient(cell, _random_field(cell, 16))
    assert compatibility_residual(cell, e) <= 1e-14 * quad_norm(cell, e)


def test_compatibility_residual_against_dense_lstsq():
    cell = random_two_phase_cell(dims=(2, 2, 2), seed=12)
    rng = np.random.default_rng(13)
    e = rng.standard_normal(cell.dims + (8, 6))

    # dense oracle: least squares onto [constants | nodal basis gradients]
    w = np.sqrt(cell.voxel_volume / 8.0)
    cols = []
    for k in range(6):
        basis = np.zeros(6)
        basis[k] = 1.0
        cols.append(np.broadcast_to(basis, cell.dims + (8, 6)).ravel())
    for idx in range(8):
        for d in range(3):
            phi = np.zeros(cell.dims + (3,))
            phi[np.unravel_index(idx, cell.dims) + (d,)] = 1.0
            cols.append(ch.sym_gradient(
                cell, LinPerField(np.zeros(6), phi)).ravel())
    design = np.column_stack(cols) * w
    coef, *_ = np.linalg.lstsq(design, e.ravel() * w, rcond=None)
    dense_resid = float(np.linalg.norm(design @ coef - e.ravel() * w))

    assert compatibility_residual(cell, e) == pytest.approx(dense_resid, abs=1e-8)


def test_discrete_coercivity_on_zero_mean_fields():
    # smallest Ritz value of the unit-material operator on the zero-mean
    # subspace, by inverse power iteration
    cell = homogeneous_cell(dims=(4, 4, 4))
    from cellhom.solvers import Stencil

    st = Stencil(cell)
    rng = np.random.default_rng(14)
    x = _centered(rng.standard_normal(cell.dims + (3,)))
    x /= np.linalg.norm(x)
    for _ in range(30):
        y = st.ref_solve(x)  # exact inverse of the constant-material operator
        x = y / np.linalg.norm(y)
    ritz = float(np.sum(x * _k_ref(st, x)))
    assert ritz > 1e-3


def test_average_product_identity_constant_stress(cell_d):
    u = _random_field(cell_d, 15)
    s_mean = np.array([0.5, -1.0, 2.0, 0.1, -0.2, 0.3])
    s = np.broadcast_to(s_mean, cell_d.dims + (8, 6)).copy()
    assert ch.hill_mandel_residual(cell_d, u, s) <= 1e-13


# -- operator-core kernels ------------------------------------------------------
#
# Two cells: a sheared 3-phase anisotropic 3x4x5 cell (odd last axis, so the
# rfftn half spectrum has no Nyquist plane) and a 4x4x6 cell (even last axis).


def _three_phase_sheared_cell():
    rng = np.random.default_rng(21)
    lat = Lattice(np.array([1.1, 0.0, 0.0]), np.array([0.3, 0.9, 0.0]),
                  np.array([-0.2, 0.25, 1.2]))
    phases = [random_spd_tensor(rng, scale=s) for s in (1.0, 3.0, 0.5)]
    grid = np.arange(60).reshape(3, 4, 5) % 3
    return VoxelCell((3, 4, 5), rng.permuted(grid.ravel()).reshape(3, 4, 5), phases, lat)


KERNEL_CELLS = {
    "sheared-3phase-3x4x5": _three_phase_sheared_cell,
    "two-phase-4x4x6": lambda: random_two_phase_cell(dims=(4, 4, 6), seed=5),
}


@pytest.fixture(params=sorted(KERNEL_CELLS))
def kernel_cell(request):
    return KERNEL_CELLS[request.param]()


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _k_ref(st, phi):
    """The reference operator, assembled here from its element stiffness."""
    return _centered(st.scatter(st.corners(phi) @ st.element_stiffness(st.cmean)))


def test_fused_stiffness_matches_composed_operators(kernel_cell):
    st = stencil_of(kernel_cell)
    rng = np.random.default_rng(22)
    phi = rng.standard_normal(kernel_cell.dims + (3,))
    composed = _centered(st.divadj(st.stress(st.strain_periodic(phi))))
    assert _rel(st.k_phi(phi), composed) <= 1e-13

    x = st.pack(rng.standard_normal(6), phi)
    s = st.stress(st.strain_ext(x))
    composed = st.pack(kernel_cell.volume * ch.cell_average(kernel_cell, s),
                       _centered(st.divadj(s)))
    assert _rel(st.k_ext(x), composed) <= 1e-13


def test_element_stiffness_symmetric_with_rigid_null_space(kernel_cell):
    st = stencil_of(kernel_cell)
    assert len(st.phases) == len(kernel_cell.phases)
    for k in [ph.k_rows for ph in st.phases] + [st.element_stiffness(st.cmean)]:
        assert np.abs(k - k.T).max() <= 1e-14 * np.abs(k).max()
        lam = np.linalg.eigvalsh(0.5 * (k + k.T))
        # 3 translations + 3 infinitesimal rotations, nothing else
        assert np.all(np.abs(lam[:6]) <= 1e-12 * lam[-1])
        assert lam[6] >= 1e-4 * lam[-1]


def test_uniform_element_field_scatters_to_exactly_uniform_nodes(kernel_cell):
    st = stencil_of(kernel_cell)
    rng = np.random.default_rng(23)
    fe = np.broadcast_to(rng.standard_normal(24), (kernel_cell.n_voxels, 24))
    nodal = st.scatter(fe)
    np.testing.assert_array_equal(nodal, np.broadcast_to(nodal[0, 0, 0], nodal.shape))
    # through the permutation from voxel order to the core's numbering
    s = np.broadcast_to(rng.standard_normal(6), kernel_cell.dims + (8, 6))
    nodal = st.divadj(s)
    np.testing.assert_array_equal(nodal, np.broadcast_to(nodal[0, 0, 0], nodal.shape))


def test_quadrature_ops_match_voxel_order_reference(kernel_cell):
    # the core numbers its elements phase by phase; quadrature fields keep
    # the voxel order, checked here against products built voxel by voxel
    st = stencil_of(kernel_cell)
    n = kernel_cell.n_voxels
    conn = corner_table(kernel_cell.dims)
    b = strain_tables(kernel_cell)
    c = np.stack(kernel_cell.phases)[kernel_cell.phase_of].reshape(n, 6, 6)
    rng = np.random.default_rng(27)
    phi = rng.standard_normal(kernel_cell.dims + (3,))
    s = rng.standard_normal(kernel_cell.dims + (8, 6))
    sv = s.reshape(n, 8, 6)

    e_ref = np.einsum("qaij,naj->nqi", b, phi.reshape(-1, 3)[conn])
    assert _rel(st.strain_periodic(phi), e_ref.reshape(s.shape)) <= 1e-14
    f_ref = np.zeros((n, 3))
    np.add.at(f_ref, conn, st.w * np.einsum("qaij,nqi->naj", b, sv))
    assert _rel(st.divadj(s), f_ref.reshape(phi.shape)) <= 1e-14
    assert _rel(st.stress(s), np.einsum("nij,nqj->nqi", c, sv).reshape(s.shape)) <= 1e-14
    d = np.linalg.inv(c)
    assert _rel(st.compliance_stress(s), np.einsum("nij,nqj->nqi", d, sv).reshape(s.shape)) <= 1e-14


def test_shape_gradients_match_scalar_loops(kernel_cell):
    # the dense oracle's own scalar loops are the reference of the array
    # expression; both apply the same inverse Jacobian, so they agree to rounding
    corners, grads = _dense_shape_gradients(kernel_cell)
    assert corners == list(fem.CORNERS)
    ref = np.array(grads)
    got = fem.shape_gradients(kernel_cell)
    assert got.shape == (8, 8, 3)
    np.testing.assert_allclose(got, ref, rtol=0, atol=8 * np.finfo(float).eps * np.abs(ref).max())


def test_corner_table_matches_voxel_loop(kernel_cell):
    dims = kernel_cell.dims
    ref = [[np.ravel_multi_index(tuple((v + np.array(a)) % dims), dims) for a in fem.CORNERS]
           for v in np.ndindex(*dims)]
    np.testing.assert_array_equal(corner_table(dims), ref)


def test_ref_dense_places_the_offset_blocks(kernel_cell):
    # block (i, j) of the dense inverse is G((i - j) mod dims), the inverse
    # transform of the half-spectrum blocks at the node offset
    st = stencil_of(kernel_cell)
    g = np.fft.irfftn(st.ref_pinv, s=st.dims, axes=(2, 3, 4))
    nodes = list(np.ndindex(*st.dims))
    ref = np.empty((3 * len(nodes),) * 2)
    for i, ni in enumerate(nodes):
        for j, nj in enumerate(nodes):
            ref[3 * i:3 * i + 3, 3 * j:3 * j + 3] = g[(..., *np.mod(np.subtract(ni, nj), st.dims))]
    np.testing.assert_array_equal(st.ref_dense, ref)


def test_mean_strain_load_is_the_stiffness_of_the_mean_strain(kernel_cell):
    # the load skips gathering the zero fluctuation but is bit for bit the
    # extended stiffness of (a, 0); test_homogeneous_cell_needs_no_iteration
    # checks that it still cancels exactly on a homogeneous cell
    st = stencil_of(kernel_cell)
    for a in np.random.default_rng(29).standard_normal((3, 6)):
        mean, load = st.mean_strain_load(a)
        want_mean, want_load = st.unpack(st.k_ext(st.pack(a, np.zeros(kernel_cell.dims + (3,)))))
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(load, want_load)


#: the kernel cells, a sheared cell of FULL phases and a contrast-1000 cell
GAP_CELLS = {
    **KERNEL_CELLS,
    "random-sheared-3x4x5": lambda: random_cell((3, 4, 5), seed=3, lattice=Lattice(
        np.array([1.1, 0.0, 0.0]), np.array([0.3, 0.9, 0.0]), np.array([-0.2, 0.25, 1.2]))),
    "contrast-1000-6x6x6": lambda: random_two_phase_cell(
        (6, 6, 6), 5, (1.0, 1.0), (1000.0, 1000.0), 0.1),
}


@pytest.mark.parametrize("name", sorted(GAP_CELLS))
def test_correction_gap_is_the_complementary_energy_of_the_correction(name):
    # the element form of the Uzawa gap against 1/2 integral D tau.tau of the
    # quadrature field tau that Stencil.correction forms
    cell = GAP_CELLS[name]()
    st = stencil_of(cell)
    rng = np.random.default_rng(30)
    zero = np.zeros(6 + 3 * cell.n_voxels)
    assert st.correction_gap(zero[:6], st.unpack(zero)[1]) == 0.0
    for scale_r, scale_z in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1e-9, 1e3)):
        r = scale_r * rng.standard_normal(zero.shape)
        z = scale_z * rng.standard_normal(zero.shape)
        m, psi = r[:6] / st.volume, st.unpack(z)[1]
        tau = st.correction(m, psi)
        want = 0.5 * st.w * float(np.sum(st.compliance_stress(tau) * tau))
        got = st.correction_gap(m, psi)
        assert got >= 0.0
        assert abs(got - want) <= 1e-13 * want


def _one_voxel_phase_cell():
    # a phase of one element, whose product numpy takes as a vector product,
    # which rounds unlike a block product
    rng = np.random.default_rng(33)
    grid = np.zeros((3, 4, 5), dtype=np.int64)
    grid[1, 2, 3] = 1
    return VoxelCell((3, 4, 5), grid, [random_spd_tensor(rng), random_spd_tensor(rng, scale=3.0)])


#: cells that ``homogenize`` solves in lockstep, all of at most
#: ``DENSE_REF_MAX_DOF`` unknowns: fixtures a, b and d, the sheared cell of
#: FULL phases on CI's lattice, a contrast-1000 cell and a one-voxel phase
LOCKSTEP_CELLS = {
    "fixture-a": homogeneous_cell,
    "fixture-b": laminate_cell,
    "fixture-d": random_two_phase_cell,
    "random-sheared-3x4x5": GAP_CELLS["random-sheared-3x4x5"],
    "contrast-1000-4x4x4": lambda: random_two_phase_cell(
        (4, 4, 4), seed=5, phase_b=(1000.0, 1000.0), fraction=0.2),
    "one-voxel-phase-3x4x5": _one_voxel_phase_cell,
}


#: past the dense cap: the reference inverse of the 8^3 cell goes through
#: DFT matrices, those of the cells longer than ``DFT_MATRIX_MAX_SIDE``
#: through ``rfftn``
STACK_CELLS = {
    **LOCKSTEP_CELLS,
    "two-phase-8x8x8": lambda: random_two_phase_cell(dims=(8, 8, 8), seed=5),
    "two-phase-50x2x2": lambda: random_two_phase_cell(dims=(50, 2, 2), seed=3),
    "two-phase-49x3x4": lambda: random_two_phase_cell(dims=(49, 3, 4), seed=4),
}


@pytest.mark.parametrize("name", sorted(STACK_CELLS))
def test_stacked_kernels_equal_single_field_calls(name):
    # k_phi, ref_solve, k_ext and precond_ext on a stack of six give, field
    # by field, the bits of six calls on one field, and a stack of one those
    # of its field, by the dense inverse, the DFT matrices and rfftn alike
    cell = STACK_CELLS[name]()
    st = stencil_of(cell)
    assert st.uses_ref_dense == (name in LOCKSTEP_CELLS)
    assert (max(cell.dims) > DFT_MATRIX_MAX_SIDE) == (
        name in ("two-phase-50x2x2", "two-phase-49x3x4"))
    rng = np.random.default_rng(32)
    fields = rng.standard_normal((6,) + cell.dims + (3,))
    packed = rng.standard_normal((6, 6 + fields[0].size))
    for kernel, xs in ((st.k_phi, fields), (st.ref_solve, fields),
                       (st.k_ext, packed), (st.precond_ext, packed)):
        np.testing.assert_array_equal(kernel(xs[:1])[0], kernel(xs[0]))
        stacked = kernel(xs)
        assert stacked.shape == xs.shape
        for x, got in zip(xs, stacked):
            np.testing.assert_array_equal(got, kernel(x))


def test_stacked_tables_are_kept_per_thread_without_a_cycle():
    # the stacked tables live with the work arrays, so a stack applied again
    # builds nothing; of the stacks of several fields only the last size
    # stays, beside the single field's tables; another thread keeps its own;
    # and with the cyclic collector off the core still dies with its cell
    cell = random_two_phase_cell()
    st = stencil_of(cell)
    fields = np.random.default_rng(34).standard_normal((6,) + cell.dims + (3,))
    first = st.k_phi(fields)
    tables = st._stack(6)
    np.testing.assert_array_equal(st.k_phi(fields), first)
    assert st._stack(6) is tables
    st.k_phi(fields[0])
    st.k_phi(fields[:3])
    assert sorted(st._tls.stacks) == [1, 3]
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(st._stack, 3).result() is not st._stack(3)
    tables = st._stack(6)
    gc.disable()
    try:
        ch.homogenize(cell)
        core = weakref.ref(st)
        del cell, st, tables
        assert core() is None
    finally:
        gc.enable()


#: the kernel cells and 5x3x1 (a one-voxel axis) are below
#: ``DENSE_REF_MAX_DOF``, the others above it; 5x7x9 has an odd and 9x6x8 an
#: even last side, and the 2x2 cells sit at ``DFT_MATRIX_MAX_SIDE`` and one
#: voxel past it, so both ``block_solve`` branches run
REF_SOLVE_CELLS = {
    **KERNEL_CELLS,
    "two-phase-5x3x1": lambda: random_two_phase_cell(dims=(5, 3, 1), seed=6),
    "two-phase-8x8x8": lambda: random_two_phase_cell(dims=(8, 8, 8), seed=5),
    "two-phase-5x7x9": lambda: random_two_phase_cell(dims=(5, 7, 9), seed=8),
    "two-phase-9x6x8": lambda: random_two_phase_cell(dims=(9, 6, 8), seed=9),
    "two-phase-2x2xcap": lambda: random_two_phase_cell(dims=(2, 2, DFT_MATRIX_MAX_SIDE), seed=10),
    "two-phase-2x2xcap+1": lambda: random_two_phase_cell(
        dims=(2, 2, DFT_MATRIX_MAX_SIDE + 1), seed=11),
}


@pytest.mark.parametrize("name", sorted(REF_SOLVE_CELLS))
def test_ref_solve_inverts_reference_operator_on_zero_mean_fields(name):
    cell = REF_SOLVE_CELLS[name]()
    st = stencil_of(cell)
    rng = np.random.default_rng(24)
    phi = _centered(rng.standard_normal(cell.dims + (3,)))
    assert _rel(st.ref_solve(_k_ref(st, phi)), phi) <= 1e-12
    r = _centered(rng.standard_normal(cell.dims + (3,)))
    assert _rel(_k_ref(st, st.ref_solve(r)), r) <= 1e-12
    # the constant nullspace is annihilated, not amplified
    const = np.broadcast_to(np.array([1.0, -2.0, 0.5]), cell.dims + (3,))
    assert np.abs(st.ref_solve(const)).max() <= 1e-13


@pytest.mark.parametrize("name", sorted(REF_SOLVE_CELLS))
def test_dense_and_dft_reference_inverses_agree(name, monkeypatch):
    # below the cap ref_solve applies the dense matrix, above it the DFT
    # blocks (and builds no matrix); the two inverses agree on either side,
    # and so do the two transforms of the DFT blocks: per-axis DFT matrices
    # up to DFT_MATRIX_MAX_SIDE, rfftn/irfftn past it
    cell = REF_SOLVE_CELLS[name]()
    st = stencil_of(cell)
    rng = np.random.default_rng(28)
    r = rng.standard_normal(cell.dims + (3,))
    by_blocks = st.block_solve(st.ref_pinv, r)
    matrices = max(cell.dims) <= DFT_MATRIX_MAX_SIDE
    assert (st._dft is not None) == matrices
    monkeypatch.setattr(fem, "DFT_MATRIX_MAX_SIDE", 0 if matrices else max(cell.dims))
    other = Stencil(cell)
    assert (other._dft is None) == matrices
    assert _rel(other.block_solve(st.ref_pinv, r), by_blocks) <= 1e-14
    assert _rel(st.ref_solve(r), by_blocks) <= 1e-14
    assert ("ref_dense" in vars(st)) == (3 * cell.n_voxels <= DENSE_REF_MAX_DOF)
    dense = st.ref_dense @ r.reshape(-1)
    assert _rel(dense.reshape(r.shape), by_blocks) <= 1e-14
    const = np.broadcast_to(np.array([1.0, -2.0, 0.5]), cell.dims + (3,))
    assert np.abs(st.ref_dense @ const.reshape(-1)).max() <= 1e-13
    assert np.abs(st.block_solve(st.ref_pinv, const)).max() <= 1e-13
    assert np.abs(other.block_solve(st.ref_pinv, const)).max() <= 1e-13


_SHEAR = Lattice(np.array([1.1, 0.0, 0.0]), np.array([0.3, 0.9, 0.0]),
                 np.array([-0.2, 0.25, 1.2]))

#: sides of 1 and 2 (where both half spectra hold the whole spectrum),
#: odd and even sides, cubic and not, sheared and not; 5x6x7 and 9x4x10
#: are past DENSE_REF_MAX_DOF
TRANSFORM_CELLS = {
    "1x1x2": lambda: random_cell((1, 1, 2), seed=1),
    "2x1x5-sheared": lambda: random_cell((2, 1, 5), seed=2, lattice=_SHEAR),
    "4x4x4": lambda: random_two_phase_cell(seed=3),
    "5x6x7-sheared": lambda: random_cell((5, 6, 7), seed=4, lattice=_SHEAR),
    "9x4x10-sheared": lambda: random_cell((9, 4, 10), seed=5, lattice=_SHEAR),
}


@pytest.mark.parametrize("name", sorted(TRANSFORM_CELLS))
def test_dft_matrix_transforms_match_rfftn_and_the_dense_inverse(name, monkeypatch):
    # block_solve of both inverses by per-axis DFT matrices (blocks on the
    # half spectrum of the first axis) against rfftn/irfftn (blocks on that
    # of the last axis) and, for the reference inverse, the dense matrix
    cell = TRANSFORM_CELLS[name]()
    n1, n2, n3 = cell.dims
    rng = np.random.default_rng(35)
    r = rng.standard_normal(cell.dims + (3,))
    monkeypatch.setattr(fem, "DENSE_REF_MAX_DOF", 0)
    matrices = Stencil(cell)
    monkeypatch.setattr(fem, "DFT_MATRIX_MAX_SIDE", 0)
    ffts = Stencil(cell)
    assert matrices._dft is not None and ffts._dft is None
    dense = stencil_of(cell).ref_dense @ r.reshape(-1)
    for inverse in ("ref_pinv", "unit_pinv"):
        by_matrices = getattr(matrices, inverse)
        by_ffts = getattr(ffts, inverse)
        assert by_matrices.shape == (3, 3, n1 // 2 + 1, n2, n3)
        assert by_ffts.shape == (3, 3, n1, n2, n3 // 2 + 1)
        z = matrices.block_solve(by_matrices, r)
        assert z.shape == r.shape
        assert _rel(z, ffts.block_solve(by_ffts, r)) <= 1e-14
        # a stack of one keeps its shape, and blocks of the other layout
        # are gathered into the one each transform reads
        np.testing.assert_array_equal(matrices.block_solve(by_matrices, r[None])[0], z)
        assert _rel(matrices.block_solve(by_ffts, r), z) <= 1e-14
        assert _rel(ffts.block_solve(by_matrices, r), z) <= 1e-14
        if inverse == "ref_pinv":
            assert _rel(z.reshape(-1), dense) <= 1e-14


@pytest.mark.parametrize("name", sorted(TRANSFORM_CELLS))
def test_half_spectrum_gather_matches_rfftn_on_either_axis(name):
    # on the spectrum of a real field, which unlike the blocks of a
    # constant-material inverse is not real, the gather from one half
    # spectrum equals rfftn's other half spectrum
    cell = TRANSFORM_CELLS[name]()
    st = Stencil(cell)
    f = np.random.default_rng(37).standard_normal(cell.dims)
    last, first = np.fft.rfftn(f, axes=(0, 1, 2)), np.fft.rfftn(f, axes=(1, 2, 0))
    assert _rel(st._half_layout(np.broadcast_to(last, (3, 3) + last.shape), 0)[1, 2],
                first) <= 1e-14
    assert _rel(st._half_layout(np.broadcast_to(first, (3, 3) + first.shape), 2)[0, 1],
                last) <= 1e-14


def _loop_k_ext(cell):
    """The extended stiffness as one dense ``(6 + 3N, 6 + 3N)`` matrix,
    assembled by explicit loops over voxels, Gauss points and corners from
    the dense oracle's shape gradients: the strain at a Gauss point is ``E +
    sum_a B_a u_a``, its stress ``C e`` with the voxel's ``C`` as given (not
    symmetrized), and the rows are the cell integral of that stress and the
    nodal functional ``sum w B_a^T (C e)``."""
    corners, grads = _dense_shape_gradients(cell)
    n1, n2, n3 = cell.dims
    size = 6 + 3 * cell.n_voxels
    w = cell.voxel_volume / 8.0
    k = np.zeros((size, size))
    for i, j, l in np.ndindex(*cell.dims):
        c = cell.phases[cell.phase_of[i, j, l]]
        nodes = [(((i + a) % n1) * n2 + (j + b) % n2) * n3 + (l + d) % n3 for a, b, d in corners]
        for q in range(8):
            strain = np.zeros((6, size))
            strain[:, :6] = np.eye(6)
            for a, node in enumerate(nodes):
                strain[:, 6 + 3 * node:9 + 3 * node] += _dense_strain_row(grads[q][a])
            k[:6] += w * c @ strain
            k[6:] += w * strain[:, 6:].T @ c @ strain
    return k


def test_k_ext_matches_a_loop_assembled_extended_stiffness():
    # the sheared three-phase anisotropic cell, one phase symmetric only to
    # 1e-13: the mean part takes C, the nodal part C^T (g_mean, g_rows)
    base = _three_phase_sheared_cell()
    skew = np.triu(np.ones((6, 6)), 1)
    phases = list(base.phases)
    phases[1] = phases[1] + 1e-13 * np.abs(phases[1]).max() * (skew - skew.T)
    cell = VoxelCell(base.dims, base.phase_of, phases, base.lattice)
    assert 0.0 < np.abs(phases[1] - phases[1].T).max() <= 1e-12 * np.abs(phases[1]).max()
    st = stencil_of(cell)
    k = _loop_k_ext(cell)
    rng = np.random.default_rng(36)
    for x in (st.pack(rng.standard_normal(6), rng.standard_normal(cell.dims + (3,))),
              st.pack(rng.standard_normal(6), np.zeros(cell.dims + (3,))),
              st.pack(np.zeros(6), rng.standard_normal(cell.dims + (3,)))):
        want = k @ x
        want[6:] = _centered(want[6:].reshape(cell.dims + (3,))).ravel()
        got = st.k_ext(x)
        assert _rel(got[:6], want[:6]) <= 1e-13
        assert _rel(got[6:], want[6:]) <= 1e-13


def test_unit_strain_loads_are_the_scattered_element_forces(kernel_cell):
    # mean_strain_load of a unit strain is bit for bit the scatter of its
    # element forces e_i @ g_rows, less the nodal mean, and the phases'
    # stress integral, summed phase by phase
    st = stencil_of(kernel_cell)
    for a in np.eye(6):
        fe = np.empty((kernel_cell.n_voxels, 24))
        mean = np.zeros(6)
        for ph in st.phases:
            fe[ph.rows] = a @ ph.g_rows
            mean += ph.c_vol @ a
        got_mean, got_load = st.mean_strain_load(a)
        assert got_mean.tobytes() == mean.tobytes()
        np.testing.assert_array_equal(got_load, st._center(st.scatter(fe)))


def test_displacement_solves_build_neither_dft_matrices_nor_gap_factors():
    # on a dense-inverse grid only block_solve (compatibility_residual) needs
    # the DFT matrices, and only the Uzawa route needs the gap factors
    cell = random_two_phase_cell()
    st = stencil_of(cell)
    ch.homogenize(cell)
    assert "_dft" not in vars(st) and "gap_factors" not in vars(st)
    ch.solve_stress_uzawa(cell, cell.mean_stiffness @ np.ones(6))
    assert "_dft" not in vars(st) and "gap_factors" in vars(st)
    compatibility_residual(cell, ch.sym_gradient(cell, _random_field(cell, 31)))
    assert "_dft" in vars(st)


def test_fused_kernels_allocate_no_element_array():
    # the corner gather, the element forces and the scatter gather live in
    # the core's per-thread work arrays, so after a warm-up call a kernel
    # allocates only nodal-sized results
    cell = random_two_phase_cell((16, 16, 16))
    st = stencil_of(cell)
    rng = np.random.default_rng(25)
    limit = cell.n_voxels * 24 * 8

    def field():
        return rng.standard_normal(cell.dims + (3,))

    for kernel, make in ((st.k_phi, field),
                         (st.k_ext, lambda: st.pack(rng.standard_normal(6), field()))):
        first = kernel(make())
        kept = first.copy()
        x = make()
        tracemalloc.start()
        try:
            kernel(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        # a result never aliases a work array
        np.testing.assert_array_equal(first, kept)


def test_fused_kernels_give_serial_results_on_shared_core():
    # every thread applies the kernels, and permutes quadrature fields, in
    # its own work arrays
    cell = random_two_phase_cell((8, 8, 8))
    st = stencil_of(cell)
    rng = np.random.default_rng(26)
    xs = [st.pack(rng.standard_normal(6), rng.standard_normal(cell.dims + (3,)))
          for _ in range(6)]

    def once(x):
        phi = st.unpack(x)[1]
        return st.k_ext(x), st.k_phi(phi), st.divadj(st.stress(st.strain_periodic(phi)))

    expect = [once(x) for x in xs]

    def apply(x):
        return [once(x) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(apply, xs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, runs in zip(expect, got):
        for run in runs:
            for a, b in zip(run, want):
                np.testing.assert_array_equal(a, b)
