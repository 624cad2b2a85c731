from concurrent.futures import ThreadPoolExecutor
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import Lattice, VoxelCell
from cellhom.fem import (
    LinPerField,
    compatibility_residual,
    dual_norm_scale,
    node_mean,
    quad_inner,
    quad_norm,
    stencil_of,
)
from cellhom.microstructures import (
    homogeneous_cell,
    random_cell,
    random_spd_tensor,
    random_two_phase_cell,
)


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
    scale = dual_norm_scale(cell_d)
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
    x = st.project(rng.standard_normal(cell.dims + (3,)))
    x /= np.linalg.norm(x)
    for _ in range(30):
        y = st.ref_solve(x)  # exact inverse of the constant-material operator
        x = y / np.linalg.norm(y)
    ritz = float(np.sum(x * st.k_ref_phi(x)))
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


def test_fused_stiffness_matches_composed_operators(kernel_cell):
    st = stencil_of(kernel_cell)
    rng = np.random.default_rng(22)
    phi = rng.standard_normal(kernel_cell.dims + (3,))
    composed = st.project(st.divadj(st.stress(st.strain_periodic(phi))))
    assert _rel(st.k_phi(phi), composed) <= 1e-13

    x = st.pack(rng.standard_normal(6), phi)
    s = st.stress(st.strain_ext(x))
    composed = st.pack(kernel_cell.volume * ch.cell_average(kernel_cell, s),
                       st.project(st.divadj(s)))
    assert _rel(st.k_ext(x), composed) <= 1e-13


def test_element_stiffness_symmetric_with_rigid_null_space(kernel_cell):
    st = stencil_of(kernel_cell)
    assert len(st.phases) == len(kernel_cell.phases)
    for k in [ph.k_rows for ph in st.phases] + [st.kref]:
        assert np.abs(k - k.T).max() <= 1e-14 * np.abs(k).max()
        lam = np.linalg.eigvalsh(0.5 * (k + k.T))
        # 3 translations + 3 infinitesimal rotations, nothing else
        assert np.all(np.abs(lam[:6]) <= 1e-12 * lam[-1])
        assert lam[6] >= 1e-4 * lam[-1]


def test_uniform_element_field_scatters_to_exactly_uniform_nodes(kernel_cell):
    st = stencil_of(kernel_cell)
    rng = np.random.default_rng(23)
    fe = np.broadcast_to(rng.standard_normal(24), (kernel_cell.n_voxels, 24))
    for table in (st.inv_table, st.inv_k):
        nodal = st.scatter(fe, table)
        np.testing.assert_array_equal(nodal, np.broadcast_to(nodal[0, 0, 0], nodal.shape))
    s = np.broadcast_to(rng.standard_normal(6), kernel_cell.dims + (8, 6))
    nodal = st.divadj(s)
    np.testing.assert_array_equal(nodal, np.broadcast_to(nodal[0, 0, 0], nodal.shape))


def test_ref_solve_inverts_reference_operator_on_zero_mean_fields(kernel_cell):
    st = stencil_of(kernel_cell)
    rng = np.random.default_rng(24)
    phi = st.project(rng.standard_normal(kernel_cell.dims + (3,)))
    assert _rel(st.ref_solve(st.k_ref_phi(phi)), phi) <= 1e-12
    r = st.project(rng.standard_normal(kernel_cell.dims + (3,)))
    assert _rel(st.k_ref_phi(st.ref_solve(r)), r) <= 1e-12
    # the constant nullspace is annihilated, not amplified
    const = np.broadcast_to(np.array([1.0, -2.0, 0.5]), kernel_cell.dims + (3,))
    assert np.abs(st.ref_solve(const)).max() <= 1e-13


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
    # every thread applies the kernels in its own work arrays
    cell = random_two_phase_cell((8, 8, 8))
    st = stencil_of(cell)
    rng = np.random.default_rng(26)
    xs = [st.pack(rng.standard_normal(6), rng.standard_normal(cell.dims + (3,)))
          for _ in range(6)]
    expect = [(st.k_ext(x), st.k_phi(st.unpack(x)[1])) for x in xs]

    def apply(x):
        return [(st.k_ext(x), st.k_phi(st.unpack(x)[1])) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(apply, xs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for pair, runs in zip(expect, got):
        for run in runs:
            np.testing.assert_array_equal(run[0], pair[0])
            np.testing.assert_array_equal(run[1], pair[1])
