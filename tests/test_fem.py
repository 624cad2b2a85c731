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
from cellhom.microstructures import homogeneous_cell, random_cell, random_two_phase_cell


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
