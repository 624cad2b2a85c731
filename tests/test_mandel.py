import numpy as np
import pytest

from cellhom import mandel


def test_iso_tensor_values():
    c = mandel.iso_tensor(1.0, 1.0)
    assert c[0, 0] == pytest.approx(3.0)          # lam + 2 mu
    assert mandel.iso_tensor(0.0, 1.0)[0, 1] == pytest.approx(0.0)
    # shear slots carry 2 mu in Mandel form
    assert mandel.iso_tensor(2.0, 1.0)[3, 3] == pytest.approx(2.0)


def test_iso_tensor_rejects_bad_moduli():
    with pytest.raises(mandel.DomainError):
        mandel.iso_tensor(1.0, 0.0)
    with pytest.raises(mandel.DomainError):
        mandel.iso_tensor(-1.0, 1.0)


def test_invert_identity():
    np.testing.assert_allclose(mandel.invert(np.eye(6)), np.eye(6), atol=1e-15)


def test_invert_iso_bulk_and_first_entry():
    c = mandel.iso_tensor(1.0, 1.0)
    d = mandel.invert(c)
    hydro = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    # 3 lam + 2 mu = 5 maps the hydrostatic direction
    np.testing.assert_allclose(c @ hydro, 5.0 * hydro, atol=1e-14)
    np.testing.assert_allclose(d @ hydro, hydro / 5.0, atol=1e-15)
    # (lam + mu) / (mu (3 lam + 2 mu)) for lam = mu = 1
    assert d[0, 0] == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("seed", range(10))
def test_invert_random_spd(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 6))
    t = m @ m.T + 6.0 * np.eye(6)
    err = np.abs(t @ mandel.invert(t) - np.eye(6)).max()
    assert err <= 1e-12


def test_invert_involution():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    t = m @ m.T + 6.0 * np.eye(6)
    back = mandel.invert(mandel.invert(t))
    assert np.abs(back - t).max() <= 1e-12 * np.abs(t).max()


def test_invert_rejects_singular_and_indefinite():
    with pytest.raises(mandel.SingularTensor):
        mandel.invert(np.zeros((6, 6)))
    bad = np.eye(6)
    bad[5, 5] = -1.0
    with pytest.raises(mandel.SingularTensor):
        mandel.invert(bad)
    graded = np.diag([1.0, 1, 1, 1, 1, 1e-15])
    with pytest.raises(mandel.SingularTensor):
        mandel.invert(graded)


def test_apply_inner_quad_examples():
    # in Mandel form <C e, e> is e @ C @ e: pure shear e12 = 1 under
    # lam = mu = 1 gives 4 mu e12^2
    shear = np.array([0, 0, 0, 0, 0, mandel.SQRT2])
    assert shear @ mandel.iso_tensor(1.0, 1.0) @ shear == pytest.approx(4.0)


def test_mandel_inner_equals_full_contraction():
    rng = np.random.default_rng(2)
    a6, b6 = rng.standard_normal((2, 6))
    a, b = mandel.mandel_to_sym(a6), mandel.mandel_to_sym(b6)
    assert a6 @ b6 == pytest.approx(float(np.sum(a * b)), rel=1e-14)


def test_roundtrip_through_dense():
    rng = np.random.default_rng(4)
    m = rng.standard_normal(6)
    back = mandel.sym_to_mandel(mandel.mandel_to_sym(m))
    np.testing.assert_array_almost_equal_nulp(back, m, nulp=1)
