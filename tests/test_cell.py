import dataclasses

import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import Lattice, VoxelCell, parse_voxel_text, voxel_text, wrap_index
from cellhom.microstructures import random_spd_tensor, random_two_phase_cell


def test_wrap_index():
    dims = (4, 5, 6)
    assert wrap_index((4, 0, 0), dims) == (0, 0, 0)
    assert wrap_index((-1, 0, 0), dims) == (3, 0, 0)
    assert wrap_index((2, 3, 5), dims) == (2, 3, 5)
    assert wrap_index((9, -7, 12), dims) == (1, 3, 0)


def test_lattice_rejects_dependent_generators():
    with pytest.raises(ValueError):
        Lattice(np.array([1.0, 0, 0]), np.array([2.0, 0, 0]), np.array([0, 0, 1.0]))


def test_lattice_volume():
    lat = Lattice(np.array([2.0, 0, 0]), np.array([0, 3.0, 0]), np.array([0, 0, 0.5]))
    assert lat.volume == pytest.approx(3.0)


def test_cell_average_constant_and_symmetry(cell_d):
    m = np.array([1.0, 2.0, -1.0, 0.5, 0.0, 3.0])
    f = np.broadcast_to(m, cell_d.dims + (8, 6)).copy()
    np.testing.assert_allclose(ch.cell_average(cell_d, f), m, atol=1e-15)

    # two equal halves with opposite values average to zero
    g = f.copy()
    g[: cell_d.dims[0] // 2] *= -1.0
    np.testing.assert_allclose(ch.cell_average(cell_d, g), 0.0, atol=1e-15)


def test_cell_average_linear(cell_d):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(cell_d.dims + (8, 6))
    g = rng.standard_normal(cell_d.dims + (8, 6))
    lhs = ch.cell_average(cell_d, 0.3 * f - 1.7 * g)
    rhs = 0.3 * ch.cell_average(cell_d, f) - 1.7 * ch.cell_average(cell_d, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_cell_average_translate_invariant(cell_d):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(cell_d.dims + (8, 6))
    rolled = np.roll(f, shift=(1, 2, 3), axis=(0, 1, 2))
    np.testing.assert_allclose(ch.cell_average(cell_d, rolled),
                               ch.cell_average(cell_d, f), atol=1e-13)


def test_voxel_roundtrip():
    cell = random_two_phase_cell(dims=(3, 2, 4), seed=5)
    text = voxel_text(cell)
    back = parse_voxel_text(text)
    assert back.dims == cell.dims
    np.testing.assert_array_equal(back.phase_of, cell.phase_of)
    for p, q in zip(back.phases, cell.phases):
        np.testing.assert_array_equal(p, q)  # 17 significant digits round-trip


def test_voxel_parse_iso_and_order():
    text = "\n".join([
        "CELLVOX 1",
        "2 1 1 2",
        "ISO 1.0 1.0",
        "ISO 0.0 2.0",
        "0 1",
    ])
    cell = parse_voxel_text(text)
    assert cell.phase_of[0, 0, 0] == 0 and cell.phase_of[1, 0, 0] == 1
    assert cell.phases[1][3, 3] == pytest.approx(4.0)


@pytest.mark.parametrize("bad, match", [
    ("NOTAVOX 1\n1 1 1 1\nISO 1 1\n0", "must start"),
    ("CELLVOX 1\n1 1 1\nISO 1 1\n0", "dimension line"),
    ("CELLVOX 1\n1 1 1 1\nGARBAGE 1 1\n0", "ISO or FULL"),
    ("CELLVOX 1\n2 1 1 1\nISO 1 1\n0", "phase ids"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n3", "phase id out of range"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 -1\n0", "positive"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 inf\n0", "phase 0 .*non-finite"),
    ("CELLVOX 1\n1 1 1 1\nFULL nan" + " 0" * 5 + " 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1\n0",
     "phase 0 .*non-finite"),
])
def test_voxel_parse_errors(bad, match):
    with pytest.raises(ValueError, match=match):
        parse_voxel_text(bad)


def test_cell_rejects_non_spd_phase():
    c = np.eye(6)
    c[0, 0] = -1.0
    with pytest.raises(ValueError, match="positive definite"):
        VoxelCell((1, 1, 1), np.zeros((1, 1, 1), dtype=int), [c])


def test_cell_is_frozen():
    grid = np.zeros((2, 1, 1), dtype=np.int64)
    cell = VoxelCell((2, 1, 1), grid, [ch.iso_tensor(1.0, 1.0), ch.iso_tensor(0.0, 1.5)])
    before = cell.mean_stiffness.copy()
    grid[1, 0, 0] = 1  # the cell keeps its own copy of the inputs
    with pytest.raises(ValueError, match="read-only"):
        cell.phase_of[1, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cell.phases[0][3, 3] = 6.0
    for mean in (cell.mean_stiffness, cell.mean_compliance):
        with pytest.raises(ValueError, match="read-only"):
            mean[3, 3] = 6.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cell.phase_of = grid
    np.testing.assert_array_equal(cell.mean_stiffness, before)
    # both voxels are still phase 0 (shear slot 2 mu = 2), not half phase 1
    assert cell.mean_stiffness[3, 3] == 2.0
    assert cell.phases[0][3, 3] == 2.0


def test_cell_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        VoxelCell((2, 1, 1), np.zeros((1, 1, 1), dtype=int), [np.eye(6)])


def test_mean_fields_are_phase_fraction_sums():
    rng = np.random.default_rng(5)
    phases = [random_spd_tensor(rng, scale) for scale in (1.0, 7.0, 3.0)]
    grid = rng.integers(0, 2, size=(3, 4, 5)) * 2  # phase 1 is absent
    cell = VoxelCell((3, 4, 5), grid, phases)
    frac = np.array([np.mean(grid == p) for p in range(3)])
    for mean, mats in ((cell.mean_stiffness, phases),
                       (cell.mean_compliance, [ch.invert(c) for c in phases])):
        expect = sum(f * c for f, c in zip(frac, mats))
        assert np.abs(mean - expect).max() <= 1e-15 * np.abs(expect).max()


def test_mean_fields(cell_b):
    cmean = cell_b.mean_stiffness
    # 50/50 laminate of 2 mu = 2 and 4: arithmetic mean shear slot is 3
    assert cmean[3, 3] == pytest.approx(3.0)
    dmean = cell_b.mean_compliance
    assert dmean[3, 3] == pytest.approx(0.5 * (1 / 2 + 1 / 4))
