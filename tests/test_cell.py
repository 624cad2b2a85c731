import dataclasses
import re
import warnings

import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import Lattice, VoxelCell, parse_voxel_text, voxel_text
from cellhom.microstructures import random_cell, random_spd_tensor, random_two_phase_cell


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


def _cell_bytes(cell):
    """Everything set-up derives from a cell's text, as bytes."""
    return (cell.dims, cell.phase_of.dtype, cell.phase_of.tobytes(),
            [p.tobytes() for p in cell.phases],
            cell.mean_stiffness.tobytes(), cell.mean_compliance.tobytes())


def _symmetric(c):
    """``c`` made exactly symmetric, so FULL rows (its upper triangle) hold all of it."""
    return 0.5 * (c + c.T)


#: the sheared lattice of the command line's sheared verify run
SHEARED = Lattice(np.array([1.1, 0, 0]), np.array([0.3, 0.9, 0]), np.array([-0.2, 0.25, 1.2]))


def test_voxel_roundtrip():
    rng = np.random.default_rng(4)
    twelve = VoxelCell((3, 4, 5), np.arange(60).reshape(3, 4, 5) % 12,  # two-digit ids
                       [_symmetric(random_spd_tensor(rng)) for _ in range(12)])
    for cell in (random_two_phase_cell(dims=(3, 2, 4), seed=5), twelve):
        text = voxel_text(cell)
        back = parse_voxel_text(text)
        assert back.dims == cell.dims
        np.testing.assert_array_equal(back.phase_of, cell.phase_of)
        for p, q in zip(back.phases, cell.phases):
            np.testing.assert_array_equal(p, q)  # 17 significant digits round-trip
        # the same ids broken by tabs, CRLF and blank lines
        nhead = 2 + len(cell.phases)
        lines = text.split("\n")
        seps = ["\t", "\r\n", "\n\n", " \t ", "\r\n\r\n"]
        ids = " ".join(lines[nhead:]).split()
        block = "".join(t + seps[n % len(seps)] for n, t in enumerate(ids))
        messy = parse_voxel_text("\r\n".join(lines[:nhead]) + "\r\n\n" + block + "\t\r\n")
        assert _cell_bytes(messy) == _cell_bytes(back)


def test_parse_is_a_fixed_point_of_voxel_text_round_trips():
    # random_cell's phases are symmetric only to rounding, so the first
    # parse keeps their upper triangles; from then on nothing moves
    first = parse_voxel_text(voxel_text(random_cell((3, 4, 5), seed=3, lattice=SHEARED)), SHEARED)
    again = parse_voxel_text(voxel_text(first), SHEARED)
    assert _cell_bytes(again) == _cell_bytes(first)
    assert voxel_text(again) == voxel_text(first)


def test_parse_gives_the_written_full_phase_cell_byte_for_byte():
    rng = np.random.default_rng(8)
    phases = [_symmetric(random_spd_tensor(rng)) for _ in range(3)]
    cell = VoxelCell((3, 4, 5), rng.integers(0, 3, size=(3, 4, 5)), phases, SHEARED)
    assert _cell_bytes(parse_voxel_text(voxel_text(cell), SHEARED)) == _cell_bytes(cell)


#: the id grammar: optionally signed ASCII decimal integers separated by ASCII whitespace
ID_BLOCK = re.compile(r"[ \t\n\r\v\f]*(?:[+-]?[0-9]+(?:[ \t\n\r\v\f]+[+-]?[0-9]+)*)?"
                      r"[ \t\n\r\v\f]*")


def test_id_block_grammar_on_random_blocks():
    # short blocks over digits, signs, ASCII and non-ASCII whitespace and
    # other characters: a block parses exactly when the grammar matches it,
    # and then to its ids in file order; otherwise the error names the cause
    alphabet = list("0129 \t\n\r\v\f+-x._") + ["\xa0", "\x1c", "\x85", "\u2028", "\u0663"]
    rng = np.random.default_rng(0)
    for _ in range(2000):
        block = "".join(rng.choice(alphabet, size=rng.integers(0, 8)))
        if not ID_BLOCK.fullmatch(block):
            n = len(block.split())  # the count check comes first
            with pytest.raises(ValueError, match="bad phase id" if n else "found 0"):
                parse_voxel_text(f"CELLVOX 1\n{max(n, 1)} 1 1 1\nISO 1 1\n{block}")
            continue
        ids = [int(t) for t in block.split()]
        if not ids or min(ids) < 0:
            continue
        text = f"CELLVOX 1\n{len(ids)} 1 1 {max(ids) + 1}\n" + "ISO 1 1\n" * (max(ids) + 1)
        cell = parse_voxel_text(text + block)
        assert cell.phase_of.ravel().tolist() == ids, repr(block)


def test_unmatched_data_warning_of_older_numpy_is_a_bad_phase_id(monkeypatch):
    # numpy 1.x np.fromstring warns on unmatched data and returns the ids
    # read so far; that must be the same error as numpy 2's ValueError
    real = np.fromstring

    def warning_fromstring(block, dtype, sep):
        try:
            return real(block, dtype=dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due to unmatched "
                          "data; this will raise a ValueError in the future.",
                          DeprecationWarning, stacklevel=2)
            return real(block.split()[0], dtype=dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", warning_fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("default")  # a shown warning, not pytest's error
        with pytest.raises(ValueError, match="bad phase id: 'x'"):
            parse_voxel_text("CELLVOX 1\n2 1 1 1\nISO 1 1\n0 x")


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
    ("CELLVOX 1\n2 1 1 1\nISO 1 1\n0", "expected 2 phase ids, found 1"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n0 0", "expected 1 phase ids, found 2"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n \n\t", "expected 1 phase ids, found 0"),
    # a wrong count is reported before a bad id
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\nx 0", "expected 1 phase ids, found 2"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\nx", "bad phase id: 'x'"),
    ("CELLVOX 1\n2 1 1 1\nISO 1 1\n0 x", "bad phase id: 'x'"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n1.5", "bad phase id: '1.5'"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n1_0", "bad phase id: '1_0'"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n\u0660", "bad phase id"),  # Arabic-Indic zero
    ("CELLVOX 1\n2 1 1 2\nISO 1 1\nISO 1 2\n1 +", "bad phase id: '\\+'"),
    ("CELLVOX 1\n2 1 1 2\nISO 1 1\nISO 1 2\n0\xa01", "bad phase id: .*ASCII whitespace"),
    ("CELLVOX 1\n2 1 1 2\nISO 1 1\nISO 1 2\n0\u20281", "bad phase id: .*ASCII whitespace"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n99999999999999999999", "phase id out of range"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n-99999999999999999999", "phase id out of range"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 1\n3", "phase id out of range"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 -1\n0", "positive"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 inf\n0", "phase 0 .*non-finite"),
    ("CELLVOX 1\n1 1 1 1\nISO 1 abc\n0", "phase 0: .*'abc'"),
    ("CELLVOX 1\n1 1 1 1\nFULL x" + " 0" * 5 + " 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1\n0",
     "phase 0: .*'x'"),
    ("CELLVOX 1\n1 1 1 1\nFULL nan" + " 0" * 5 + " 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1\n0",
     "phase 0 .*non-finite"),
    # SPD, but beyond the conditioning that mandel.invert accepts
    ("CELLVOX 1\n1 1 1 1\nFULL 1" + " 0" * 5 + " 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1e-15\n0",
     "phase 0 .*ill-conditioned"),
])
def test_voxel_parse_errors(bad, match):
    with pytest.raises(ValueError, match=match):
        parse_voxel_text(bad)


def test_cell_rejects_non_spd_phase():
    c = np.eye(6)
    c[0, 0] = -1.0
    with pytest.raises(ValueError, match="positive definite"):
        VoxelCell((1, 1, 1), np.zeros((1, 1, 1), dtype=int), [c])


@pytest.mark.parametrize("scale", [0.5, 700.0])
def test_phase_symmetry_gate(scale):
    # the gate allows an asymmetry of 1e-12 max(1, largest entry): half of
    # it is accepted, twice it rejected with a message naming the phase
    c = ch.iso_tensor(0.2 * scale, 0.4 * scale)  # largest entry 2 mu + lam = scale
    tol = 1e-12 * max(1.0, scale)
    grid = np.array([0, 1]).reshape(2, 1, 1)
    for factor, ok in ((0.5, True), (2.0, False)):
        skew = c.copy()
        skew[1, 0] += factor * tol
        if ok:
            VoxelCell((2, 1, 1), grid, [ch.iso_tensor(1.0, 1.0), skew])
        else:
            with pytest.raises(ValueError, match="phase 1 stiffness is not symmetric"):
                VoxelCell((2, 1, 1), grid, [ch.iso_tensor(1.0, 1.0), skew])


def test_cell_is_frozen():
    grid = np.zeros((2, 1, 1), dtype=np.int64)
    cell = VoxelCell((2, 1, 1), grid, [ch.iso_tensor(1.0, 1.0), ch.iso_tensor(0.0, 1.5)])
    before = cell.mean_stiffness.copy()
    grid[1, 0, 0] = 1  # the cell keeps its own copy of the inputs
    with pytest.raises(ValueError, match="read-only"):
        cell.phase_of[1, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        cell.phases[0][3, 3] = 6.0
    for mean in (cell.mean_stiffness, cell.mean_compliance, *cell.phase_compliances):
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
