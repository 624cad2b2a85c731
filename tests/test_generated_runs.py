"""Generated runs through ``cli.main``, in process: seeded random cells on
seeded sheared lattices, each of which ``verify`` must pass with a strict-JSON
report and no NumPy warning."""

import json

import numpy as np
import pytest

from cellhom.cell import voxel_text
from cellhom.cli import main
from cellhom.microstructures import random_cell, random_two_phase_cell


def _reject_constant(token):
    raise ValueError(f"report.json is not strict JSON: {token}")


def _verify(tmp_path, cell, extra=""):
    """Exit code and strict-JSON report of ``verify`` on ``cell``."""
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(cell), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\ntask = verify\n"
                   + extra, encoding="utf-8")
    code = main([str(cfg), "--quiet"])
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"),
                        parse_constant=_reject_constant)
    return code, report


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", range(60))
def test_verify_passes_on_a_generated_sheared_cell(tmp_path, seed):
    # 3 to 5 voxels a side, two random SPD phases, generators perturbed
    # from the unit cube by up to 0.3 per entry, which keeps them independent
    rng = np.random.default_rng(seed)
    dims = tuple(int(n) for n in rng.integers(3, 6, size=3))
    gens = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
    lattice = " ".join(repr(float(v)) for v in gens.ravel())
    code, report = _verify(tmp_path, random_cell(dims, seed=seed), f"lattice = {lattice}\n")
    assert code == 0, report.get("checks_failed", report.get("error"))
    probe = [s for s in report["solves"] if s["label"] == "probe_stress"]
    assert len(probe) == 1 and probe[0]["final_gap"] is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_ignores_a_fixed_uzawa_step_on_a_high_contrast_cell(tmp_path):
    # the probe stress is solved with the AUTO step whatever uzawa_step says;
    # a fixed step of 0.8 makes the gap of this cell grow
    cell = random_two_phase_cell((6, 6, 6), seed=5, phase_b=(1000.0, 1000.0), fraction=0.2)
    code, report = _verify(tmp_path, cell, "uzawa_step = 0.8\n")
    assert code == 0, report.get("checks_failed", report.get("error"))
    assert report["params"]["uzawa_step"] == "0.8"
