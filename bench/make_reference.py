"""Regenerate ``reference.json``: the CH of every benchmark cell, by seed.

The stored values were produced at the commit that introduced the
benchmark; later runs compare their CH against them to ``REF_TOL``. Only
regenerate when the meaning of a workload's inputs changes, never to make a
changed program pass. Existing entries are kept; missing seeds are added.

    python3 bench/make_reference.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cellhom as ch  # noqa: E402

import workloads as wl  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def chs(inputs) -> list:
    return [wl.to_upper(ch.homogenize(wl.ready_cell(inp)).CH) for inp in inputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-31"),
                        help="inclusive range such as 0-31")
    args = parser.parse_args(argv)
    refs = wl.load_references()
    sweep = refs.setdefault("sweep-small", {})
    if "fixtures" not in sweep:
        sweep["fixtures"] = chs(wl.fixture_inputs())
    for seed in args.seeds:
        key = str(seed)
        if key not in refs.setdefault("homog-16", {}):
            refs["homog-16"][key] = chs([wl.two_phase_input((16, 16, 16), seed)])
        if key not in refs.setdefault("verify-8", {}):
            refs["verify-8"][key] = chs([wl.two_phase_input((8, 8, 8), seed)])
        if key not in sweep:
            sweep[key] = chs(wl.sweep_inputs(seed)[len(sweep["fixtures"]):])
        wl.REFERENCE_FILE.write_text(json.dumps(refs, sort_keys=True) + "\n", encoding="utf-8")
        print(f"seed {seed} done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
