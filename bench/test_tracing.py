"""Tests of the benchmark's tracer and inputs.

    PYTHONPATH=src python -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cellhom as ch
from cellhom import fem, microstructures, solvers

import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def _cellhom_attrs():
    return [(name, attr, id(val)) for name, mod in list(sys.modules.items())
            if name == "cellhom" or name.startswith("cellhom.")
            for attr, val in vars(mod).items()]


def _traced_function_ids():
    ids = set()
    for short in tracing.TRACED_MODULES:
        mod = sys.modules[f"cellhom.{short}"]
        ids |= {id(f) for a, f in vars(mod).items() if not a.startswith("_")
                and inspect.isfunction(f) and f.__module__ == mod.__name__}
    return ids


def test_every_alias_is_patched_and_restored():
    assert solvers.div_adjoint is fem.div_adjoint  # imported by name
    before = _cellhom_attrs()
    originals = _traced_function_ids()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        left = [f"{n}.{a}" for n, a, v in _cellhom_attrs() if v in originals]
        assert not left, f"still unwrapped: {left}"
        assert "fem.div_adjoint" in tracer.installed
        # the package attribute is the function; the module comes from sys.modules
        assert ch.homogenize is sys.modules["cellhom.homogenize"].homogenize
        assert hasattr(ch.homogenize, "__wrapped__")
    assert _cellhom_attrs() == before


def test_counts_of_one_displacement_homogenize():
    cell = microstructures.fixture("d")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.run_id = 1
        result = ch.homogenize(cell)
    m = tracing.pass_metrics(tracer, 1, 1.0, cells=1, artifact_bytes=0)
    assert m["solvers.iterations"] == sum(r.iterations for r in result.per_column_reports)
    assert m["solvers.Stencil.init.calls"] == 7
    assert m["solvers.stencils_per_cell"] == 7.0
    assert m["solvers.solve_strain_driven.calls"] == 6
    assert m["solvers.Stencil.ref_pinv.builds"] == 6
    assert m["homogenize.homogenize.total_s"] >= m["homogenize.homogenize.self_s"] > 0.0
    assert m["solvers.Stencil.k_phi.calls"] > 0


def test_missing_target_is_absent_not_an_error(monkeypatch):
    monkeypatch.delattr(solvers.Stencil, "k_phi")
    monkeypatch.setitem(tracing.TRACED_MEMBERS, ("solvers", "Stencil"),
                        tracing.TRACED_MEMBERS[("solvers", "Stencil")] + ("no_such_member",))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        tracer.run_id = 1
        ch.cell_average(microstructures.fixture("a"), np.zeros((4, 4, 4, 8, 6)))
    m = tracing.pass_metrics(tracer, 1, 1.0, cells=1, artifact_bytes=0)
    assert "solvers.Stencil.k_phi.calls" not in m
    assert "solvers.Stencil.k_ext.calls" in m
    assert m["cell.cell_average.calls"] == 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.enter("a")
    inner = tracer.enter("b")
    tracer.exit(inner)
    tracer.exit(outer)
    b, a = tracer.spans
    assert b[1] == a[0] and a[1] is None
    assert a[7] == pytest.approx((a[6] - a[5]) - (b[6] - b[5]), abs=1e-6)


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_spec()


def test_seed_7_reproduces_the_frozen_fixture():
    inp = workloads.two_phase_input((4, 4, 4), 7)
    cell = ch.parse_voxel_text(inp.text)
    ref = microstructures.random_two_phase_cell()
    assert np.array_equal(cell.phase_of, ref.phase_of)
    assert all(np.array_equal(p, q) for p, q in zip(cell.phases, ref.phases))


def test_inputs_follow_the_seed():
    assert [c.text for c in workloads.sweep_inputs(3)] == [c.text for c in workloads.sweep_inputs(3)]
    assert workloads.sweep_inputs(3)[-1].text != workloads.sweep_inputs(4)[-1].text
    assert workloads.two_phase_input((8, 8, 8), 3).text != workloads.two_phase_input((8, 8, 8), 4).text


def test_default_and_held_out_seeds_have_references():
    refs = workloads.load_references()
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        for name in workloads.WORKLOADS:
            assert str(seed) in refs[name], (name, seed)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "homog-16", "--seconds", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
