import json

import numpy as np
import pytest

import cellhom as ch
from cellhom.cell import voxel_text
from cellhom.cli import main, run
from cellhom.mandel import frobenius
from cellhom.config import ParseError, RunConfig, ValidationError, parse_config
from cellhom.microstructures import homogeneous_cell, laminate_cell, random_two_phase_cell
from test_solvers import HUGE_CELL_TEXT


def test_parse_minimal_defaults():
    cfg = parse_config("voxel_path = cell.vox\n")
    assert cfg.task == "homogenize"
    assert cfg.formulation == "displacement"
    assert cfg.tol == 1e-9 and cfg.max_iter == 10000
    assert cfg.uzawa_step == "auto" and cfg.seed == 0
    assert cfg.output_dir == "."
    np.testing.assert_array_equal(cfg.lattice, np.eye(3).ravel())


def test_parse_comments_and_blank_lines():
    cfg = parse_config("""
# run configuration
voxel_path = cell.vox   # trailing comment
task = verify

tol = 1e-7
""")
    assert cfg.task == "verify" and cfg.tol == 1e-7


def test_parse_solve_fields():
    cfg = parse_config("""
voxel_path = cell.vox
task = solve
macro_kind = stress
macro_value = 1 0 0 0 0 0.5
uzawa_step = AUTO
seed = 3
""")
    assert cfg.macro_kind == "stress"
    np.testing.assert_allclose(cfg.macro_value, [1, 0, 0, 0, 0, 0.5])
    assert cfg.uzawa_step == "auto" and cfg.seed == 3


@pytest.mark.parametrize("text, exc, needle", [
    ("voxel_path = a\ntol = -1\n", ValidationError, "tol"),
    ("voxel_path = a\ntol = many\n", ValidationError, "tol"),
    ("voxel_path = a\nmax_iter = 0\n", ValidationError, "max_iter"),
    ("voxel_path = a\nuzawa_step = -2\n", ValidationError, "uzawa_step"),
    ("voxel_path = a\ntask = fly\n", ValidationError, "task"),
    ("voxel_path = a\nlattice = 1 2 3\n", ValidationError, "lattice"),
    ("voxel_path = a\ntask = solve\n", ValidationError, "macro_kind"),
    ("voxel_path = a\nmacro_value = 1 2 3 4 5 6\n", ValidationError, "macro_value"),
    ("task = homogenize\n", ValidationError, "voxel_path"),
    ("voxel_path = a\ntask = solve\nmacro_kind = strain\n"
     "macro_value = 1 0 0 0 0 0\nformulation = stress-uzawa\n",
     ValidationError, "macro_kind"),
    ("voxel_path = a\nformulation = fem\n", ValidationError, "formulation"),
    ("voxel_path = a\nmacro_kind = heat\n", ValidationError, "macro_kind"),
    ("voxel_path = a\nseed = 1.5\n", ValidationError, "seed"),
    ("voxel_path = a\nseed = -1\n", ValidationError, "seed"),
    ("voxel_path = a\nmax_iter = 1.5\n", ValidationError, "max_iter"),
    ("voxel_path = a\nuzawa_step = fast\n", ValidationError, "uzawa_step"),
    ("voxel_path = a\ntask = solve\nmacro_kind = strain\nmacro_value = 1 0 0 0 0\n",
     ValidationError, "macro_value"),
])
def test_validation_errors(text, exc, needle):
    with pytest.raises(exc, match=needle) as err:
        parse_config(text)
    assert err.value.field == needle


def test_parse_hash_inside_value_is_kept():
    cfg = parse_config("voxel_path = /data/run#3/cell.vox   # comment\n")
    assert cfg.voxel_path == "/data/run#3/cell.vox"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config("voxel_path = a\nnot a pair\n")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("voxel_path = a\ncolor = blue\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("voxel_path = a\nvoxel_path = b\n")


def _write_inputs(tmp_path, cell, extra=""):
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(cell), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\n" + extra,
        encoding="utf-8")
    return cfg


def test_run_homogeneous_exit0(tmp_path):
    cell = homogeneous_cell(dims=(2, 2, 2))
    cfg = _write_inputs(tmp_path, cell, "task = homogenize\n")
    assert main([str(cfg), "--quiet"]) == 0
    ch_rows = (tmp_path / "out" / "CH.txt").read_text().strip().splitlines()
    got = np.array([[float(v) for v in row.split()] for row in ch_rows])
    assert np.abs(got - cell.phases[0]).max() <= 1e-10
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks_failed"] == []
    assert "wall_time_s" in report
    csv = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert csv[0] == "label,iteration,residual,gap"
    assert len(csv) > 6


def test_run_exit2_on_iteration_budget(tmp_path):
    cfg = _write_inputs(tmp_path, laminate_cell(),
                        "task = homogenize\nmax_iter = 1\ntol = 1e-14\n")
    assert main([str(cfg), "--quiet"]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" in report and report["solves"]


def test_run_uzawa_budget_exits_2_naming_the_budget(tmp_path):
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(random_two_phase_cell()), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), task="solve", formulation="stress-uzawa",
                    macro_kind="stress", macro_value=[1.0, 0.2, 0, 0, 0, 0],
                    max_iter=1, output_dir=str(tmp_path / "out"))
    assert run(cfg, quiet=True) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "iteration budget spent" in report["error"]
    assert report["solves"][-1]["stop_reason"] == "budget"


def test_run_step_too_large_exits_2(tmp_path):
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(random_two_phase_cell()), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), task="solve", formulation="stress-uzawa",
                    macro_kind="stress", macro_value=[1.0, 0, 0, 0, 0, 0],
                    uzawa_step=50.0, output_dir=str(tmp_path / "out"))
    assert run(cfg, quiet=True) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "uzawa gap grew" in report["error"]
    assert report["solves"][-1]["stop_reason"] == "step-too-large"


def test_run_unwritable_artifact_exits_1_naming_it(tmp_path, capsys):
    cfg = _write_inputs(tmp_path, homogeneous_cell(dims=(2, 2, 2)), "task = homogenize\n")
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    assert main([str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "report.json" in err and "Traceback" not in err


def test_run_ill_conditioned_phase_exits_1_naming_it(tmp_path, capsys):
    vox = tmp_path / "cell.vox"
    vox.write_text("CELLVOX 1\n2 1 1 2\nISO 1 1\n"
                   "FULL 1 0 0 0 0 0 1 0 0 0 0 1 0 0 0 1 0 0 1 0 1e-15\n0 1\n",
                   encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main([str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "phase 1" in err and "ill-conditioned" in err and "Traceback" not in err


def test_run_verify_lists_arrows(tmp_path):
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = verify\n")
    code = main([str(cfg), "--quiet"])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert code == 0
    assert report["arrows"] and all(a["passed"] for a in report["arrows"])
    assert "dual_consistency" in report["checks"]


def test_run_verify_builds_one_core(tmp_path, core_builds):
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = verify\n")
    assert main([str(cfg), "--quiet"]) == 0
    assert len(core_builds) == 1


def test_run_solve_strain(tmp_path):
    cfg = _write_inputs(
        tmp_path, random_two_phase_cell(),
        "task = solve\nmacro_kind = strain\nmacro_value = 1 0 0 0 0 0\n")
    assert main([str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "mean_stress" in report
    assert not (tmp_path / "out" / "CH.txt").exists()


def test_run_solve_uzawa(tmp_path):
    cfg = _write_inputs(
        tmp_path, random_two_phase_cell(),
        "task = solve\nformulation = stress-uzawa\nmacro_kind = stress\n"
        "macro_value = 1 0.2 0 0 0 0\ntol = 1e-8\n")
    assert main([str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["solves"][0]["label"] == "uzawa"
    assert report["solves"][0]["final_gap"] <= 1e-8 * abs(
        report["solves"][0]["final_energy"]) * 10


def test_run_homogenize_uzawa_formulation(tmp_path):
    cell = random_two_phase_cell()
    cfg = _write_inputs(tmp_path, cell,
                        "task = homogenize\nformulation = stress-uzawa\n")
    assert main([str(cfg), "--quiet"]) == 0
    got = np.loadtxt(tmp_path / "out" / "CH.txt")
    expect = ch.homogenize(cell).CH
    assert np.abs(got - expect).max() <= 1e-6 * np.linalg.norm(expect)


@pytest.mark.parametrize("extra, key", [
    ("tol = inf\n", "tol"),
    ("task = solve\nmacro_kind = stress\nmacro_value = nan 0 0 0 0 0\n", "macro_value"),
    ("formulation = stress-uzawa\nuzawa_step = inf\n", "uzawa_step"),
    ("task = solve\nmacro_kind = stress\nmacro_value = inf 0 0 0 0 0\n", "macro_value"),
    ("lattice = nan 0 0 0 1 0 0 0 1\n", "lattice"),
    ("lattice = 1e308 0 0 0 1e308 0 0 0 1e308\n", "lattice"),
])
def test_run_non_finite_config_is_input_error(tmp_path, capsys, extra, key):
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), extra)
    assert main([str(cfg), "--quiet"]) == 1
    assert f"config error: {key}:" in capsys.readouterr().err


def _count_stress_solves(monkeypatch):
    """Lists that record each stress-driven and each Uzawa solve, whatever
    module calls it."""
    import importlib

    import cellhom.checks as checks
    import cellhom.cli as cli
    import cellhom.solvers as solvers

    # the package's homogenize attribute is the function, not the module
    homogenize = importlib.import_module("cellhom.homogenize")
    counts = {}
    for name in ("solve_stress_driven", "solve_stress_uzawa"):
        calls = counts[name] = []

        def counting(*args, _solve=getattr(solvers, name), _calls=calls, **kwargs):
            _calls.append(args)
            return _solve(*args, **kwargs)

        for module in (solvers, cli, checks, homogenize):
            monkeypatch.setattr(module, name, counting, raising=False)
    return counts["solve_stress_driven"], counts["solve_stress_uzawa"]


def test_run_homogenize_solves_each_probe_once(tmp_path, monkeypatch):
    # the probe stress is one AUTO Uzawa solve, even with a fixed uzawa_step
    stress_calls, uzawa_calls = _count_stress_solves(monkeypatch)
    cfg = _write_inputs(tmp_path, random_two_phase_cell(),
                        "task = homogenize\nuzawa_step = 0.8\n")
    assert main([str(cfg), "--quiet"]) == 0
    assert (len(stress_calls), len(uzawa_calls)) == (0, 1)
    assert uzawa_calls[0][2].uzawa_step == "auto"
    labels = [s["label"] for s in json.loads(
        (tmp_path / "out" / "report.json").read_text())["solves"]]
    assert labels[6:] == ["probe_strain", "probe_stress"]
    labels = [s["label"] for s in json.loads(
        (tmp_path / "out" / "report.json").read_text())["solves"]]
    assert labels[6:] == ["probe_strain", "probe_stress"]


def test_run_verify_solves_the_probe_strain_once(tmp_path, monkeypatch):
    # the run's probe solves, which the equivalence matrix checks instead of
    # solving them again: one strain-driven solve of the probe strain and
    # one Uzawa solve of its mean stress; the six stress-driven solves are
    # those of dual consistency
    import cellhom.checks as checks
    import cellhom.cli as cli
    import cellhom.solvers as solvers

    calls = []

    def counting(cell, macro_strain, *args, **kwargs):
        calls.append(np.array_equal(macro_strain, checks.PROBE_STRAIN))
        return strain_driven(cell, macro_strain, *args, **kwargs)

    strain_driven = solvers.solve_strain_driven
    for module in (solvers, cli, checks):
        monkeypatch.setattr(module, "solve_strain_driven", counting, raising=False)
    stress_calls, uzawa_calls = _count_stress_solves(monkeypatch)
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = verify\n")
    assert main([str(cfg), "--quiet"]) == 0
    assert sum(calls) == 1
    assert (len(stress_calls), len(uzawa_calls)) == (6, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [s["label"] for s in report["solves"]][6:] == ["probe_strain", "probe_stress"]
    assert "final_gap" in report["solves"][-1]
    assert "duality_gap_strain" not in report["checks"]


@pytest.mark.parametrize("ids", ["0 0 0 1 1 0 0 0", "0 1 1 0 1 0 0 1"])
def test_run_verify_passes_where_the_fluctuation_is_rounding(tmp_path, ids):
    # CH is the Voigt bound on these cells, so the computed fluctuation is
    # rounding noise; verify still passes every arrow
    vox = tmp_path / "cell.vox"
    vox.write_text(f"CELLVOX 1\n2 2 2 2\nISO 1 1\nISO 4 4\n{ids}\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\ntask = verify\n",
                   encoding="utf-8")
    assert main([str(cfg), "--quiet"]) == 0


def test_run_missing_voxel_is_io_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("voxel_path = /nonexistent/cell.vox\n", encoding="utf-8")
    assert main([str(cfg), "--quiet"]) == 1


def test_run_non_finite_modulus_is_input_error(tmp_path, capsys):
    vox = tmp_path / "cell.vox"
    vox.write_text("CELLVOX 1\n1 1 1 1\nISO 1 inf\n0\n", encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"voxel_path = {vox}\n", encoding="utf-8")
    assert main([str(cfg), "--quiet"]) == 1
    assert "phase 0" in capsys.readouterr().err


def test_main_config_errors(tmp_path, capsys):
    assert main([str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("voxel_path = a\ntol = -3\n", encoding="utf-8")
    assert main([str(bad), "--quiet"]) == 1
    good = tmp_path / "good.cfg"
    good.write_text("voxel_path = a\n", encoding="utf-8")
    assert main([str(good), "--threads", "0"]) == 1
    # usage errors exit 1 with argparse's message, not argparse's 2, which
    # cellhom reserves for a solve that did not converge
    capsys.readouterr()
    for argv, needle in (([str(good), "--threads", "abc"], "invalid int value: 'abc'"),
                         ([str(good), "--bogus"], "unrecognized arguments: --bogus"),
                         ([], "the following arguments are required: config")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert needle in err and "usage: cellhom" in err
    assert main(["--help"]) == 0
    assert "usage: cellhom" in capsys.readouterr().out


def test_run_negative_seed_exits_1_naming_seed(tmp_path, capsys):
    cfg = RunConfig(voxel_path=str(tmp_path / "cell.vox"), task="verify", seed=-1,
                    output_dir=str(tmp_path / "out"))
    assert run(cfg, quiet=True) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("tol", "abc"), ("tol", None), ("max_iter", "10"), ("max_iter", 2.5)])
def test_run_solver_param_of_wrong_type_exits_1(tmp_path, capsys, field, value):
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(homogeneous_cell(dims=(2, 2, 2))), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), task="verify", output_dir=str(tmp_path / "out"),
                    **{field: value})
    assert run(cfg, quiet=True) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_numpy_scalar_params_exit_0(tmp_path):
    # numpy scalars are valid solver parameters and report.json records them
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(homogeneous_cell(dims=(2, 2, 2))), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), task="verify", output_dir=str(tmp_path / "out"),
                    tol=np.float64(1e-9), max_iter=np.int64(500), seed=np.int64(2))
    assert run(cfg, quiet=True) == 0
    params = json.loads((tmp_path / "out" / "report.json").read_text())["params"]
    assert (params["tol"], params["max_iter"], params["seed"]) == (1e-9, 500, 2)


@pytest.mark.parametrize("formulation", ["displacement", "stress-uzawa"])
def test_zero_stress_load_exits_0(tmp_path, formulation):
    # a zero mean stress has zero complementary energy: the gap is absolute
    cfg = _write_inputs(
        tmp_path, random_two_phase_cell(),
        f"task = solve\nformulation = {formulation}\nmacro_kind = stress\n"
        "macro_value = 0 0 0 0 0 0\n")
    assert main([str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["duality_gap_displacement"] == 0.0
    assert report["checks_failed"] == []


def test_run_custom_lattice(tmp_path):
    cell = homogeneous_cell(dims=(2, 2, 2))
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(cell), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\n"
        "lattice = 2 0 0 0 1 0 0 0 0.5\n", encoding="utf-8")
    assert main([str(cfg), "--quiet"]) == 0
    got = np.loadtxt(tmp_path / "out" / "CH.txt")
    assert np.abs(got - cell.phases[0]).max() <= 1e-10


def test_byte_identical_reruns(tmp_path):
    cell = random_two_phase_cell()
    outs = []
    for threads, sub in ((1, "one"), (8, "eight")):
        vox = tmp_path / sub / "cell.vox"
        vox.parent.mkdir()
        vox.write_text(voxel_text(cell), encoding="utf-8")
        cfg = tmp_path / sub / "run.cfg"
        cfg.write_text(
            f"voxel_path = {vox}\noutput_dir = {tmp_path / sub / 'out'}\n",
            encoding="utf-8")
        assert main([str(cfg), "--threads", str(threads), "--quiet"]) == 0
        outs.append((tmp_path / sub / "out"))
    ch_1 = (outs[0] / "CH.txt").read_bytes()
    ch_8 = (outs[1] / "CH.txt").read_bytes()
    assert ch_1 == ch_8
    conv_1 = (outs[0] / "convergence.csv").read_bytes()
    conv_8 = (outs[1] / "convergence.csv").read_bytes()
    assert conv_1 == conv_8
    r1 = json.loads((outs[0] / "report.json").read_text())
    r8 = json.loads((outs[1] / "report.json").read_text())
    for r in (r1, r8):
        r.pop("wall_time_s")
        r.pop("voxel_path")
        r["params"].pop("threads")
    assert r1 == r8


def test_run_exit3_on_check_failure(tmp_path, monkeypatch):
    # force the energy-consistency threshold to an unreachable value so the
    # check-failure exit path is exercised without a synthetic solver bug
    import cellhom.cli as cli

    monkeypatch.setattr(cli, "ENERGY_CHECK_LIMIT", -1.0)
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = homogenize\n")
    assert main([str(cfg), "--quiet"]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "energy_check_max" in report["checks_failed"]
    assert (tmp_path / "out" / "CH.txt").exists()


def test_run_config_dataclass_roundtrip(tmp_path):
    cell = homogeneous_cell(dims=(2, 2, 2))
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(cell), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), task="homogenize",
                    output_dir=str(tmp_path / "out"))
    assert run(cfg, quiet=True) == 0


def test_run_config_checks_rules_when_built(tmp_path):
    with pytest.raises(ValidationError) as err:
        RunConfig(voxel_path=str(tmp_path / "cell.vox"), task="fly")
    assert err.value.field == "task"
    with pytest.raises(ValidationError) as err:
        RunConfig(voxel_path=str(tmp_path / "cell.vox"), task="solve", macro_kind="strain",
                  macro_value=np.zeros(5))
    assert err.value.field == "macro_value"


def test_run_changed_config_exits_1_naming_field(tmp_path, capsys):
    cell = homogeneous_cell(dims=(2, 2, 2))
    vox = tmp_path / "cell.vox"
    vox.write_text(voxel_text(cell), encoding="utf-8")
    cfg = RunConfig(voxel_path=str(vox), output_dir=str(tmp_path / "out"))
    cfg.task = "fly"
    assert run(cfg, quiet=True) == 1
    assert "config error: task:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, first", [
    ("voxel_path = a\ntol = -1\ntask = fly\n", "task"),
    ("voxel_path = a\nseed = 1.5\nformulation = fem\n", "formulation"),
    ("voxel_path = a\nmacro_kind = strain\nmax_iter = 0\n", "max_iter"),
    ("voxel_path = a\ntask = solve\nmacro_kind = strain\nuzawa_step = fast\n", "uzawa_step"),
])
def test_parse_reports_first_error_in_key_order(text, first):
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert err.value.field == first


def test_report_records_stop_reason(tmp_path):
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = homogenize\n")
    assert main([str(cfg), "--quiet"]) == 0
    solves = json.loads((tmp_path / "out" / "report.json").read_text())["solves"]
    assert [s["stop_reason"] for s in solves] == ["converged"] * len(solves)
    cfg = _write_inputs(tmp_path, laminate_cell(),
                        "task = homogenize\nmax_iter = 1\ntol = 1e-14\n")
    assert main([str(cfg), "--quiet"]) == 2
    solves = json.loads((tmp_path / "out" / "report.json").read_text())["solves"]
    assert solves[-1]["label"] == "failed" and solves[-1]["stop_reason"] == "budget"


def test_report_records_application_counts(tmp_path):
    # a homogenization column applies the operator once for its load and
    # once per iteration, the preconditioner once per iteration
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), "task = homogenize\n")
    assert main([str(cfg), "--quiet"]) == 0
    solves = json.loads((tmp_path / "out" / "report.json").read_text())["solves"]
    columns = [s for s in solves if s["label"].startswith("column_")]
    assert len(columns) == 6
    for s in columns:
        assert s["operator_applications"] == s["iterations"] + 1
        assert s["preconditioner_applications"] == s["iterations"]


HUGE_MACRO = "macro_value = 1e308 1e308 1e308 0 0 0\n"


def _reject_constant(token):
    raise ValueError(f"report.json is not strict JSON: {token}")


def test_ch_norm_keeps_numpy_bits_and_does_not_overflow():
    rng = np.random.default_rng(3)
    for scale in (1e-3, 1.0, 7.5, 1e5):
        m = scale * rng.standard_normal((6, 6))
        assert frobenius(m) == np.linalg.norm(m)
    assert frobenius(np.zeros((6, 6))) == 0.0
    assert frobenius(np.full((6, 6), 1e300)) == pytest.approx(6e300, rel=1e-15)
    assert frobenius(np.full((6, 6), 1e308)) == np.inf


@pytest.mark.parametrize("extra", [
    "task = solve\nmacro_kind = strain\n" + HUGE_MACRO,
    "task = solve\nformulation = stress-uzawa\nmacro_kind = stress\n" + HUGE_MACRO,
    "task = solve\nformulation = stress-uzawa\nuzawa_step = 0.8\nmacro_kind = stress\n"
    + HUGE_MACRO,
    "task = homogenize\n",
    # the stress-uzawa columns converge on this cell; the norm of its CH
    # (about 1e301) must not overflow before the probe breaks down
    "task = homogenize\nformulation = stress-uzawa\n",
])
def test_run_out_of_float_range_exits_2_naming_the_right_hand_side(tmp_path, capsys, extra):
    # a finite macro_value whose load overflows, and a cell whose unit-strain
    # loads do: each solve stops at once as a breakdown, with no NumPy
    # warning (pytest would raise it) and no traceback; the report stays
    # strict JSON, a non-finite residual or energy written as null
    if extra.startswith("task = homogenize"):
        vox = tmp_path / "cell.vox"
        vox.write_text(HUGE_CELL_TEXT, encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"voxel_path = {vox}\noutput_dir = {tmp_path / 'out'}\n{extra}",
                       encoding="utf-8")
    else:
        cfg = _write_inputs(tmp_path, random_two_phase_cell(), extra)
    assert main([str(cfg)]) == 2
    assert "non-finite right-hand side" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["solves"][-1]["stop_reason"] == "breakdown"
    assert report["solves"][-1]["iterations"] == 0


@pytest.mark.parametrize("extra", [
    "formulation = stress-uzawa\n", "formulation = stress-uzawa\nuzawa_step = 0.8\n", ""])
def test_run_underflowing_stress_load_exits_2_naming_the_underflow(tmp_path, capsys, extra):
    # the squared norm of a 1e-200 load underflows to 0; each stress route
    # stops before its first step, with a strict-JSON report
    extra += "task = solve\nmacro_kind = stress\nmacro_value = 1e-200 1e-200 1e-200 0 0 0\n"
    cfg = _write_inputs(tmp_path, random_two_phase_cell(), extra)
    assert main([str(cfg)]) == 2
    assert "right-hand side underflows" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert [(s["stop_reason"], s["iterations"]) for s in report["solves"]] == [("breakdown", 0)]


@pytest.mark.parametrize("load", ["1e308", "3e307"])
def test_run_strain_load_whose_stress_overflows_exits_2_naming_the_stress(
        tmp_path, capsys, load):
    # on a homogeneous cell the zero fluctuation solves any mean strain in 0
    # iterations; at 1e308 its stress overflows, at 3e307 the stress is
    # finite and its mean overflows: a breakdown, with no NumPy warning
    extra = f"task = solve\nmacro_kind = strain\nmacro_value = {load} {load} {load} 0 0 0\n"
    cfg = _write_inputs(tmp_path, homogeneous_cell(dims=(2, 2, 2)), extra)
    assert main([str(cfg)]) == 2
    assert "strain-driven solve: non-finite stress" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert "mean_stress" not in report
    assert [(s["stop_reason"], s["iterations"]) for s in report["solves"]] == [("breakdown", 0)]


def test_run_strain_load_whose_energy_products_overflow_exits_0(tmp_path):
    # on a homogeneous cell a 1e200 strain has a finite stress, but the
    # Hill-Mandel products of the two (about 1e400) overflow unless each
    # field is scaled first; pytest raises a NumPy warning
    extra = "task = solve\nmacro_kind = strain\nmacro_value = 1e200 1e200 1e200 0 0 0\n"
    cfg = _write_inputs(tmp_path, homogeneous_cell(dims=(2, 2, 2)), extra)
    assert main([str(cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["checks"]["hill_mandel"] <= 1e-14
