"""Run orchestration and the ``cellhom`` command-line entry point.

Artifacts written into the configured output directory:

* ``CH.txt``        homogenized stiffness, 6x6 Mandel matrix, one row per
                    line, 17 significant digits (homogenize and verify tasks)
* ``report.json``   solver reports (each with its stop reason), verification
                    residuals, wall time
* ``convergence.csv``  per-solve iteration history: label, iteration,
                    residual, gap (gap only where the solver produces one)

The homogenize and verify tasks end with two probe solves: the
strain-driven solve at ``PROBE_STRAIN`` and the AUTO Uzawa solve at that
solution's mean stress; verify's equivalence matrix checks both without
solving again.

Exit codes: 0 converged and all checks passed, 1 I/O, configuration or
command-line error (an artifact that cannot be written included), 2 solver
did not converge, 3 a verification check failed (an uncertified or
asymmetric homogenized tensor included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .cell import Lattice, cell_average, load_voxel_file
from .checks import (
    PROBE_STRAIN,
    duality_gap_displacement,
    equivalence_matrix,
    hill_mandel_residual,
    voigt_reuss_margins,
)
from .config import RunConfig, ValidationError, load_config
from .energies import MacroLoad, complementary_energy
from .fem import is_equilibrated, stencil_of, sym_gradient
from .homogenize import AsymmetricResult, dual_consistency, homogenize
from .mandel import frobenius
from .solvers import (
    NotConverged,
    SolveParams,
    solve_strain_driven,
    solve_strain_route,
    solve_stress_driven,
    solve_stress_uzawa,
)

#: verification thresholds applied by the runner, relative scales noted
HILL_MANDEL_FACTOR = 10.0      # x solver tolerance
BOUND_MARGIN_LIMIT = -1e-8     # x Frobenius norm of CH, eigenvalue floor
GAP_FACTOR = 10.0              # x solver tolerance, relative gap at optima
INVERSE_PAIR_LIMIT = 1e-8      # |CH DH - I|


def _report_of(label: str, rep) -> dict:
    out = {
        "label": label,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "stop_reason": rep.stop_reason,
        "operator_applications": rep.operator_applications,
        "preconditioner_applications": rep.preconditioner_applications,
        "final_residual": rep.residual_history[-1],
        "final_energy": rep.final_energy,
    }
    if rep.gap_history:
        out["final_gap"] = rep.gap_history[-1]
    if rep.error_bound is not None:
        out["error_bound"] = rep.error_bound
    return out


def _json_safe(obj):
    """``obj`` with every non-finite float replaced by None, so the report
    is strict JSON: ``null`` where ``json`` would write NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _format_matrix(m: np.ndarray) -> str:
    return "\n".join(" ".join(f"{v:.17g}" for v in row) for row in m) + "\n"


def _write_artifacts(outdir: Path, report: dict, rows: list, ch=None):
    if ch is not None:
        (outdir / "CH.txt").write_text(_format_matrix(ch), encoding="utf-8")
    (outdir / "report.json").write_text(
        json.dumps(_json_safe(report), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8")
    lines = ["label,iteration,residual,gap"]
    for label, rep in rows:
        gaps = rep.gap_history if rep.gap_history else [None] * len(rep.residual_history)
        for i, (res, gap) in enumerate(zip(rep.residual_history, gaps)):
            gtxt = "" if gap is None else f"{gap:.17g}"
            lines.append(f"{label},{i},{res:.17g},{gtxt}")
    (outdir / "convergence.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mean(field: np.ndarray) -> list:
    return np.asarray(np.mean(field, axis=(0, 1, 2, 3))).tolist()


def _relative_gap(cell, disp, sig, s, tol):
    """Displacement duality gap of a stress-load solution ``(disp, sig)``,
    relative to the complementary energy when that is nonzero and absolute
    otherwise (a zero load)."""
    gap = abs(duality_gap_displacement(cell, sig, disp, s, 10 * tol))
    compl = abs(complementary_energy(cell, sig))
    return gap / compl if compl > 0.0 else gap


def run(config: RunConfig, threads: int = 1, quiet: bool = False) -> int:
    """Execute one configured task; returns the process exit code.
    ``threads`` is only recorded in the report's params."""
    t0 = time.perf_counter()
    try:
        config.validate()
    except ValidationError as exc:
        print(f"cellhom: config error: {exc}", file=sys.stderr)
        return 1
    try:
        params = SolveParams(tol=config.tol, max_iter=config.max_iter,
                             uzawa_step=config.uzawa_step, seed=config.seed)
        g = np.asarray(config.lattice, dtype=float).reshape(3, 3)
        cell = load_voxel_file(config.voxel_path, Lattice(g[0], g[1], g[2]))
        outdir = Path(config.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"cellhom: {exc}", file=sys.stderr)
        return 1

    report: dict = {
        "task": config.task,
        "formulation": config.formulation,
        "voxel_path": str(config.voxel_path),
        "params": {"tol": params.tol, "max_iter": params.max_iter,
                   "uzawa_step": str(params.uzawa_step), "seed": params.seed,
                   "threads": threads},
    }
    solve_rows: list = []
    checks: dict = {}
    failures: list = []
    ch_matrix = None
    hm_limit = HILL_MANDEL_FACTOR * params.tol
    gap_limit = GAP_FACTOR * params.tol
    st = stencil_of(cell)

    def check(name, value, ok):
        """Fail the run's check ``name`` unless ``ok``; record ``value`` in
        the checks (None: it is recorded elsewhere)."""
        if value is not None:
            checks[name] = value
        if not ok:
            failures.append(name)

    try:
        if config.task in ("homogenize", "verify"):
            formulation = config.formulation if config.task == "homogenize" else "displacement"
            result = homogenize(cell, params, formulation=formulation)
            ch_matrix = result.CH
            solve_rows += [(f"column_{i + 1}", rep)
                           for i, rep in enumerate(result.per_column_reports)]
            report.update(CH=result.CH.tolist(), DH=result.DH.tolist())
            ch_norm = frobenius(result.CH)
            check("energy_check_max", float(result.energy_check.max()),
                  bool((result.energy_check <= result.energy_check_limit).all()))
            upper, lower = voigt_reuss_margins(cell, result.CH)
            check("voigt_margin", upper, upper >= BOUND_MARGIN_LIMIT * ch_norm)
            check("reuss_margin", lower, lower >= BOUND_MARGIN_LIMIT * ch_norm)
            pair = float(np.linalg.norm(result.CH @ result.DH - np.eye(6)))
            check("inverse_pair", pair, pair <= INVERSE_PAIR_LIMIT)

            # probe pair, which verify's equivalence matrix checks too:
            # Hill-Mandel at the strain-driven solution, and the duality gap
            # of the Uzawa solve at its mean stress, with the AUTO step
            # whatever uzawa_step says
            u, rep_u = solve_strain_driven(cell, PROBE_STRAIN, params)
            solve_rows.append(("probe_strain", rep_u))
            sig_u = st.stress(sym_gradient(cell, u))
            hm = hill_mandel_residual(cell, u, sig_u)
            check("hill_mandel", hm, hm <= hm_limit)
            s_probe = cell_average(cell, sig_u)
            sig, w, rep_w = solve_stress_uzawa(cell, s_probe, replace(params, uzawa_step="auto"))
            solve_rows.append(("probe_stress", rep_w))
            gap = _relative_gap(cell, w, sig, s_probe, params.tol)
            check("duality_gap_displacement", gap, gap <= gap_limit)

            if config.task == "verify":
                consist = dual_consistency(cell, result, params)
                check("dual_consistency", consist, consist <= 1e-7)
                arrows = equivalence_matrix(cell, u, sig, w)
                report["arrows"] = [
                    {"name": a.name, "residual": a.residual, "tol": a.tol,
                     "passed": a.passed} for a in arrows
                ]
                for a in arrows:
                    check(f"arrow: {a.name}", None, a.passed)

        else:  # task == "solve"
            value = np.asarray(config.macro_value, dtype=float)
            if config.formulation == "stress-uzawa":
                sig, v, rep = solve_stress_uzawa(cell, value, params)
                solve_rows.append(("uzawa", rep))
                report["mean_strain"] = _mean(st.compliance_stress(sig))
                ok, dres, mres = is_equilibrated(cell, sig, value, 10 * params.tol)
                check("stress_admissibility", max(dres, mres), ok)
                checks["hill_mandel"] = hill_mandel_residual(cell, v, sig)
                gap = _relative_gap(cell, v, sig, value, params.tol)
                check("duality_gap_displacement", gap, gap <= gap_limit)
            elif config.formulation == "strain":
                load = (MacroLoad.strain_driven(value) if config.macro_kind == "strain"
                        else MacroLoad.stress_driven(value))
                e, rep = solve_strain_route(cell, load, params)
                solve_rows.append(("strain_route", rep))
                report["mean_field"] = _mean(e)
                checks["final_residual"] = rep.residual_history[-1]
            elif config.macro_kind == "strain":
                u, rep = solve_strain_driven(cell, value, params)
                # a zero fluctuation solves any load on a homogeneous cell,
                # whose stress may still overflow
                with np.errstate(all="ignore"):
                    sig = st.stress(sym_gradient(cell, u))
                    mean_stress = _mean(sig)
                if not np.isfinite(mean_stress).all():
                    rep.converged, rep.stop_reason = False, "breakdown"
                    raise NotConverged(
                        "strain-driven solve: non-finite stress, residual "
                        f"{rep.residual_history[-1]:.3e} after {rep.iterations} iterations", rep)
                solve_rows.append(("strain_driven", rep))
                report["mean_stress"] = mean_stress
                hm = hill_mandel_residual(cell, u, sig)
                check("hill_mandel", hm, hm <= hm_limit)
            else:
                w, rep = solve_stress_driven(cell, value, params)
                solve_rows.append(("stress_driven", rep))
                e_w = sym_gradient(cell, w)
                report["mean_strain"] = _mean(e_w)
                sig = st.stress(e_w)
                hm = hill_mandel_residual(cell, w, sig)
                gap = _relative_gap(cell, w, sig, value, params.tol)
                check("hill_mandel", hm, hm <= hm_limit)
                check("duality_gap_displacement", gap, gap <= gap_limit)
        code = 3 if failures else 0
    except NotConverged as exc:
        report["error"] = str(exc)
        solve_rows.append(("failed", exc.report))
        code = 2
    except AsymmetricResult as exc:
        # an uncertified or asymmetric tensor fails the step that assembled
        # it; a homogenize failure still reports its columns
        report["error"] = str(exc)
        if exc.check == "homogenize":
            solve_rows += [(f"column_{i + 1}", rep) for i, rep in enumerate(exc.reports)]
        failures.append(exc.check)
        code = 3

    report["solves"] = [_report_of(lbl, rep) for lbl, rep in solve_rows]
    report["checks"] = checks
    if code != 2:
        report["checks_failed"] = failures
    report["wall_time_s"] = time.perf_counter() - t0
    try:
        _write_artifacts(outdir, report, solve_rows, ch=ch_matrix)
    except OSError as exc:
        print(f"cellhom: {exc}", file=sys.stderr)
        return 1
    if not quiet and code == 2:
        print(f"cellhom: not converged: {report['error']}", file=sys.stderr)
    elif not quiet:
        wrote = "CH.txt, report.json, convergence.csv" if ch_matrix is not None \
            else "report.json, convergence.csv"
        print(f"cellhom: task {config.task} done, wrote {wrote} in {outdir}")
        if failures:
            why = f": {report['error']}" if "error" in report else ""
            print(f"cellhom: checks failed: {', '.join(failures)}{why}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cellhom",
        description="Homogenize periodic voxel microstructures and verify the "
                    "equivalent solver formulations.")
    parser.add_argument("config", help="path to the key = value run configuration")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility, must be at least 1, "
                             "recorded in report.json; has no effect")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a solve that did not
        # converge; a malformed command line is an input error, so 1
        return 1 if exc.code else 0
    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"cellhom: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"cellhom: config error: {exc}", file=sys.stderr)
        return 1
    if args.threads < 1:
        print("cellhom: --threads must be at least 1", file=sys.stderr)
        return 1
    return run(config, threads=args.threads, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
