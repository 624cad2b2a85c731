"""Run one cellhom benchmark workload and print its metrics.

    python3 bench/run.py --workload homog-16 --seed 7 --seconds 30 --trace 0

Workloads (see README.md for why each exists): ``homog-16``,
``sweep-small``, ``verify-8``. Each is a closed loop: one caller, and the
next pass starts only when the last one has finished; passes repeat until
``--seconds`` have elapsed (at least one pass).

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``
(median pass time), ``setup_s`` (median over repeats, taken before every
pass, of turning the input texts into ready cells), ``peak_rss_mb`` and
``solver_iters``. With
``--trace 1`` it first times untraced passes for a third of the run, then
traces the rest and reports the per-layer metrics, with the tracing
overhead. Every output is checked; failed operations are counted, never
fatal. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
start with ``#`` and record the environment, the samples and any problem.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so a timing never depends on how
# many threads BLAS would have picked.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

#: before every pass, set-up is repeated at least this many times, and more
#: while time allows; spreading the samples over the run lets their median
#: see the same machine as the passes do
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 20
SETUP_BUDGET_S = 0.1


def say(text: str):
    print(f"# {text}", flush=True)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy._core._multiarray_umath as umath

    lib = ctypes.CDLL(umath.__file__)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "git_commit": git_commit(),
    }


def measure_setup(wl) -> list:
    times: list = []
    deadline = time.perf_counter() + SETUP_BUDGET_S
    while len(times) < SETUP_MIN_REPS or (len(times) < SETUP_MAX_REPS
                                           and time.perf_counter() < deadline):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_passes(wl, seconds: float, tracer=None, setup_times: list | None = None) -> list:
    """Closed loop of passes until ``seconds`` have elapsed; ``[(wall_s, result)]``.

    With ``setup_times``, set-up samples are taken before each pass, untimed.
    """
    passes: list = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wl.before_pass()
        if setup_times is not None:
            setup_times += measure_setup(wl)
        if tracer is not None:
            tracer.run_id = len(passes) + 1
        t0 = time.perf_counter()
        res = wl.run_pass()
        wall = time.perf_counter() - t0
        wl.after_pass(res)
        passes.append((wall, res))
    return passes


def spread(values: list) -> str:
    text = f"n={len(values)} median={statistics.median(values):.6g}"
    if len(values) < 2:
        return text
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{text} q1={q1:.6g} q3={q3:.6g}"


def end_to_end(wl, seconds: float):
    """Untraced passes with set-up samples between them: ``(metrics, passes)``."""
    setup: list = []
    passes = run_passes(wl, seconds, setup_times=setup)
    walls = [w for w, _ in passes]
    iters = [r.iterations for _, r in passes]
    say(f"wall_s {spread(walls)} samples {[round(w, 4) for w in walls]}")
    say(f"setup_s {spread(setup)}")
    say(f"solver_iters per pass {iters}")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "solver_iters": (statistics.median(iters), "count"),
    }, passes


def per_layer(wl, seconds: float, spans_file: Path):
    """Untraced passes for a third of the time, then traced ones: ``(metrics, passes)``."""
    import tracing

    untraced = run_passes(wl, seconds / 3.0)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced = run_passes(wl, max(seconds - sum(w for w, _ in untraced), 0.0), tracer)
    values = tracing.median_metrics([
        tracing.pass_metrics(tracer, n + 1, w, wl.cells_per_pass, r.artifact_bytes)
        for n, (w, r) in enumerate(traced)])
    values["trace.overhead_frac"] = (statistics.median(w for w, _ in traced)
                                     / statistics.median(w for w, _ in untraced) - 1.0)
    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    say(f"untraced wall_s {spread([w for w, _ in untraced])}")
    say(f"traced wall_s {spread([w for w, _ in traced])}")
    absent = [name for name in units if name not in values]
    if absent:
        say(f"absent (target no longer exists): {', '.join(absent)}")
    tracer.write_csv(spans_file)
    say(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return {k: (v, units[k]) for k, v in values.items() if k in units}, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one cellhom benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cellhom" / "__init__.py").is_file():
        print(f"bench: cellhom sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    say("env " + json.dumps(environment(args), sort_keys=True))

    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    try:
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        if any(r is None for r in wl.refs):
            say(f"no stored reference CH for some cells at seed {args.seed}; "
                "those are checked without it")
        trouble = wl.warm_up()
        if trouble:
            say(f"warm-up failed: {trouble}")
        if args.trace:
            spans_file = RESULTS / f"spans-{args.workload}-s{args.seed}.csv"
            metrics, passes = per_layer(wl, args.seconds, spans_file)
        else:
            metrics, passes = end_to_end(wl, args.seconds)
        final = wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for _, r in passes for f in r.failures]
    wrong = [w for _, r in passes for w in r.wrong] + final
    for line in dict.fromkeys(failures):
        say(f"failed: {line}")
    for line in dict.fromkeys(wrong):
        say(f"wrong: {line}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r.attempted for _, r in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
