"""Seeded inputs and the three benchmark workloads.

Every workload turns its seed into CELLVOX text (plus a lattice, or a config
file for the command line) before anything is timed, and hands cellhom only
that text. One *pass* of a workload goes from the input text to checked
outputs; it is what ``wall_s`` times. One *operation* is one cell
homogenized or one command-line run; failed operations are counted, never
raised.

cellhom is reached only through its public entry points, looked up on the
module at call time (``ch.homogenize``, ``cli.main``), so the tracer's
patches see every call the workloads make.
"""

from __future__ import annotations

import itertools
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cellhom as ch
from cellhom import cli, config

DEFAULT_SEED = 7
#: a seed kept out of tuning, to re-check a claimed gain on unseen inputs
HELD_OUT_SEED = 11

#: relative distance allowed between a CH and the stored reference CH
REF_TOL = 1e-8
#: relative asymmetry allowed in a returned CH
SYM_TOL = 1e-10
#: Voigt/Reuss margins must be at least this times the Frobenius norm of CH
MARGIN_FLOOR = -1e-8
#: relative distance allowed between a CH column and the dense oracle's
DENSE_TOL = 1e-7
#: the dense oracle's own size limit in displacement unknowns
DENSE_DOF_LIMIT = 200

REFERENCE_FILE = Path(__file__).with_name("reference.json")

MANDEL_ONES = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# inputs


@dataclass
class CellInput:
    """One generated cell: its CELLVOX text plus what the checks need.

    ``phases`` and ``grid`` are the benchmark's own copy of the material, so
    the bound and oracle checks do not read it back from the program.
    """

    label: str
    text: str
    phases: list
    grid: np.ndarray
    lattice: np.ndarray | None = None  # 3x3, generators as columns

    @property
    def n_voxels(self) -> int:
        return int(self.grid.size)


def iso(lam: float, mu: float) -> np.ndarray:
    """Isotropic Mandel stiffness."""
    return lam * np.outer(MANDEL_ONES, MANDEL_ONES) + 2.0 * mu * np.eye(6)


def cellvox(dims, phase_lines, grid) -> str:
    n1, n2, n3 = dims
    ids = np.asarray(grid).transpose(2, 1, 0).ravel()  # i fastest, then j, k
    rows = [" ".join(str(int(v)) for v in ids[s:s + 16]) for s in range(0, ids.size, 16)]
    return "\n".join(["CELLVOX 1", f"{n1} {n2} {n3} {len(phase_lines)}", *phase_lines, *rows]) + "\n"


def full_line(c: np.ndarray) -> str:
    return "FULL " + " ".join(f"{c[i, j]:.17g}" for i in range(6) for j in range(i, 6))


def iso_cell(label, dims, grid, moduli) -> CellInput:
    lines = [f"ISO {lam:g} {mu:g}" for lam, mu in moduli]
    return CellInput(label, cellvox(dims, lines, grid), [iso(*m) for m in moduli],
                     np.asarray(grid, dtype=np.int64))


def two_phase_input(dims, seed: int) -> CellInput:
    """Random two-phase cell, contrast 4, fraction 0.5: the frozen fixture's
    recipe, so seed 7 at 4^3 is fixture d and at 16^3 its large sibling."""
    rng = np.random.default_rng(seed)
    grid = (rng.random(dims) < 0.5).astype(np.int64)
    return iso_cell(f"two-phase-{'x'.join(map(str, dims))}-s{seed}", dims, grid,
                    [(1.0, 1.0), (4.0, 4.0)])


def fixture_inputs() -> list:
    """The four frozen fixtures a-d, written out by the benchmark itself."""
    lam = np.zeros((8, 4, 4), dtype=np.int64)
    lam[4:] = 1
    inc = np.zeros((8, 8, 8), dtype=np.int64)
    inc[2:6, 2:6, 2:6] = 1
    d = two_phase_input((4, 4, 4), 7)
    d.label = "fixture-d"
    return [
        iso_cell("fixture-a", (4, 4, 4), np.zeros((4, 4, 4)), [(1.0, 1.0)]),
        iso_cell("fixture-b", (8, 4, 4), lam, [(0.0, 1.0), (0.0, 2.0)]),
        iso_cell("fixture-c", (8, 8, 8), inc, [(1.0, 1.0), (3.0, 2.0)]),
        d,
    ]


def random_spd(rng, scale: float) -> np.ndarray:
    """SPD Mandel matrix with condition number at most 10."""
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    c = q @ np.diag(scale * np.exp(rng.uniform(0.0, np.log(10.0), 6))) @ q.T
    return 0.5 * (c + c.T)


#: 20 non-cubic shapes from 3-6 voxels a side
SWEEP_DIMS = tuple(itertools.permutations((3, 4, 5, 6), 3))[:20]
#: the sweep's lattices and phases are fixed random draws and only the phase
#: patterns follow the workload seed: the iteration count, and so the work
#: per pass, then varies about 2% between seeds instead of about 6%
SWEEP_MATERIAL_SEED = 2024


def sweep_inputs(seed: int) -> list:
    """Fixtures a-d, then one anisotropic sheared cell per ``SWEEP_DIMS`` entry."""
    mat = np.random.default_rng(SWEEP_MATERIAL_SEED)
    rng = np.random.default_rng(seed)
    cells = fixture_inputs()
    for n, dims in enumerate(SWEEP_DIMS):
        g = np.diag(mat.uniform(0.8, 1.25, 3))
        g[np.triu_indices(3, 1)] = mat.uniform(-0.3, 0.3, 3)
        phases = [random_spd(mat, 1.0), random_spd(mat, mat.uniform(1.0, 4.0))]
        grid = rng.integers(0, 2, size=dims).astype(np.int64)
        cells.append(CellInput(f"sweep-{n}", cellvox(dims, [full_line(p) for p in phases], grid),
                               phases, grid, g))
    return cells


# ---------------------------------------------------------------------------
# checks


def load_references() -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def from_upper(vals) -> np.ndarray:
    m = np.zeros((6, 6))
    m[np.triu_indices(6)] = vals
    return m + np.triu(m, 1).T


def to_upper(m: np.ndarray) -> list:
    return [float(f"{v:.13g}") for v in m[np.triu_indices(6)]]


def bound_margins(inp: CellInput, chm: np.ndarray):
    """Smallest eigenvalues of <C> - CH and CH - <D>^-1 from the inputs."""
    frac = np.bincount(inp.grid.ravel(), minlength=len(inp.phases)) / inp.n_voxels
    cbar = sum(f * c for f, c in zip(frac, inp.phases))
    dbar = sum(f * np.linalg.inv(c) for f, c in zip(frac, inp.phases))
    return (float(np.linalg.eigvalsh(cbar - chm)[0]),
            float(np.linalg.eigvalsh(chm - np.linalg.inv(dbar))[0]))


def check_ch(inp: CellInput, chm: np.ndarray, ref) -> list:
    """Problems with one returned CH; an empty list means correct."""
    chm = np.asarray(chm, dtype=float)
    if chm.shape != (6, 6) or not np.all(np.isfinite(chm)):
        return [f"{inp.label}: CH is not a finite 6x6 matrix"]
    norm = float(np.linalg.norm(chm))
    bad = []
    asym = float(np.linalg.norm(chm - chm.T)) / norm
    if asym > SYM_TOL:
        bad.append(f"{inp.label}: CH asymmetric by {asym:.3e}")
    if ref is not None:
        dist = float(np.linalg.norm(chm - ref) / np.linalg.norm(ref))
        if dist > REF_TOL:
            bad.append(f"{inp.label}: CH differs from the reference by {dist:.3e}")
    for name, margin in zip(("voigt", "reuss"), bound_margins(inp, chm)):
        if margin < MARGIN_FLOOR * norm:
            bad.append(f"{inp.label}: {name} margin {margin:.3e}")
    return bad


def dense_column_check(inp: CellInput, cell, chm: np.ndarray, col: int) -> list:
    """Column ``col`` of CH against the mean stress of the dense oracle."""
    e = ch.dense_reference_strain(cell, np.eye(6)[col])
    cvox = np.stack(inp.phases)[inp.grid]
    mean_sig = np.einsum("ijkcd,ijkqd->c", cvox, e) / (8 * inp.n_voxels)
    dist = float(np.linalg.norm(mean_sig - chm[:, col]) / np.linalg.norm(chm[:, col]))
    return [] if dist <= DENSE_TOL else [
        f"{inp.label}: column {col} differs from the dense oracle by {dist:.3e}"]


# ---------------------------------------------------------------------------
# workloads


@dataclass
class PassResult:
    """What one pass did: operations, failures (with reasons), wrong outputs."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    iterations: int = 0
    artifact_bytes: int = 0


def ready_cell(inp: CellInput, lattice=None):
    """Parse, validate and derive the material fields: the set-up of one cell."""
    if lattice is None and inp.lattice is not None:
        lattice = ch.Lattice(*inp.lattice.T)
    cell = ch.parse_voxel_text(inp.text, lattice)
    for name in ("stiffness_field", "compliance_field", "mean_stiffness", "mean_compliance"):
        getattr(cell, name, None)
    return cell


def failure_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """Hooks shared by the workloads; ``run_pass`` is what a pass times."""

    cells_per_pass = 1

    def warm_up(self, inp: CellInput) -> str | None:
        """Untimed: imports, code paths, and the FFT plans at ``inp``'s size.

        Returns why the warm-up failed, or None; a failure here is reported
        and the timed passes then count their own failures.
        """
        try:
            ch.homogenize(ready_cell(two_phase_input((4, 4, 4), 0)))
            ch.solve_strain_driven(ready_cell(inp), np.eye(6)[0], ch.SolveParams(max_iter=1))
        except ch.NotConverged:
            return None  # expected: one iteration is all the warm-up needs
        except Exception as exc:
            return failure_reason(exc)
        return None

    def before_pass(self):
        """Untimed preparation of the next pass."""

    def after_pass(self, res: PassResult):
        """Untimed bookkeeping after a pass."""

    def final_checks(self) -> list:
        """Untimed checks made once per run; returns the problems found."""
        return []


class HomogenizeWorkload(Workload):
    """Displacement ``homogenize(cell, threads=1)`` of each input cell."""

    def __init__(self, inputs: list, refs: list):
        self.inputs = inputs
        self.refs = refs
        self.cells_per_pass = len(inputs)
        self.last_ch: list = [None] * len(inputs)

    def setup(self):
        return [ready_cell(inp) for inp in self.inputs]

    def warm_up(self):
        return super().warm_up(max(self.inputs, key=lambda inp: inp.n_voxels))

    def run_pass(self) -> PassResult:
        res = PassResult()
        for n, (inp, ref) in enumerate(zip(self.inputs, self.refs)):
            res.attempted += 1
            try:
                cell = ready_cell(inp)
                out = ch.homogenize(cell, threads=1)
            except Exception as exc:  # any failure is counted, never fatal
                res.failures.append(f"{inp.label}: {failure_reason(exc)}")
                continue
            res.iterations += sum(r.iterations for r in out.per_column_reports)
            res.wrong += check_ch(inp, out.CH, ref)
            self.last_ch[n] = out.CH
        return res

    def final_checks(self) -> list:
        """Dense-oracle check of one column per small cell, outside the timer."""
        bad = []
        for n, (inp, chm) in enumerate(zip(self.inputs, self.last_ch)):
            if chm is not None and 3 * inp.n_voxels <= DENSE_DOF_LIMIT:
                try:
                    bad += dense_column_check(inp, ready_cell(inp), chm, n % 6)
                except Exception as exc:
                    bad.append(f"{inp.label}: dense oracle failed: {failure_reason(exc)}")
        return bad


class VerifyWorkload(Workload):
    """``cellhom.cli.main([cfg, "--threads", "1", "--quiet"])`` with task verify.

    One thread, not two: on a 2-vCPU host the pass time of ``--threads 2``
    spread 11-15% between seeds (quartile distance over median, ten seeds),
    against 6% with one thread, too wide for the bound on ``wall_s``.
    """

    threads = 1

    def __init__(self, inp: CellInput, ref, workdir: Path):
        self.inp = inp
        self.refs = [ref]
        self.workdir = workdir
        self.vox = workdir / "cell.vox"
        self.cfg = workdir / "verify.cfg"
        self.out = workdir / "out"
        self.vox.write_text(inp.text, encoding="utf-8")
        self.cfg_text = (f"voxel_path = {self.vox.resolve()}\ntask = verify\n"
                         f"output_dir = {self.out.resolve()}\n")
        self.cfg.write_text(self.cfg_text, encoding="utf-8")

    def setup(self):
        cfg = config.parse_config(self.cfg_text)
        g = np.asarray(cfg.lattice, dtype=float).reshape(3, 3)
        return ready_cell(self.inp, ch.Lattice(g[0], g[1], g[2]))

    def warm_up(self):
        return super().warm_up(self.inp)

    def before_pass(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_pass(self) -> PassResult:
        res = PassResult(attempted=1)
        try:
            code = cli.main([str(self.cfg), "--threads", str(self.threads), "--quiet"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            res.failures.append(f"{self.inp.label}: {failure_reason(exc)}")
            return res
        if code != 0:
            res.failures.append(f"{self.inp.label}: exit code {code}")
            return res
        try:
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            chm = np.loadtxt(self.out / "CH.txt")
            res.iterations = sum(int(s["iterations"]) for s in report["solves"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            res.wrong.append(f"{self.inp.label}: unreadable artifacts: {failure_reason(exc)}")
            return res
        if report.get("checks_failed"):
            res.wrong.append(f"{self.inp.label}: checks failed {report['checks_failed']}")
        res.wrong += check_ch(self.inp, chm, self.refs[0])
        return res

    def after_pass(self, res: PassResult):
        res.artifact_bytes = sum(p.stat().st_size for p in self.out.iterdir() if p.is_file()) \
            if self.out.is_dir() else 0


WORKLOADS = ("homog-16", "sweep-small", "verify-8")


def reference_list(refs: dict, name: str, seed: int, count: int):
    """Stored reference CHs for one pass's cells, ``None`` where missing."""
    table = refs.get(name, {})
    fixed = table.get("fixtures", [])
    seeded = table.get(str(seed), [None] * (count - len(fixed)))
    return [None if v is None else from_upper(v) for v in fixed + seeded]


def make_workload(name: str, seed: int, workdir: Path):
    """Build one workload's inputs from the seed; nothing here is timed."""
    refs = load_references()
    if name == "homog-16":
        inputs = [two_phase_input((16, 16, 16), seed)]
        return HomogenizeWorkload(inputs, reference_list(refs, name, seed, 1))
    if name == "sweep-small":
        inputs = sweep_inputs(seed)
        return HomogenizeWorkload(inputs, reference_list(refs, name, seed, len(inputs)))
    if name == "verify-8":
        inp = two_phase_input((8, 8, 8), seed)
        return VerifyWorkload(inp, reference_list(refs, name, seed, 1)[0], workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
