"""Flat key=value run configuration.

Grammar: UTF-8 text, one ``key = value`` pair per line; ``#`` at the start
of a line or after whitespace starts a comment (so ``run#3`` inside a value
is kept), blank lines ignored, unknown keys rejected. Reals must be finite.
The key set is fixed:

====================  =======================================================
key                   value
====================  =======================================================
voxel_path            path to the voxel cell file (required)
task                  homogenize | solve | verify
formulation           displacement | stress-uzawa | strain
macro_kind            strain | stress        (task = solve only)
macro_value           6 reals, Mandel order  (task = solve only)
lattice               9 reals: generators g1 g2 g3, concatenated
tol                   relative solver tolerance, default 1e-9
max_iter              iteration cap, default 10000
uzawa_step            positive real or AUTO, default AUTO
output_dir            artifact directory, default "."
seed                  accepted and recorded; has no effect, default 0
====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
import re

import numpy as np

from .cell import Lattice
from .solvers import SolveParams


class ParseError(ValueError):
    """Malformed config text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """Config parsed but a field is invalid; carries the field name."""

    def __init__(self, fld: str, message: str):
        super().__init__(f"{fld}: {message}")
        self.field = fld


TASKS = ("homogenize", "solve", "verify")
FORMULATIONS = ("displacement", "stress-uzawa", "strain")
#: allowed values of the choice keys (``macro_kind`` may also be unset)
CHOICES = {"task": TASKS, "formulation": FORMULATIONS, "macro_kind": ("strain", "stress")}

#: ``#`` opens a comment at the start of a line or after whitespace only
_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass
class RunConfig:
    voxel_path: str
    task: str = "homogenize"
    formulation: str = "displacement"
    macro_kind: str | None = None
    macro_value: np.ndarray | None = None
    lattice: np.ndarray = field(default_factory=lambda: np.eye(3).ravel())
    tol: float = SolveParams.tol
    max_iter: int = SolveParams.max_iter
    uzawa_step: float | str = SolveParams.uzawa_step
    output_dir: str = "."
    seed: int = SolveParams.seed

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Apply the choice and task rules; raises ``ValidationError``.

        Run on construction and again by ``cli.run``, so a config built or
        changed in code meets the same rules as a parsed one.
        """
        for key in CHOICES:
            value = getattr(self, key)
            if value is None and key == "macro_kind":
                continue
            try:
                _choice(key)(value)
            except ValueError as exc:
                raise ValidationError(key, str(exc)) from None
        # task-dependent field requirements: exactly what the task needs
        if self.task == "solve":
            if self.macro_kind is None:
                raise ValidationError("macro_kind", "required when task = solve")
            if self.macro_value is None:
                raise ValidationError("macro_value", "required when task = solve")
            try:
                value = np.asarray(self.macro_value, dtype=float)
            except (TypeError, ValueError):
                value = None
            if value is None or value.shape != (6,) or not np.all(np.isfinite(value)):
                raise ValidationError("macro_value", "must be 6 finite reals")
            if self.formulation == "stress-uzawa" and self.macro_kind != "stress":
                raise ValidationError(
                    "macro_kind", "stress-uzawa formulation solves a stress datum")
        elif self.macro_kind is not None or self.macro_value is not None:
            raise ValidationError("macro_value", f"not accepted when task = {self.task}")


def _choice(key: str):
    options = CHOICES[key]

    def parse(text):
        if text not in options:
            raise ValueError(f"must be one of {options}")
        return text
    return parse


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite real")
    return value


def _reals(count: int):
    def parse(text):
        vals = np.array([_real(t) for t in text.split()])
        if vals.size != count:
            raise ValueError(f"expected {count} reals, got {vals.size}")
        return vals
    return parse


def _auto_or_real(text: str):
    return "auto" if text.upper() == "AUTO" else _real(text)


def _lattice(text: str) -> np.ndarray:
    vals = _reals(9)(text)
    Lattice(*vals.reshape(3, 3))
    return vals


def _solver_param(name: str, parse):
    """``parse``, then let ``SolveParams`` judge the value."""
    return lambda text: getattr(SolveParams(**{name: parse(text)}), name)


#: parser per key, applied in this order, so the first bad value reported
#: does not depend on the order of the lines
_PARSERS = {
    "voxel_path": str,
    "task": _choice("task"),
    "formulation": _choice("formulation"),
    "macro_kind": _choice("macro_kind"),
    "macro_value": _reals(6),
    "lattice": _lattice,
    "tol": _solver_param("tol", _real),
    "max_iter": _solver_param("max_iter", int),
    "uzawa_step": _solver_param("uzawa_step", _auto_or_real),
    "output_dir": str,
    "seed": _solver_param("seed", int),
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration."""
    pairs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ParseError(lineno, f"unknown key {key!r}")
        if key in pairs:
            raise ParseError(lineno, f"duplicate key {key!r}")
        if not value:
            raise ParseError(lineno, f"empty value for {key!r}")
        pairs[key] = value

    if "voxel_path" not in pairs:
        raise ValidationError("voxel_path", "required")
    values = {}
    for key, parse in _PARSERS.items():
        if key in pairs:
            try:
                values[key] = parse(pairs[key])
            except ValueError as exc:
                raise ValidationError(key, str(exc)) from exc
    # each value is checked on its own, in key order, above; the task
    # rules across keys run when the config is built
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
