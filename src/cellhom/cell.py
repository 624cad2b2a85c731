"""Periodicity lattice, voxelized unit cell and cell averages.

A cell is a parallelepiped spanned by three generator vectors, partitioned
uniformly into ``n1 x n2 x n3`` voxels. The material is constant per voxel
and given by a table of SPD 6x6 Mandel stiffness matrices indexed by a phase
id. All periodic indexing wraps voxel/node coordinates componentwise.

Reduction order note: averages and integrals use numpy's pairwise summation
over a fixed voxel traversal, so results are bit-reproducible. The package
starts no threads: the homogenization columns are solved one after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from . import mandel

VOXEL_MAGIC = "CELLVOX 1"


@dataclass(frozen=True)
class Lattice:
    """Periodicity lattice spanned by three independent generator vectors."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        for name in ("g1", "g2", "g3"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=float)))
        with np.errstate(over="ignore", invalid="ignore"):
            volume = self.volume
        if not math.isfinite(volume):
            raise ValueError("lattice generators must span a finite volume")
        if not volume > 0.0:
            raise ValueError("lattice generators must be linearly independent")

    @property
    def matrix(self) -> np.ndarray:
        """3x3 matrix with the generators as columns."""
        return np.column_stack([self.g1, self.g2, self.g3])

    @property
    def volume(self) -> float:
        return float(abs(np.linalg.det(np.column_stack([self.g1, self.g2, self.g3]))))

    @classmethod
    def unit_cube(cls) -> "Lattice":
        return cls(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def wrap_index(idx, dims):
    """Map a signed integer triple onto the canonical grid, componentwise mod n."""
    return tuple(int(i) % int(n) for i, n in zip(idx, dims))


@dataclass(frozen=True)
class VoxelCell:
    """Periodic voxel cell: phase grid plus per-phase stiffness table.

    The cell is immutable: its arrays are read-only copies of the inputs, so
    the cached material means and operator core never go stale.

    Attributes
    ----------
    dims : tuple[int, int, int]
        Voxel counts per lattice direction.
    phase_of : numpy.ndarray
        Integer array of shape ``dims`` with 0-based phase ids.
    phases : tuple[numpy.ndarray, ...]
        SPD 6x6 Mandel stiffness matrix per phase.
    lattice : Lattice
        Cell geometry; defaults to the unit cube.
    """

    dims: tuple
    phase_of: np.ndarray
    phases: tuple
    lattice: Lattice = field(default_factory=Lattice.unit_cube)

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if any(n < 1 for n in dims):
            raise ValueError(f"voxel counts must be positive, got {dims}")
        phase_of = _read_only(np.array(self.phase_of, dtype=np.int64, order="C"))
        if phase_of.shape != dims:
            raise ValueError(
                f"phase grid shape {phase_of.shape} does not match dims {dims}"
            )
        phases = tuple(_read_only(np.array(p, dtype=float)) for p in self.phases)
        if phase_of.min() < 0 or phase_of.max() >= len(phases):
            raise ValueError("phase id out of range of the phase table")
        for k, p in enumerate(phases):
            if p.shape != (6, 6):
                raise ValueError(f"phase {k} is not a 6x6 Mandel matrix")
            scale = abs(p).max()
            if not math.isfinite(scale):
                raise ValueError(f"phase {k} stiffness has non-finite entries")
            if not np.allclose(p, p.T, rtol=0.0, atol=1e-12 * max(1.0, scale)):
                raise ValueError(f"phase {k} stiffness is not symmetric")
            if not mandel.is_spd(p):
                raise ValueError(f"phase {k} stiffness is not positive definite")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "phase_of", phase_of)
        object.__setattr__(self, "phases", phases)

    # -- derived geometry ---------------------------------------------------

    @property
    def n_voxels(self) -> int:
        n1, n2, n3 = self.dims
        return n1 * n2 * n3

    @property
    def volume(self) -> float:
        return self.lattice.volume

    @property
    def voxel_volume(self) -> float:
        return self.lattice.volume / self.n_voxels

    # -- phase-fraction means (cached, read-only) ------------------------------

    def _phase_mean(self, mats) -> np.ndarray:
        frac = np.bincount(self.phase_of.ravel(), minlength=len(mats)) / self.n_voxels
        return _read_only(np.tensordot(frac, np.stack(mats), axes=1))

    @cached_property
    def mean_stiffness(self) -> np.ndarray:
        """Volume average of the stiffness (the arithmetic bound)."""
        return self._phase_mean(self.phases)

    @cached_property
    def mean_compliance(self) -> np.ndarray:
        """Volume average of the compliance (the harmonic-bound source)."""
        return self._phase_mean([mandel.invert(p) for p in self.phases])


def cell_average(cell: VoxelCell, f: np.ndarray) -> np.ndarray:
    """Volume-weighted mean of a per-quadrature-point field.

    ``f`` has shape ``dims + (8, 6)`` (or ``dims + (8,) + trailing``); with a
    uniform voxel partition and equal Gauss weights the average is the plain
    mean over voxels and quadrature points.
    """
    return np.asarray(f).mean(axis=(0, 1, 2, 3))


# -- voxel file format ------------------------------------------------------
#
#   CELLVOX 1
#   n1 n2 n3 P
#   P lines:   ISO <lambda> <mu>   |   FULL <21 upper-triangle entries>
#   n1*n2*n3 whitespace-separated phase ids, i fastest, then j, then k


def parse_voxel_text(text: str, lattice: Lattice | None = None) -> VoxelCell:
    """Parse the voxel cell file format; raises ValueError on any deviation."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != VOXEL_MAGIC:
        raise ValueError(f"voxel file must start with '{VOXEL_MAGIC}'")
    if len(lines) < 2:
        raise ValueError("voxel file truncated before the dimension line")
    head = lines[1].split()
    if len(head) != 4:
        raise ValueError("dimension line must be 'n1 n2 n3 P'")
    try:
        n1, n2, n3, nphase = (int(t) for t in head)
    except ValueError as exc:
        raise ValueError(f"bad dimension line: {exc}") from exc
    if min(n1, n2, n3) < 1 or nphase < 1:
        raise ValueError("dimensions and phase count must be positive")

    phases = []
    for k in range(nphase):
        if 2 + k >= len(lines):
            raise ValueError(f"missing phase line {k}")
        tok = lines[2 + k].split()
        if tok and tok[0] == "ISO":
            if len(tok) != 3:
                raise ValueError(f"phase {k}: ISO takes exactly two moduli")
            try:
                phases.append(mandel.iso_tensor(float(tok[1]), float(tok[2])))
            except mandel.DomainError as exc:
                raise ValueError(f"phase {k}: {exc}") from exc
        elif tok and tok[0] == "FULL":
            if len(tok) != 22:
                raise ValueError(f"phase {k}: FULL takes 21 upper-triangle entries")
            vals = [float(t) for t in tok[1:]]
            c = np.zeros((6, 6))
            pos = 0
            for i in range(6):
                for j in range(i, 6):
                    c[i, j] = c[j, i] = vals[pos]
                    pos += 1
            phases.append(c)
        else:
            raise ValueError(f"phase {k}: expected ISO or FULL")

    ids = " ".join(lines[2 + nphase:]).split()
    if len(ids) != n1 * n2 * n3:
        raise ValueError(
            f"expected {n1 * n2 * n3} phase ids, found {len(ids)}"
        )
    try:
        grid = np.array([int(t) for t in ids], dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"bad phase id: {exc}") from exc
    # file order: i fastest, then j, then k
    phase_of = grid.reshape(n3, n2, n1).transpose(2, 1, 0)
    return VoxelCell((n1, n2, n3), phase_of, phases,
                     lattice if lattice is not None else Lattice.unit_cube())


def load_voxel_file(path, lattice: Lattice | None = None) -> VoxelCell:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_voxel_text(fh.read(), lattice)


def voxel_text(cell: VoxelCell) -> str:
    """Serialize a cell in the voxel file format (full round-trip precision).

    Phases are always written as FULL rows so arbitrary anisotropy survives.
    """
    n1, n2, n3 = cell.dims
    out = [VOXEL_MAGIC, f"{n1} {n2} {n3} {len(cell.phases)}"]
    for p in cell.phases:
        entries = [f"{p[i, j]:.17g}" for i in range(6) for j in range(i, 6)]
        out.append("FULL " + " ".join(entries))
    ids = cell.phase_of.transpose(2, 1, 0).ravel()
    for start in range(0, ids.size, 16):
        out.append(" ".join(str(int(v)) for v in ids[start:start + 16]))
    return "\n".join(out) + "\n"
