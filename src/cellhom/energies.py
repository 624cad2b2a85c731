"""Energy functionals, indicators and the two saddle-point Lagrangians.

All functionals integrate Mandel quadrature fields over the cell. The two
Lagrangians couple a stress field with either a strain field or a
displacement; their saddle values reproduce the complementary energy of the
equilibrated stress, which the solver and verification modules cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .cell import VoxelCell, cell_average
from .fem import LinPerField, is_equilibrated, quad_inner, stencil_of, sym_gradient


@dataclass
class MacroLoad:
    """Macroscopic loading: either a mean strain or a mean stress (Mandel)."""

    kind: str
    value: np.ndarray

    def __post_init__(self):
        if self.kind not in ("strain", "stress"):
            raise ValueError(f"kind must be 'strain' or 'stress', got {self.kind!r}")
        self.value = np.asarray(self.value, dtype=float)

    @classmethod
    def strain_driven(cls, a) -> "MacroLoad":
        return cls("strain", a)

    @classmethod
    def stress_driven(cls, s) -> "MacroLoad":
        return cls("stress", s)


def elastic_energy(cell: VoxelCell, e: np.ndarray) -> float:
    """``1/2 integral <C e, e>`` of a strain field; also the convex conjugate
    of the complementary energy."""
    return 0.5 * quad_inner(cell, stencil_of(cell).stress(e), e)


def complementary_energy(cell: VoxelCell, s: np.ndarray) -> float:
    """``1/2 integral <D s, s>`` of a stress field."""
    return 0.5 * quad_inner(cell, stencil_of(cell).compliance_stress(s), s)


def strain_energy(cell: VoxelCell, u: LinPerField) -> float:
    """Total elastic energy of a displacement, ``1/2 integral <C e(u), e(u)>``."""
    return elastic_energy(cell, sym_gradient(cell, u))


def strain_potential(cell: VoxelCell, e: np.ndarray, macro_strain: np.ndarray) -> float:
    """Strain-space objective for a prescribed mean strain:
    ``1/2 integral <C e, e> + <A, integral C e>``."""
    s = stencil_of(cell).stress(e)
    lin = float(np.dot(np.asarray(macro_strain, dtype=float),
                       cell.volume * cell_average(cell, s)))
    return 0.5 * quad_inner(cell, s, e) + lin


def stress_potential(cell: VoxelCell, e: np.ndarray, macro_stress: np.ndarray) -> float:
    """Strain-space objective for a prescribed mean stress:
    ``1/2 integral <C e, e> - <S, integral e>``."""
    s = stencil_of(cell).stress(e)
    lin = float(np.dot(np.asarray(macro_stress, dtype=float),
                       cell.volume * cell_average(cell, e)))
    return 0.5 * quad_inner(cell, s, e) - lin


def displacement_potential(cell: VoxelCell, u: LinPerField, macro_stress: np.ndarray) -> float:
    """Displacement objective under a mean-stress load,
    ``1/2 integral <C e(u), e(u)> - integral <S, e(u)>``. Can be negative."""
    return stress_potential(cell, sym_gradient(cell, u), macro_stress)


def mean_stress_indicator(cell: VoxelCell, s: np.ndarray, macro_stress: np.ndarray,
                          tol: float) -> float:
    """0 when ``s`` is weakly equilibrated with mean ``macro_stress``, else inf.

    The exact 0-or-infinity indicator of the admissible stress set is
    necessarily realized with a tolerance in floating point.
    """
    ok, _, _ = is_equilibrated(cell, s, macro_stress, tol)
    return 0.0 if ok else math.inf


def stress_strain_lagrangian(cell: VoxelCell, s: np.ndarray, e: np.ndarray,
                             macro_stress: np.ndarray, tol: float) -> float:
    """Coupling of stress and strain fields:
    ``integral <e, s> - elastic_energy(e) + indicator(s)``."""
    ind = mean_stress_indicator(cell, s, macro_stress, tol)
    if math.isinf(ind):
        return math.inf
    return quad_inner(cell, e, s) - elastic_energy(cell, e)


def stress_displacement_lagrangian(cell: VoxelCell, s: np.ndarray, v: LinPerField,
                                   macro_stress: np.ndarray) -> float:
    """Coupling of stress and displacement:
    ``complementary_energy(s) + integral <s - S, sym_grad v>``. Always finite."""
    ev = sym_gradient(cell, v)
    coupling = quad_inner(cell, s, ev) - float(
        np.dot(np.asarray(macro_stress, dtype=float),
               cell.volume * cell_average(cell, ev))
    )
    return complementary_energy(cell, s) + coupling
