"""Assembly of the homogenized stiffness and compliance from cell solves."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .fem import LinPerField, quad_inner, stencil_of, sym_gradient
from .solvers import SolveParams, solve_strain_driven, solve_stress_driven, solve_stress_uzawa

#: orthonormal Mandel basis: three unit normal strains, three normalized shears
MANDEL_BASIS = np.eye(6)

#: relative asymmetry above which the assembled tensor is rejected
ASYMMETRY_LIMIT = 1e-9

#: homogenization columns are solved at least this tightly so the asymmetry
#: gate measures assembly bugs rather than leftover iteration error
COLUMN_TOL_CEIL = 1e-10


class AsymmetricResult(RuntimeError):
    """Assembled homogenized tensor is not symmetric to tolerance."""


@dataclass
class HomogResult:
    """Homogenized stiffness/compliance pair with per-column diagnostics.

    ``energy_check[i, j]`` is the absolute difference between the
    matrix entry and the same entry recomputed as a cell energy product of
    the two column solutions; it quantifies the agreement of the
    averaged-stress and energy definitions of the homogenized tensor.
    """

    CH: np.ndarray
    DH: np.ndarray
    per_column_reports: list
    energy_check: np.ndarray


def _column_tol(params: SolveParams) -> SolveParams:
    return replace(params, tol=min(params.tol, COLUMN_TOL_CEIL))


def _run_columns(cell: VoxelCell, task, threads: int):
    if threads > 1:
        # the workers share the cell's core: build it and its inverse first
        stencil_of(cell).ref_pinv
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(task, range(6)))
    return [task(i) for i in range(6)]


def homogenize(cell: VoxelCell, params: SolveParams | None = None,
               formulation: str = "displacement", threads: int = 1) -> HomogResult:
    """Compute the homogenized tensors from six canonical cell solves.

    With the displacement (or strain) formulation, column ``i`` of the
    stiffness is the cell average of the stress produced by the ``i``-th
    Mandel basis strain. With the Uzawa formulation the compliance is
    assembled first from six basis mean stresses and then inverted.

    Raises ``AsymmetricResult`` when the assembled matrix is asymmetric
    beyond ``ASYMMETRY_LIMIT`` (a solver or assembly bug) and propagates
    ``NotConverged`` from the column solves.
    """
    params = _column_tol(params or SolveParams())
    st = stencil_of(cell)

    if formulation in ("displacement", "strain"):
        def task(i):
            u, rep = solve_strain_driven(cell, MANDEL_BASIS[i], params)
            e = sym_gradient(cell, u)
            return cell_average(cell, st.stress(e)), e, rep

        cols = _run_columns(cell, task, threads)
        raw = np.column_stack([c[0] for c in cols])
    elif formulation == "stress-uzawa":
        def task(i):
            sig, v, rep = solve_stress_uzawa(cell, MANDEL_BASIS[i], params)
            e = st.compliance_stress(sig)
            return cell_average(cell, e), e, rep

        cols = _run_columns(cell, task, threads)
        raw = np.column_stack([c[0] for c in cols])
    else:
        raise ValueError(f"unknown formulation {formulation!r}")

    norm = np.linalg.norm(raw)
    asym = np.linalg.norm(raw - raw.T)
    if asym > ASYMMETRY_LIMIT * norm:
        raise AsymmetricResult(
            f"assembled tensor asymmetric: {asym / norm:.3e} relative")
    sym = 0.5 * (raw + raw.T)

    if formulation == "stress-uzawa":
        ch = mandel.invert(sym)
    else:
        ch = sym
    dh = mandel.invert(ch)

    # Cross energies of the column strain fields reproduce the assembled
    # entries: stiffness entries for strain columns, compliance entries for
    # stress columns (there <C e_i, e_j> = <s_i, D s_j>).
    fields = [c[1] for c in cols]
    reports = [c[2] for c in cols]
    energy_check = np.zeros((6, 6))
    for i in range(6):
        s_i = st.stress(fields[i])
        for j in range(6):
            prod = quad_inner(cell, s_i, fields[j]) / cell.volume
            energy_check[i, j] = abs(prod - sym[i, j])
    return HomogResult(CH=ch, DH=dh, per_column_reports=reports,
                       energy_check=energy_check)


def energy_product(cell: VoxelCell, u_a: LinPerField, u_b: LinPerField) -> float:
    """Cell average of the cross elastic energy of two displacements."""
    ea = sym_gradient(cell, u_a)
    eb = sym_gradient(cell, u_b)
    return quad_inner(cell, stencil_of(cell).stress(ea), eb) / cell.volume


def dual_consistency(cell: VoxelCell, result: HomogResult,
                     params: SolveParams | None = None, threads: int = 1) -> float:
    """Worst relative mismatch between mean strains of stress-driven solves
    and the compliance applied to the same basis stresses."""
    params = _column_tol(params or SolveParams())

    def task(i):
        w, _ = solve_stress_driven(cell, MANDEL_BASIS[i], params)
        a_solved = cell_average(cell, sym_gradient(cell, w))
        a_tensor = result.DH @ MANDEL_BASIS[i]
        return float(np.linalg.norm(a_solved - a_tensor)
                     / np.linalg.norm(a_tensor))

    return max(_run_columns(cell, task, threads))
