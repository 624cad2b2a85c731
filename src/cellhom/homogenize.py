"""Assembly of the homogenized stiffness and compliance from cell solves."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .fem import LinPerField, stencil_of
from .solvers import SolveParams, solve_strain_driven, solve_stress_driven, solve_stress_uzawa

#: orthonormal Mandel basis: three unit normal strains, three normalized shears
MANDEL_BASIS = np.eye(6)

#: relative asymmetry above which the assembled tensor is rejected
ASYMMETRY_LIMIT = 1e-9

#: homogenization columns are solved at least this tightly so the asymmetry
#: gate measures assembly bugs rather than leftover iteration error
COLUMN_TOL_CEIL = 1e-10

#: and this over the condition bound ``Lam/lam`` (``Stencil.phase_bounds``),
#: by which the residual understates the first-order error of the stress average
COLUMN_TOL_CONTRAST = 5e-9


class AsymmetricResult(RuntimeError):
    """Assembled homogenized tensor is not symmetric to tolerance."""


@dataclass
class HomogResult:
    """Homogenized stiffness/compliance pair with per-column diagnostics.

    ``energy_check[i, j]`` is ``|x_j . Kx_i / V - sym[i, j]|``, the cell
    energy product of columns ``i`` and ``j`` against the symmetrized entry:
    ``x`` is the packed ``(mean strain, fluctuation)`` solution and ``Kx``
    its ``Stencil.k_ext``, or for stress-uzawa the strain ``D sigma`` and the
    weighted stress ``w sigma``. It quantifies the agreement of the
    averaged-stress and energy definitions of the homogenized tensor.
    """

    CH: np.ndarray
    DH: np.ndarray
    per_column_reports: list
    energy_check: np.ndarray


def _column_tol(cell: VoxelCell, params: SolveParams) -> SolveParams:
    lam, lam_max = stencil_of(cell).phase_bounds
    return replace(params, tol=min(params.tol, COLUMN_TOL_CEIL,
                                   COLUMN_TOL_CONTRAST * lam / lam_max))


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
    params = _column_tol(cell, params or SolveParams())
    st = stencil_of(cell)

    # each task returns (column, x, Kx, report); see HomogResult
    if formulation in ("displacement", "strain"):
        def task(i):
            u, rep = solve_strain_driven(cell, MANDEL_BASIS[i], params)
            x = st.pack(u.macro, u.periodic)
            kx = st.k_ext(x)
            return kx[:6] / cell.volume, x, kx, rep
    elif formulation == "stress-uzawa":
        def task(i):
            sig, v, rep = solve_stress_uzawa(cell, MANDEL_BASIS[i], params)
            e = st.compliance_stress(sig)
            return cell_average(cell, e), e.ravel(), (st.w * sig).ravel(), rep
    else:
        raise ValueError(f"unknown formulation {formulation!r}")

    cols, xs, kxs, reports = zip(*_run_columns(cell, task, threads))
    raw = np.column_stack(cols)

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

    energy_check = np.abs(np.array([[xj @ kxi for xj in xs] for kxi in kxs]) / cell.volume - sym)
    return HomogResult(CH=ch, DH=dh, per_column_reports=list(reports),
                       energy_check=energy_check)


def energy_product(cell: VoxelCell, u_a: LinPerField, u_b: LinPerField) -> float:
    """Cell average of the cross elastic energy of two displacements."""
    st = stencil_of(cell)
    kx_a = st.k_ext(st.pack(u_a.macro, u_a.periodic))
    return float(st.pack(u_b.macro, u_b.periodic) @ kx_a) / cell.volume


def dual_consistency(cell: VoxelCell, result: HomogResult,
                     params: SolveParams | None = None, threads: int = 1) -> float:
    """Worst relative mismatch between mean strains of stress-driven solves
    and the compliance applied to the same basis stresses."""
    params = _column_tol(cell, params or SolveParams())

    def task(i):
        w, _ = solve_stress_driven(cell, MANDEL_BASIS[i], params)
        a_tensor = result.DH @ MANDEL_BASIS[i]
        return float(np.linalg.norm(w.macro - a_tensor) / np.linalg.norm(a_tensor))

    return max(_run_columns(cell, task, threads))
