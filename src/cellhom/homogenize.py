"""Assembly of the homogenized stiffness and compliance from cell solves."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .fem import stencil_of
from .solvers import SolveParams, solve_strain_stack, solve_stress_driven, solve_stress_uzawa

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
    weighted stress ``w sigma`` (a column keeps only sigma, and the check
    forms each ``D sigma`` once more). It quantifies the agreement of the
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


def homogenize(cell: VoxelCell, params: SolveParams | None = None,
               formulation: str = "displacement", threads: int = 1) -> HomogResult:
    """Compute the homogenized tensors from six canonical cell solves.

    With the displacement (or strain) formulation, column ``i`` of the
    stiffness is the cell average of the stress produced by the ``i``-th
    Mandel basis strain. With the Uzawa formulation the compliance is
    assembled first from six basis mean stresses and then inverted.

    The six displacement (or strain) columns are one ``solve_strain_stack``:
    on grids where the preconditioner is the dense inverse (at most
    ``fem.DENSE_REF_MAX_DOF`` nodal unknowns) they are solved in lockstep,
    so each operator and preconditioner call, whose per-call overhead
    dominates on such grids, serves all six; on larger grids, and with the
    Uzawa formulation, the columns are solved one after another. Either way
    each column, and so the result, is bit for bit the same, in one thread.
    ``threads`` is accepted and ignored; it stays only because
    ``bench/workloads.py`` passes it, until the benchmark drops it.

    Raises ``AsymmetricResult`` when the assembled matrix is asymmetric
    beyond ``ASYMMETRY_LIMIT`` (a solver or assembly bug) and propagates
    ``NotConverged`` from the column solves.
    """
    if formulation not in ("displacement", "strain", "stress-uzawa"):
        raise ValueError(f"unknown formulation {formulation!r}")
    params = _column_tol(cell, params or SolveParams())
    st = stencil_of(cell)

    cols, kept, reports = [], [], []  # kept: sigma, or (x, Kx); see HomogResult
    if formulation == "stress-uzawa":
        for load in MANDEL_BASIS:
            sig, _, rep = solve_stress_uzawa(cell, load, params)
            cols.append(cell_average(cell, st.compliance_stress(sig)))
            kept.append(sig)
            reports.append(rep)
    else:
        for u, rep in solve_strain_stack(cell, MANDEL_BASIS, params):
            x = st.pack(u.macro, u.periodic)
            kx = st.k_ext(x)
            cols.append(kx[:6] / cell.volume)
            kept.append((x, kx))
            reports.append(rep)
    raw = np.column_stack(cols)

    # norms taken at a power-of-two scale: the compliance columns of a cell
    # of tiny moduli would overflow a plain sum of squares
    norm = mandel.frobenius(raw)
    asym = mandel.frobenius(raw - raw.T)
    if asym > ASYMMETRY_LIMIT * norm:
        raise AsymmetricResult(
            f"assembled tensor asymmetric: {asym / norm:.3e} relative")
    sym = 0.5 * (raw + raw.T)

    if formulation == "stress-uzawa":
        ch = mandel.invert(sym)
        # one strain D sigma_j at a time, against every weighted stress w sigma_i
        products = np.empty((6, 6))
        for j, sig_j in enumerate(kept):
            e_j = st.compliance_stress(sig_j).ravel()
            products[:, j] = [e_j @ (st.w * sig_i).ravel() for sig_i in kept]
    else:
        ch = sym
        products = np.array([[xj @ kxi for xj, _ in kept] for _, kxi in kept])
    energy_check = np.abs(products / cell.volume - sym)
    return HomogResult(CH=ch, DH=mandel.invert(ch), per_column_reports=reports,
                       energy_check=energy_check)


def dual_consistency(cell: VoxelCell, result: HomogResult,
                     params: SolveParams | None = None) -> float:
    """Worst relative mismatch between mean strains of stress-driven solves
    and the compliance applied to the same basis stresses."""
    params = _column_tol(cell, params or SolveParams())
    mismatches = []
    for load in MANDEL_BASIS:
        w, _ = solve_stress_driven(cell, load, params)
        a_tensor = result.DH @ load
        mismatches.append(float(np.linalg.norm(w.macro - a_tensor) / np.linalg.norm(a_tensor)))
    return max(mismatches)
