"""Discrete periodic spaces on the voxel grid.

Discretization: trilinear (Q1) hexahedral elements on the voxel partition,
one periodic node per voxel corner equivalence class, 2x2x2 Gauss quadrature
per voxel. Linear displacement fields are reproduced exactly and the
element Jacobian is one constant matrix for the whole grid, so the
strain-displacement map of every voxel is the same ``(24, 48)`` matrix and
the element stiffness depends only on the phase.

Field layouts (all plain float arrays):

* nodal displacement / functional:  ``(n1, n2, n3, 3)``
* per-quadrature-point Mandel field: ``(n1, n2, n3, 8, 6)``

``div_adjoint`` is defined as the exact transpose of the quadrature pairing,
so the discrete Green identity

    integral <s, sym_grad v>  ==  <div_adjoint(s), v>_nodes

holds to rounding by construction; the continuous minus-divergence sign is
absorbed into this dual pairing.

Every operator application (strain B, stiffness C, compliance D, adjoint
B^T, the fused element stiffness, the DFT block inverses of
constant-material operators and the admissible-stress correction) is a
method of one ``Stencil`` per cell, built on first use by
``stencil_of(cell)`` and cached on the cell; the module functions below go
through it. Its kernels are a gather of corner values by an index table,
dense products with per-phase element matrices, and a scatter that sums
each node's contributions in ``CORNERS`` order (see ``Stencil``); a stack of
fields is one more leading axis, indexed by the same tables, and each
field of a stack keeps the bits of a call on it alone. The extended
stiffness ``k_ext`` of a (mean strain, fluctuation) pair is ``k_phi`` of the
fluctuation plus a rank-6 coupling: the six unit-strain loads, kept on the
core, and a per-phase sum of the corners that ``k_phi`` gathered. The DFT
inverses live on a half spectrum, and the grid size picks how the reference
inverse is applied: as one dense matrix on the smallest grids
(``DENSE_REF_MAX_DOF``), by products with per-axis DFT matrices, one BLAS
call per transform stage, up to ``DFT_MATRIX_MAX_SIDE`` voxels a side (the
half spectrum of the first axis), and by ``rfftn``/``irfftn`` beyond (that
of the last axis). The core numbers the elements once, phase by
phase; quadrature fields keep the voxel order above and are permuted at the
core's boundary. Its set-up does each piece of work once per cell, by array
expressions over the corners and Gauss points rather than loops, and reads
the cell's cached volume and phase compliances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import itertools
import threading
import weakref

import numpy as np

from . import mandel
from .cell import VoxelCell, cell_average
from .mandel import SQRT2, mandel_to_sym

#: corner offsets of a voxel, fixed ordering shared by gather and scatter
CORNERS = tuple(itertools.product((0, 1), repeat=3))

_GAUSS_1D = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
#: Gauss points on the reference unit cube, fixed ordering
GAUSS_POINTS = tuple(itertools.product(_GAUSS_1D, repeat=3))

#: nodal systems of at most this many unknowns (3 per node) apply the
#: reference inverse as one dense matrix, which up to here at least ties
#: with the DFT-matrix transforms: 5.3 against 21 us at 180 unknowns, 20-22
#: against 23-25 us at 384 and 26-29 against 24-28 us at 450, but 35-38
#: against 26-27 us at 480 and 108-117 against 26-27 us at 648 (2 vCPU,
#: one BLAS thread); it is also the gate of ``solve_strain_stack``'s lockstep
DENSE_REF_MAX_DOF = 450

#: a lockstep run of stress-driven columns (``solvers._stress_columns``), and
#: a stack of certificate residuals preconditioned by one call
#: (``homogenize._certified_gram``), holds at most this many nodal
#: unknowns over all its columns (six up to 10^3 voxels, three at 12^3, two
#: at 14^3, one from 16^3 on): a stack's work arrays grow with it, about 200
#: bytes per unknown, and once they no longer stay in cache one solve after
#: another is as fast. Six Mandel-basis stresses of a two-phase cell, runs
#: of k columns against one column at a time (median and quartiles of
#: in-process interleaved pairs, 2 vCPU, one BLAS thread): six 0.78
#: (0.75-0.81) at 8^3 and 0.85 (0.69-0.93) at 10^3, three 0.92 (0.72-0.94)
#: at 12^3, two 0.94 (0.87-1.02) at 14^3, all within the bound; beyond it
#: six still took 0.87 (0.73-0.94) at 12^3, but six 1.04 (0.97-1.09) at
#: 14^3, and two 1.03 (1.01-1.10), three 1.04 (0.92-1.08) and six 1.12
#: (0.81-1.33) at 16^3
LOCKSTEP_MAX_DOF = 18000

#: grids whose longest side is at most this apply the DFT block inverses by
#: products with per-axis DFT matrices, longer ones by ``rfftn``/``irfftn``:
#: one ``block_solve`` took 26-27 against 91-93 us at 6^3, 200 against
#: 297-307 us at 16^3, 1.93-2.00 against 1.99-2.02 ms at 32^3 and 9.5-9.7
#: against 9.1-9.7 ms at 48^3 (a tie), but 28.4-28.5 against 24.1-24.5 ms
#: at 64^3 (2 vCPU, one BLAS thread)
DFT_MATRIX_MAX_SIDE = 48


@dataclass
class LinPerField:
    """Displacement of the form ``u(y) = A y + phi(y)`` with periodic phi.

    ``macro`` is the symmetric matrix A as a Mandel 6-vector; ``periodic``
    holds the nodal coefficients of phi. The cell average of the symmetric
    gradient of such a field equals ``macro`` (the periodic part contributes
    zero mean strain).
    """

    macro: np.ndarray
    periodic: np.ndarray

    def __post_init__(self):
        self.macro = np.asarray(self.macro, dtype=float)
        self.periodic = np.asarray(self.periodic, dtype=float)

    @classmethod
    def zeros(cls, cell: VoxelCell) -> "LinPerField":
        return cls(np.zeros(6), np.zeros(cell.dims + (3,)))


def shape_gradients(cell: VoxelCell) -> np.ndarray:
    """Physical shape-function gradients, shape ``(8 gauss, 8 corners, 3)``.

    The trilinear shape function of corner ``a`` is the product over the
    axes of ``xi`` or ``1 - xi``; its derivative along axis ``d`` puts the
    sign ``2 a_d - 1`` in place of factor ``d``. A factor of +-1 is exact, so
    the order of the products does not change the result.
    """
    jac = cell.lattice.matrix @ np.diag([1.0 / n for n in cell.dims])
    jinv_t = np.linalg.inv(jac).T
    xi = np.array(GAUSS_POINTS)[:, None, :]
    a = np.array(CORNERS)
    factors = np.repeat(np.where(a == 1, xi, 1.0 - xi)[:, :, None, :], 3, axis=2)
    factors[:, :, range(3), range(3)] = 2.0 * a - 1.0  # (gauss, corner, d, factor)
    return factors.prod(axis=3) @ jinv_t.T


def strain_tables(cell: VoxelCell) -> np.ndarray:
    """Mandel strain-displacement matrices, shape ``(8, 8, 6, 3)``.

    ``B[q, a] @ u_a`` is the Mandel strain contribution of corner ``a`` at
    Gauss point ``q``.
    """
    g = shape_gradients(cell)
    b = np.zeros((8, 8, 6, 3))
    b[:, :, 0, 0] = g[:, :, 0]
    b[:, :, 1, 1] = g[:, :, 1]
    b[:, :, 2, 2] = g[:, :, 2]
    b[:, :, 3, 1] = g[:, :, 2] / SQRT2
    b[:, :, 3, 2] = g[:, :, 1] / SQRT2
    b[:, :, 4, 0] = g[:, :, 2] / SQRT2
    b[:, :, 4, 2] = g[:, :, 0] / SQRT2
    b[:, :, 5, 0] = g[:, :, 1] / SQRT2
    b[:, :, 5, 1] = g[:, :, 0] / SQRT2
    return b


def corner_table(dims) -> np.ndarray:
    """Flat node index of every voxel corner, shape ``(n_voxels, 8)``.

    Row ``e`` lists the nodes of voxel ``e`` (C order over ``dims``) in
    ``CORNERS`` order; node ``(i, j, k)`` is the corner at the low end of
    voxel ``(i, j, k)``, and indices wrap periodically.
    """
    n = np.array(dims)[:, None, None]
    i, j, k = (np.indices(dims).reshape(3, -1, 1) + np.array(CORNERS).T[:, None, :]) % n
    return (i * dims[1] + j) * dims[2] + k


def gather_corners(values: np.ndarray, conn: np.ndarray, out=None) -> np.ndarray:
    """Collect the corner-node values of every voxel of each nodal field of a
    stack along a leading axis (one field is a stack of one), shape ``(k,
    n_voxels, 8, 3)``, into ``out`` if given. ``conn`` is a valid table, so
    clipping changes nothing; the default ``mode="raise"`` would buffer a
    full copy of ``out``."""
    return np.take(values.reshape(-1, len(conn), 3), conn, axis=1, out=out, mode="clip")


def dft_matrices(dims) -> tuple:
    """Per-axis DFT matrices of the transforms of ``Stencil.block_solve``.

    Returns ``(fwd, f2, f3, f2_inv, f3_inv, inv)``. ``f2`` and ``f3`` are the
    complex DFT matrices of the last two axes (symmetric, so ``x @ f``
    transforms the rows of ``x``) and ``f*_inv`` their inverses, ``conj(f) /
    n``. The first axis takes the real half spectrum: ``x @ fwd``, with
    ``fwd`` of shape ``(n1, 2 (n1 // 2 + 1))``, is the half spectrum of the
    rows of ``x`` as interleaved (real, imaginary) pairs, the columns ``cos``
    and ``-sin`` of each frequency, and ``inv @ zr`` is the real inverse of
    the columns of ``zr``: ``inv`` has the columns ``w cos / n1`` and ``-w
    sin / n1``, with ``w`` 1 at the zero and Nyquist terms (whose imaginary
    parts it drops, as ``irfft`` does) and 2 elsewhere. Angles are reduced
    modulo the period before the trigonometric functions.
    """
    def full(n):
        k = np.arange(n)
        return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)

    n1 = dims[0]
    k = np.arange(n1 // 2 + 1)
    ang = 2.0 * np.pi * (np.outer(np.arange(n1), k) % n1) / n1
    cos, sin = np.cos(ang), np.sin(ang)
    sin[:, 2 * k == n1] = 0.0  # the Nyquist term, exact as the zero term is
    w = np.where((k == 0) | (2 * k == n1), 1.0, 2.0) / n1
    fwd = np.stack([cos, -sin], axis=2).reshape(n1, -1)
    f2, f3 = full(dims[1]), full(dims[2])
    return fwd, f2, f3, np.conj(f2) / dims[1], np.conj(f3) / dims[2], fwd * np.repeat(w, 2)


@dataclass(frozen=True)
class PhaseBlock:
    """Element matrices of one phase, all for row-vector products ``x @ M``.

    ``rows`` are the phase's elements in the core's numbering (its voxels
    ``order[rows]``); ``c_rows`` and ``d_rows`` apply the stiffness and
    compliance to Mandel rows; ``k_rows`` is the element stiffness. The stress of a mean strain
    ``macro`` and corner displacements ``ue`` integrates over the phase to
    ``c_vol @ macro + g_mean @ sum(ue)`` (``c_vol`` is the stiffness times
    the phase volume), and ``macro @ g_rows`` is its element force (both
    ``g`` are ``w sum_q C B_q``, the second with ``C`` transposed).
    """

    rows: slice
    c_vol: np.ndarray
    c_rows: np.ndarray
    d_rows: np.ndarray
    k_rows: np.ndarray
    g_mean: np.ndarray
    g_rows: np.ndarray


class Stencil:
    """Operator core of one cell: element matrices, index tables, DFT inverses.

    The voxel Jacobian is one constant matrix, so the strain-displacement
    map of a voxel is one ``(24, 48)`` matrix ``B`` (8 corners x 3
    components to 8 Gauss points x 6 Mandel components), and the element
    stiffness ``K_e = w sum_q B_q^T C_p B_q`` depends only on the phase
    ``p``. Every stiffness application is therefore a gather of the corner
    displacements, one 24x24 product per phase, and a scatter.

    Element ``i`` is voxel ``order[i]``, the voxels sorted stably by phase,
    so each phase's product reads and writes one block; ``conn`` and ``inv``
    are the corner and scatter tables of that numbering, and they index a
    stack of nodal fields along axis 1, so one field is a stack of one.
    Quadrature fields keep the voxel order, permuted at the boundary. The
    scatter adds the 8 contributions of a node in ``CORNERS`` order, so a
    uniform per-element field gives a bit-exactly uniform nodal field, and
    the zero-mean projection then cancels it exactly; summing in element
    order instead leaves rounding noise that costs extra PCG iterations on
    cells where the exact answer is a linear field (a homogeneous cell).

    The constructor builds the tables and the element matrices of every
    present phase; the DFT matrices, the inverse blocks, the dense inverse,
    the unit-strain loads, the condition bounds and the gap factors are
    built on first use. Per step, ``k_phi`` subtracts the nodal mean from
    its fresh result in place, by one product with a kept ones vector, and
    ``k_ext`` is ``k_phi`` plus a rank-6 coupling of the mean strain (the
    unit-strain loads, ``c_vol`` and ``g_mean``), with no element loop of
    its own. The inverse blocks of ``block_solve``'s DFT matrices keep the
    half spectrum of the first axis, those of ``rfftn`` and of the dense
    inverse that of the last axis. ``k_phi``, ``ref_solve`` and
    ``block_solve`` take a stack of several nodal fields too, and ``k_ext``
    and ``precond_ext`` a stack of packed vectors, the columns of a lockstep
    solve, along a leading axis; each gives every field the bits of a call
    on it alone.

    Obtain it through ``stencil_of(cell)``, which builds one per cell.
    """

    def __init__(self, cell: VoxelCell):
        # weak, because the cell caches its core: a strong reference would be
        # a cycle that keeps both alive until the cyclic garbage collector runs
        self._cell = weakref.ref(cell)
        self.dims = cell.dims
        self.volume = cell.volume
        self.w = cell.voxel_volume / 8.0
        n = cell.n_voxels
        flat = cell.phase_of.ravel()
        self.order = np.argsort(flat, kind="stable")
        self.conn = corner_table(self.dims)[self.order]
        # inv[a, node] = 8 e + a, the flat corner-force row of the element e
        # that has node at its corner a
        self.inv = np.empty((8, n), dtype=np.int64)
        self.inv[np.arange(8), self.conn] = np.arange(8 * n).reshape(n, 8)
        self._ones = np.ones(n)  # the node count equals the voxel count
        self.bmat = strain_tables(cell).transpose(1, 3, 0, 2).reshape(24, 48)
        self.bmat_t_w = self.w * self.bmat.T
        self.cmean = cell.mean_stiffness
        self.cmean_rows = np.ascontiguousarray(self.cmean.T)
        self.cmean_inv = mandel.invert(self.cmean)
        bsum = self.w * self.bmat.reshape(24, 8, 6).sum(axis=1).T
        self.phases = []
        start = 0
        counts = np.bincount(flat, minlength=len(cell.phases)).tolist()
        for c, d, count in zip(cell.phases, cell.phase_compliances, counts):
            if count:
                self.phases.append(PhaseBlock(
                    rows=slice(start, start + count), c_vol=8.0 * self.w * count * c,
                    c_rows=np.ascontiguousarray(c.T), d_rows=np.ascontiguousarray(d.T),
                    k_rows=self.element_stiffness(c), g_mean=c @ bsum, g_rows=c.T @ bsum))
                start += count
        # the stiffness times the volume, summed over the phases in their order
        self.c_vol = sum(ph.c_vol for ph in self.phases)
        self._ref_pinv = None
        # whether ref_solve applies the dense inverse ref_dense, not DFT blocks
        self.uses_ref_dense = 3 * n <= DENSE_REF_MAX_DOF
        # the spatial axis of the half spectrum that block_solve reads: the
        # first one for the DFT matrices, the last one for rfftn
        self._half = 0 if max(self.dims) <= DFT_MATRIX_MAX_SIDE else 2
        self._tls = threading.local()

    @property
    def cell(self) -> VoxelCell:
        return self._cell()

    def element_stiffness(self, c: np.ndarray) -> np.ndarray:
        """``K_e^T = w sum_q B_q^T C^T B_q`` of the constant material ``c``,
        for row-vector products ``ue @ K``."""
        bq = self.bmat.reshape(24, 8, 6).transpose(1, 0, 2)
        return self.w * (bq @ c.T @ bq.transpose(0, 2, 1)).sum(axis=0)

    # gather / scatter ------------------------------------------------------

    def corners(self, phi: np.ndarray) -> np.ndarray:
        """Corner displacements of every element, ``(n_voxels, 24)``."""
        return gather_corners(phi, self.conn).reshape(-1, 24)

    def scatter(self, fe: np.ndarray, work=None) -> np.ndarray:
        """Nodal sum of per-element corner forces ``(n_voxels, 24)``, or of
        each field's of a stack ``(k, n_voxels, 24)``, in ``CORNERS`` order
        per node, gathered into ``work`` if given."""
        nodes = np.take(fe.reshape(-1, 8 * len(self.conn), 3), self.inv, axis=1, out=work,
                        mode="clip")
        return nodes.sum(axis=1).reshape(fe.shape[:-2] + self.dims + (3,))

    def _work_arrays(self):
        """The kernels' corner gather ``(1, n_voxels, 8, 3)``, element forces
        ``(n_voxels, 24)`` and scatter gather ``(1, 8, n_voxels, 3)``, plus the
        first two as one ``(n_voxels, 48)`` array for quadrature rows; one
        set per thread, so a cell that a caller's threads share stays safe:
        allocated per call, arrays this large are mapped and page-faulted afresh,
        costing more than the products."""
        if not hasattr(self._tls, "arrays"):
            n = self.conn.shape[0]
            block = np.empty((n, 48))
            ue, fe = block.reshape(2, n, 24)
            self._tls.arrays = (ue.reshape(1, n, 8, 3), fe, np.empty((1, 8, n, 3)), block)
        return self._tls.arrays

    def _constitutive(self, f: np.ndarray, rows: str) -> np.ndarray:
        """Apply each phase's 6x6 matrix ``rows`` to its voxels of a
        quadrature field, gathered into the work arrays."""
        f = f.reshape(-1, 48)
        out = np.empty(f.shape)
        block = self._work_arrays()[3]
        for ph in self.phases:
            sel = self.order[ph.rows]
            f_ph = np.take(f, sel, axis=0, out=block[ph.rows], mode="clip")
            out[sel] = (f_ph.reshape(-1, 6) @ getattr(ph, rows)).reshape(-1, 48)
        return out.reshape(self.dims + (8, 6))

    # field operations ------------------------------------------------------

    def strain_periodic(self, phi: np.ndarray) -> np.ndarray:
        ue, by_voxel, _, _ = self._work_arrays()
        by_voxel[self.order] = gather_corners(phi, self.conn, out=ue).reshape(-1, 24)
        return (by_voxel @ self.bmat).reshape(self.dims + (8, 6))

    def strain(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        e = self.strain_periodic(phi)
        e += macro
        return e

    def stress(self, e: np.ndarray) -> np.ndarray:
        return self._constitutive(e, "c_rows")

    def compliance_stress(self, s: np.ndarray) -> np.ndarray:
        return self._constitutive(s, "d_rows")

    def divadj(self, s: np.ndarray) -> np.ndarray:
        by_voxel, fe, nodes, _ = self._work_arrays()
        by_voxel = np.matmul(s.reshape(-1, 48), self.bmat_t_w, out=by_voxel.reshape(-1, 24))
        return self.scatter(np.take(by_voxel, self.order, axis=0, out=fe, mode="clip"), nodes)

    def _center(self, f: np.ndarray) -> np.ndarray:
        """Subtract the mean nodal value of each field of the contiguous
        stack ``f`` (one field is a stack of one), in place."""
        n = len(self._ones)
        flat = f.reshape(-1, n, 3)
        flat -= (self._ones @ flat / n)[:, None]
        return f

    @cached_property
    def phase_bounds(self) -> tuple:
        """``(lam, Lam)`` with ``lam C0 <= C_p <= Lam C0`` for every present
        phase and the mean stiffness ``C0`` (extreme generalized eigenvalues):
        element by element ``lam M <= K <= Lam M`` for the reference operator
        ``M``, so ``Lam / lam`` bounds the preconditioned condition number."""
        linv = np.linalg.inv(np.linalg.cholesky(self.cmean))
        eig = [np.linalg.eigvalsh(linv @ ph.c_rows.T @ linv.T) for ph in self.phases]
        return float(min(e[0] for e in eig)), float(max(e[-1] for e in eig))

    @cached_property
    def gap_factors(self) -> list:
        """Per present phase, ``(R^T, Q, M)`` of ``correction_gap``.

        With ``D_p = L L^T``, ``W`` (48x24) stacks ``sqrt(w) L^T C0 B_q`` and
        ``M`` (48x6) stacks ``sqrt(w) L^T`` over the Gauss points, so an
        element with corner values ``u`` and mean misfit ``m`` adds ``1/2
        |W u + M m|^2`` to the gap; ``W = Q R`` is a thin QR.
        """
        bq = self.bmat.reshape(24, 8, 6).transpose(1, 2, 0)
        factors = []
        for ph in self.phases:
            lt = np.sqrt(self.w) * np.linalg.cholesky(ph.d_rows.T).T
            q, r = np.linalg.qr((lt @ self.cmean @ bq).reshape(48, 24))
            factors.append((np.ascontiguousarray(r.T), q, np.tile(lt, (8, 1))))
        return factors

    def correction(self, m: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Correction stress ``tau = -(C0 e(phi) + m)``, the dual form of the
        Green-operator projection: with ``phi = ref_solve(divadj(s))`` and ``m
        = cell_average(s) - S``, ``s + tau`` is admissible with mean ``S``."""
        return -(self.strain_periodic(phi) @ self.cmean_rows + m)

    def correction_gap(self, m: np.ndarray, phi: np.ndarray) -> float:
        """``1/2 integral D tau.tau`` of the ``correction`` stress ``tau``,
        from the corner values of ``phi`` without forming ``tau``.

        Per phase, with the rows ``U`` of its elements' corner values,
        ``c = Q^T M m`` and ``s = M m - Q c`` (``gap_factors``), the sum of
        ``1/2 |W u + M m|^2`` over its ``n`` elements is ``1/2 (|U R^T + 1
        c^T|^2 + n |s|^2)``: a sum of squares, so it is never negative, it is
        exactly 0 at zero input, and no large energies cancel in it.
        """
        ue, fe, _, _ = self._work_arrays()
        ue = gather_corners(phi, self.conn, out=ue).reshape(-1, 24)
        total = 0.0
        for ph, (rt, q, mfac) in zip(self.phases, self.gap_factors):
            mm = mfac @ m
            c = q.T @ mm
            s = mm - q @ c
            t = np.matmul(ue[ph.rows], rt, out=fe[ph.rows])
            t += c
            total += float(np.vdot(t, t)) + len(t) * float(s @ s)
        return 0.5 * total

    @cached_property
    def dual_scale(self) -> float:
        """Operator-norm bound of ``divadj``, ``|divadj(s)|_2 <= dual_scale
        * |s|_L2``: sqrt(8 * lambda_max) of one element Gram matrix (a node
        touches at most 8 elements)."""
        lam = np.linalg.eigvalsh(self.w * self.bmat @ self.bmat.T)[-1]
        return float(np.sqrt(8.0 * max(lam, 0.0)))

    # periodic-fluctuation operator ------------------------------------------

    def _stack(self, k: int):
        """The corner gather, element forces and scatter gather of ``k_phi``
        on a stack of ``k`` nodal fields, shapes ``(k, n, 8, 3)``, ``(k, n,
        24)`` and ``(k, 8, n, 3)`` for ``n`` voxels (the forces ``(n, 24)``
        for one field, which uses the core's own work arrays), and each
        phase's product as ``(corners, K_e^T, forces)`` views. Built on
        first use and kept per thread with the work arrays, as plain arrays
        that hold no reference back to the core; of the stacks of several
        fields only the last size is kept, so a caller that changes sizes
        leaves no more than one stack pinned to the cell.
        """
        stacks = getattr(self._tls, "stacks", None)
        if stacks is None:
            stacks = self._tls.stacks = {}
        if k not in stacks:
            if k == 1:
                ue, fe, nodes, _ = self._work_arrays()
            else:
                for size in [size for size in stacks if size != 1]:
                    del stacks[size]
                n = len(self.conn)
                ue, fe, nodes = np.empty((k, n, 8, 3)), np.empty((k, n, 24)), np.empty((k, 8, n, 3))
            u = ue.reshape(fe.shape)
            products = [(u[..., ph.rows, :], ph.k_rows, fe[..., ph.rows, :]) for ph in self.phases]
            stacks[k] = (ue, fe, nodes, products)
        return stacks[k]

    def k_phi(self, phi: np.ndarray) -> np.ndarray:
        """Fluctuation stiffness of one nodal field, or of each field of a
        stack along a leading axis.

        One gather by the corner table ``conn``, one product per phase, one
        scatter gather by ``inv`` and one sum over the 8 corners, then each
        field loses its own nodal mean. The product and the mean take each
        field through the BLAS call, of the same shape, that a call on it
        alone makes, and the gathers and the sum act element by element, so
        each field of a stack equals that call bit for bit, on a BLAS that
        rounds a call alike wherever its operands sit (checked with numpy's
        bundled OpenBLAS).
        """
        ue, fe, nodes, products = self._stack(phi.size // (3 * len(self.conn)))
        gather_corners(phi, self.conn, out=ue)
        for u, k_rows, f in products:
            np.matmul(u, k_rows, out=f)
        return self._center(self.scatter(fe, nodes)).reshape(phi.shape)

    # extended operator on (mean strain, fluctuation) -------------------------

    def unpack(self, x: np.ndarray):
        return x[:6], x[6:].reshape(self.dims + (3,))

    def pack(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(macro, dtype=float).ravel(), phi.ravel()])

    def strain_ext(self, x: np.ndarray) -> np.ndarray:
        return self.strain(*self.unpack(x))

    @cached_property
    def unit_loads(self) -> np.ndarray:
        """The nodal parts of ``mean_strain_load`` of the six unit strains,
        rows of shape ``(6, 3 N)``: each is the scatter of the element forces
        of its row of ``g_rows``, less its nodal mean."""
        _, fe, nodes, _ = self._work_arrays()
        loads = np.empty((6, 3 * len(self.conn)))
        for i, load in enumerate(loads):
            for ph in self.phases:
                fe[ph.rows] = ph.g_rows[i]
            load[:] = self._center(self.scatter(fe, nodes)).ravel()
        return loads

    def k_ext(self, x: np.ndarray) -> np.ndarray:
        """Stiffness of ``(mean strain, fluctuation)``: the cell integral of
        the stress, and its nodal divergence functional.

        It is ``k_phi`` of the fluctuation plus a rank-6 coupling: the nodal
        part adds ``macro @ unit_loads``, and the mean part is ``c_vol @
        macro`` plus, per phase, ``g_mean`` times the sum of the corner rows
        that ``k_phi`` left in the work arrays, taken as a product with a
        ones vector.

        It takes one packed vector or each row of a stack ``(k, 6 + 3N)``:
        the fluctuations go through one ``k_phi`` of the stack, and the
        coupling is taken row by row, by the products of the shapes that one
        row takes, so each row keeps the bits of a call on it alone."""
        xs = x.reshape(-1, x.shape[-1])
        k = len(xs)
        nodal = self.k_phi(xs[:, 6:].reshape((k,) + self.dims + (3,))).reshape(k, -1)
        ue = self._stack(k)[0].reshape(k, -1, 24)
        means = []
        for macro, row, u_col in zip(xs[:, :6], nodal, ue):
            row += macro @ self.unit_loads
            mean = self.c_vol @ macro
            for ph in self.phases:
                u = u_col[ph.rows]
                mean += ph.g_mean @ (self._ones[:len(u)] @ u)
            means.append(mean)
        return np.concatenate([means, nodal], axis=1).reshape(x.shape)

    def mean_strain_load(self, macro: np.ndarray):
        """``unpack(k_ext(pack(macro, 0)))`` without the zero fluctuation's
        ``k_phi``: the mean stress integral ``c_vol @ macro`` and the nodal
        functional ``macro @ unit_loads``."""
        return self.c_vol @ macro, (macro @ self.unit_loads).reshape(self.dims + (3,))

    # constant-material inverses -----------------------------------------------

    def circulant_pinv(self, c: np.ndarray) -> np.ndarray:
        """DFT-diagonalized pseudo-inverse blocks of the periodic operator of
        the constant material ``c``, on the half spectrum of ``rfftn``.

        That operator is block-circulant on the periodic grid, so one
        impulse response gives its 3x3 Hermitian block per frequency. The
        zero frequency carries the constant nullspace: its block is set to
        the identity for the batched inverse and then zeroed. Every other
        block is positive definite. The blocks are returned component-first,
        shape ``(3, 3, n1, n2, n3 // 2 + 1)``, the layout that ``irfftn``
        and the ``rfftn`` branch of ``block_solve`` read.
        """
        kel = self.element_stiffness(c)
        kernel = np.zeros(self.dims + (3, 3))
        for d in range(3):
            imp = np.zeros(self.dims + (3,))
            imp[0, 0, 0, d] = 1.0
            kernel[..., :, d] = self.scatter(self.corners(imp) @ kel)
        khat = np.fft.rfftn(kernel, axes=(0, 1, 2))
        khat = 0.5 * (khat + np.conj(khat.transpose(0, 1, 2, 4, 3)))
        khat[0, 0, 0] = np.eye(3)
        pinv = np.linalg.inv(khat)
        pinv[0, 0, 0] = 0.0
        return np.ascontiguousarray(pinv.transpose(3, 4, 0, 1, 2))

    def _half_layout(self, pinv: np.ndarray, half: int) -> np.ndarray:
        """The blocks ``pinv``, kept on the half spectrum of the first or of
        the last spatial axis, on that of the spatial axis ``half`` (0 or 2).

        Blocks already there are returned as they are. The others are
        gathered exactly: the spectrum of a real field is conjugate
        symmetric, so the block of a frequency ``k`` outside the kept half
        is the conjugate of that of ``-k``. Where both layouts hold the
        whole spectrum (at most 2 voxels along both axes) they coincide.
        """
        shape = tuple(n // 2 + 1 if a == half else n for a, n in enumerate(self.dims))
        if pinv.shape[2:] == shape:
            return pinv
        other = 2 - half
        k = np.indices(shape)
        kept = k[other] < self.dims[other] // 2 + 1
        idx = np.where(kept, k, -k % np.reshape(self.dims, (3, 1, 1, 1)))
        blocks = np.ascontiguousarray(pinv[:, :, idx[0], idx[1], idx[2]])
        np.conjugate(blocks, out=blocks, where=~kept)
        return blocks

    @property
    def ref_pinv(self) -> np.ndarray:
        """Inverse blocks of the mean-stiffness (reference) operator: on
        grids of at most ``DENSE_REF_MAX_DOF`` unknowns in the layout of
        ``circulant_pinv``, from which ``ref_dense`` is built, elsewhere in
        the layout that ``block_solve`` reads."""
        if self._ref_pinv is None:
            pinv = self.circulant_pinv(self.cmean)
            self._ref_pinv = pinv if self.uses_ref_dense else self._half_layout(pinv, self._half)
        return self._ref_pinv

    @cached_property
    def unit_pinv(self) -> np.ndarray:
        """Inverse blocks of the unit-material operator (the normal equations
        of the least-squares fit by symmetric gradients), in the layout that
        ``block_solve`` reads."""
        return self._half_layout(self.circulant_pinv(np.eye(6)), self._half)

    @cached_property
    def _dft(self):
        """``dft_matrices`` of the grid, or None past ``DFT_MATRIX_MAX_SIDE``
        voxels a side; built on the first ``block_solve``, which grids of at
        most ``DENSE_REF_MAX_DOF`` unknowns run only for ``unit_pinv``."""
        return dft_matrices(self.dims) if self._half == 0 else None

    def block_solve(self, pinv: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Apply the half-spectrum inverse blocks ``pinv`` to a nodal field,
        or to each field of a stack along a leading axis (one field is a
        stack of one); the result keeps the shape of ``r``. Blocks kept on
        the other half spectrum are gathered into this one first
        (``_half_layout``).

        On grids of at most ``DFT_MATRIX_MAX_SIDE`` voxels a side the
        transforms are products with per-axis DFT matrices (``dft_matrices``),
        one BLAS call per stage and field with no transposing copy: on a few
        voxels ``rfftn`` spends far more on its per-line overhead than the
        products cost. Each forward stage contracts the leading axis of a
        C-ordered field and appends its frequency axis (``x.reshape(n,
        -1).T @ f``): the real half spectrum of the first axis, then the
        second and the third axis, so the components arrive leading, and the
        blocks are kept with the half spectrum on the first axis. Each
        inverse stage contracts the last axis and puts the position first
        (``f_inv @ x.reshape(-1, n).T``), in the reverse order, which returns
        the nodal layout. Longer grids transform by ``rfftn``/``irfftn`` the
        component-first copy of ``r``, where each component is one
        contiguous grid, with the half spectrum on the last axis. A stage of
        a stack is one ``np.matmul`` over the fields, which takes each field
        by the BLAS call that a field alone takes, and the block product and
        the FFTs act field by field, so each field keeps the bits of a call
        on it alone.
        """
        n1, n2, n3 = self.dims
        k = r.size // (3 * n1 * n2 * n3)
        pinv = self._half_layout(pinv, self._half)
        if self._dft is None:
            rhat = np.fft.rfftn(
                np.ascontiguousarray(np.moveaxis(r.reshape(k, n1, n2, n3, 3), 4, 1)),
                axes=(2, 3, 4))
        else:
            fwd, f2, f3, f2_inv, f3_inv, inv = self._dft
            rhat = np.matmul(r.reshape(k, n1, -1).transpose(0, 2, 1), fwd).view(complex)
            rhat = np.matmul(rhat.reshape(k, n2, -1).transpose(0, 2, 1), f2)  # (n3, 3, h1, n2)
            rhat = np.matmul(rhat.reshape(k, n3, -1).transpose(0, 2, 1), f3).reshape(
                (k, 3) + pinv.shape[2:])
        zhat = pinv[:, 0] * rhat[:, 0:1]
        zhat += pinv[:, 1] * rhat[:, 1:2]
        zhat += pinv[:, 2] * rhat[:, 2:3]
        if self._dft is None:
            z = np.fft.irfftn(zhat, s=self.dims, axes=(2, 3, 4))
            return np.ascontiguousarray(np.moveaxis(z, 1, 4)).reshape(r.shape)
        z = np.matmul(f3_inv, zhat.reshape(k, -1, n3).transpose(0, 2, 1))  # (n3, 3, h1, n2)
        z = np.matmul(f2_inv, z.reshape(k, -1, n2).transpose(0, 2, 1))  # (n2, n3, 3, h1)
        z = z.reshape(k, -1, n1 // 2 + 1).view(float).transpose(0, 2, 1)
        return np.matmul(inv, z).reshape(r.shape)

    @cached_property
    def ref_dense(self) -> np.ndarray:
        """``ref_pinv`` as one dense ``(3N, 3N)`` matrix over the N nodes.

        The inverse is block-circulant: one inverse transform of the blocks
        gives the 3x3 block ``G(d)`` of every node offset ``d``, and block
        ``(i, j)`` is ``G((i - j) mod dims)``, placed by an offset table.
        """
        g = np.fft.irfftn(self._half_layout(self.ref_pinv, 2), s=self.dims, axes=(2, 3, 4))
        # off[i, j] is the flat index of (i - j) mod dims, built axis by axis
        # in C order: from the table of the leading axes and that of the next
        off = np.zeros((1, 1), dtype=np.intp)
        for n in self.dims:
            d = (np.arange(n)[:, None] - np.arange(n)) % n
            off = (off[:, None, :, None] * n + d[:, None, :]).reshape(len(off) * n, -1)
        # row a N + m of ``rows`` is row a of G(m), so one take of the rows
        # a N + off[i, j] lays the blocks out in the (3N, 3N) order directly
        nodes = len(off)
        rows = np.ascontiguousarray(g.reshape(3, 3, nodes).transpose(0, 2, 1)).reshape(-1, 3)
        idx = off[:, None, :] + nodes * np.arange(3)[:, None]
        return np.take(rows, idx, axis=0).reshape(3 * nodes, -1)

    def ref_solve(self, r: np.ndarray) -> np.ndarray:
        """Apply the reference inverse to a nodal field, or to each field of
        a stack along a leading axis (one field is a stack of one): by the
        dense matrix where ``uses_ref_dense``, one matrix-vector product per
        field (one product with all the fields would be faster, but it
        rounds differently), else by DFT blocks (``block_solve``)."""
        if self.uses_ref_dense:
            dense = self.ref_dense
            return np.matmul(dense, r.reshape(-1, len(dense), 1)).reshape(r.shape)
        return self.block_solve(self.ref_pinv, r)

    def precond_ext(self, x: np.ndarray) -> np.ndarray:
        """The preconditioner of ``k_ext``: ``cmean^-1 / V`` on the mean
        strain and ``ref_solve`` on the fluctuation, of one packed vector or
        of each row of a stack ``(k, 6 + 3N)``; the 6x6 product is taken
        per row."""
        xs = x.reshape(-1, x.shape[-1])
        nodal = self.ref_solve(xs[:, 6:]).reshape(len(xs), -1)
        means = [self.cmean_inv @ macro / self.volume for macro in xs[:, :6]]
        return np.concatenate([means, nodal], axis=1).reshape(x.shape)


def stencil_of(cell: VoxelCell) -> Stencil:
    """The operator core of ``cell``, built on first use and cached on it.

    Cells are immutable, so the core never goes stale. The package starts no
    threads; a caller that shares a cell between its own threads fetches the
    core, and the inverse it will use, before starting them, as none of the
    lazy builds is locked: ``ref_pinv``, ``unit_pinv``, ``unit_loads``,
    ``phase_bounds``, ``gap_factors``, ``dual_scale`` and the DFT matrices
    of ``block_solve``,
    and on grids of at most ``DENSE_REF_MAX_DOF`` unknowns also
    ``ref_dense``. The tables and element matrices are built with the core.
    The kernels' work arrays, also those of a stack of fields (``_stack``,
    built by the first ``k_phi`` of a stack of that size), are kept per
    thread, so they need no such care.
    """
    st = vars(cell).get("_stencil")
    if st is None:
        st = vars(cell)["_stencil"] = Stencil(cell)
    return st


def sym_gradient(cell: VoxelCell, u: LinPerField) -> np.ndarray:
    """Symmetric gradient of ``u`` at every Gauss point, Mandel components."""
    return stencil_of(cell).strain(u.macro, u.periodic)


def div_adjoint(cell: VoxelCell, s: np.ndarray) -> np.ndarray:
    """Nodal functional dual to the quadrature pairing with ``sym_gradient``.

    Returns the array ``F`` with ``<F, v>_nodes = integral <s, sym_grad v>``
    for every periodic nodal field ``v``.
    """
    return stencil_of(cell).divadj(s)


def quad_inner(cell: VoxelCell, f: np.ndarray, g: np.ndarray) -> float:
    """L2 inner product of two quadrature fields."""
    w = cell.voxel_volume / 8.0
    return float(w * np.vdot(f, g))


def quad_norm(cell: VoxelCell, f: np.ndarray) -> float:
    """L2 norm of a quadrature field."""
    return float(np.sqrt(max(quad_inner(cell, f, f), 0.0)))


def node_mean(values: np.ndarray) -> np.ndarray:
    """Mean nodal value per component, as one BLAS product: at 16^3 it takes
    9 us where ``mean(axis=(0, 1, 2))`` took 92 (8 against 21 us at 8^3)."""
    flat = values.reshape(-1, 3)
    return np.ones(len(flat)) @ flat / len(flat)


def node_centroid(cell: VoxelCell) -> np.ndarray:
    """Mean position of the periodic nodes (nodes sit at G @ (i/n))."""
    frac = np.array([(n - 1) / (2.0 * n) for n in cell.dims])
    return cell.lattice.matrix @ frac


def project_zero_mean(cell: VoxelCell, u: LinPerField) -> LinPerField:
    """Shift ``u`` by a constant vector so its nodal cell average vanishes.

    The symmetric gradient is unchanged (constants drop out); idempotent.
    """
    shift = node_mean(u.periodic) + mandel_to_sym(u.macro) @ node_centroid(cell)
    return LinPerField(u.macro.copy(), u.periodic - shift)


def is_equilibrated(cell: VoxelCell, s: np.ndarray, mean: np.ndarray, tol: float):
    """Weak test for membership in the admissible stress set.

    A quadrature stress field is accepted when its weak divergence vanishes
    against every periodic test displacement and its cell average equals
    ``mean``, both up to ``tol``.

    Returns
    -------
    (ok, div_residual, mean_residual) : tuple[bool, float, float]
        Dimensionless residual ratios; the divergence one is measured in the
        nodal dual norm scaled by ``Stencil.dual_scale * |s|_L2``, the mean one
        relative to ``|mean|`` (absolute when ``mean`` is zero).
    """
    mean = np.asarray(mean, dtype=float)
    st = stencil_of(cell)
    fnorm = float(np.linalg.norm(st.divadj(s)))
    scale = st.dual_scale * quad_norm(cell, s)
    div_res = fnorm / scale if scale > 0.0 else 0.0
    dmean = np.linalg.norm(cell_average(cell, s) - mean)
    mnorm = np.linalg.norm(mean)
    mean_res = float(dmean / mnorm) if mnorm > 0.0 else float(dmean)
    return (div_res <= tol and mean_res <= tol), div_res, mean_res


def compatibility_residual(cell: VoxelCell, e: np.ndarray) -> float:
    """L2 distance from ``e`` to the range of ``sym_gradient``.

    The best macro part is the cell average of ``e`` (periodic gradients have
    zero mean). The periodic part solves the normal equations of the
    least-squares fit, whose operator is the unit-material stiffness; it is
    block-circulant, so one DFT block solve gives it exactly. Zero iff ``e``
    is a discrete compatible strain.
    """
    st = stencil_of(cell)
    phi = st.block_solve(st.unit_pinv, st.divadj(e))
    return quad_norm(cell, e - st.strain(cell_average(cell, e), phi))
