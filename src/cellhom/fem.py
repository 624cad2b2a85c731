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
B^T, the fused element stiffness and the DFT block inverses of
constant-material operators) is a method of one ``Stencil`` per cell, built
on first use by ``stencil_of(cell)`` and cached on the cell; the module
functions below go through it. Its kernels are a gather of corner values by
an index table, dense products with per-phase element matrices, and a
scatter that sums each node's contributions in ``CORNERS`` order (see
``Stencil``); the DFT inverses live on the ``rfftn`` half spectrum.
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
    def zeros(cls, cell: VoxelCell, macro=None) -> "LinPerField":
        m = np.zeros(6) if macro is None else np.asarray(macro, dtype=float)
        return cls(m, np.zeros(cell.dims + (3,)))


def shape_gradients(cell: VoxelCell) -> np.ndarray:
    """Physical shape-function gradients, shape ``(8 gauss, 8 corners, 3)``."""
    jac = cell.lattice.matrix @ np.diag([1.0 / n for n in cell.dims])
    jinv_t = np.linalg.inv(jac).T
    grad = np.zeros((8, 8, 3))
    for qi, xi in enumerate(GAUSS_POINTS):
        for ai, a in enumerate(CORNERS):
            g = np.zeros(3)
            for d in range(3):
                val = 2.0 * a[d] - 1.0
                for dd in range(3):
                    if dd != d:
                        val *= xi[dd] if a[dd] else 1.0 - xi[dd]
                g[d] = val
            grad[qi, ai] = jinv_t @ g
    return grad


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
    idx = np.indices(dims).reshape(3, -1)
    cols = []
    for a in CORNERS:
        i, j, k = ((idx[d] + a[d]) % dims[d] for d in range(3))
        cols.append((i * dims[1] + j) * dims[2] + k)
    return np.stack(cols, axis=1)


def scatter_table(conn: np.ndarray) -> np.ndarray:
    """Index of every node's contributions in a flat ``(elements * 8, 3)``
    array of corner forces whose element ``e`` has the nodes ``conn[e]``,
    shape ``(8, n_nodes)``: entry ``[a, node]`` is ``8 * e + a`` for the
    element ``e`` that has ``node`` at corner ``a``."""
    table = np.empty(conn.shape[::-1], dtype=np.int64)
    for a in range(8):
        table[a, conn[:, a]] = 8 * np.arange(conn.shape[0]) + a
    return table


def gather_corners(values: np.ndarray, conn: np.ndarray, out=None) -> np.ndarray:
    """Collect the corner-node values of every voxel, shape ``(n_voxels, 8, 3)``,
    into ``out`` if given. ``conn`` is a valid table, so clipping changes
    nothing; the default ``mode="raise"`` would buffer a full copy of ``out``."""
    return np.take(values.reshape(-1, 3), conn, axis=0, out=out, mode="clip")


@dataclass(frozen=True)
class PhaseBlock:
    """Element matrices of one phase, all for row-vector products ``x @ M``.

    ``sel`` picks the phase's voxels (a slice when it fills the cell) and
    ``rows`` its elements in the core's phase-sorted element order;
    ``c_rows`` and ``d_rows`` apply the stiffness and compliance to Mandel
    rows; ``k_rows`` is the element stiffness. The stress of a mean strain
    ``macro`` and corner displacements ``ue`` integrates over the phase to
    ``c_vol @ macro + g_mean @ sum(ue)`` (``c_vol`` is the stiffness times
    the phase volume), and ``macro @ g_rows`` is its element force (both
    ``g`` are ``w sum_q C B_q``, the second with ``C`` transposed).
    """

    sel: object
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

    Quadrature fields keep the voxel order (``conn``, ``inv_table``); the
    stiffness kernels number the elements phase by phase (``conn_k``,
    ``inv_k``), so each phase's product reads and writes one contiguous
    block. The scatter adds the 8 contributions of a node in ``CORNERS``
    order whatever the element numbering. A uniform per-element
    field thus gives a bit-exactly uniform nodal field, and the zero-mean
    projection then cancels it exactly; summing in element order instead
    leaves rounding noise that costs extra PCG iterations on cells where
    the exact answer is a linear field (a homogeneous cell).

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
        self.conn = corner_table(self.dims)
        self.inv_table = scatter_table(self.conn)
        flat = cell.phase_of.ravel()
        by_phase = np.argsort(flat, kind="stable")
        self.conn_k = self.conn[by_phase]
        self.inv_k = scatter_table(self.conn_k)
        self.bmat = strain_tables(cell).transpose(1, 3, 0, 2).reshape(24, 48)
        self.bmat_t_w = self.w * self.bmat.T
        self.cmean = cell.mean_stiffness
        self.cmean_rows = np.ascontiguousarray(self.cmean.T)
        self.cmean_inv = mandel.invert(self.cmean)
        self.kref = self.element_stiffness(self.cmean)
        bsum = self.w * self.bmat.reshape(24, 8, 6).sum(axis=1).T
        self.phases = []
        start = 0
        for p, c in enumerate(cell.phases):
            idx = np.flatnonzero(flat == p)
            if idx.size:
                self.phases.append(PhaseBlock(
                    sel=slice(None) if idx.size == n else idx,
                    rows=slice(start, start + idx.size), c_vol=8.0 * self.w * idx.size * c,
                    c_rows=np.ascontiguousarray(c.T),
                    d_rows=np.ascontiguousarray(mandel.invert(c).T),
                    k_rows=self.element_stiffness(c), g_mean=c @ bsum, g_rows=c.T @ bsum))
                start += idx.size
        self._ref_pinv = None
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
        """Corner displacements of every element in voxel order, ``(n_voxels, 24)``."""
        return gather_corners(phi, self.conn).reshape(-1, 24)

    def scatter(self, fe: np.ndarray, table: np.ndarray | None = None, work=None) -> np.ndarray:
        """Nodal sum of per-element corner forces ``(n_voxels, 24)``, in
        ``CORNERS`` order per node; elements in voxel order or in the order
        of ``table`` (a ``scatter_table``), gathered into ``work`` if given."""
        table = self.inv_table if table is None else table
        nodes = np.take(fe.reshape(-1, 3), table, axis=0, out=work, mode="clip")
        return nodes.sum(axis=0).reshape(self.dims + (3,))

    def _work_arrays(self):
        """The fused kernels' corner gather, element forces and scatter gather,
        one set per thread, so a cell that a caller's threads share stays safe:
        allocated per call, arrays this large are mapped and page-faulted afresh,
        costing more than the products."""
        if not hasattr(self._tls, "arrays"):
            n = self.conn.shape[0]
            self._tls.arrays = (np.empty((n, 8, 3)), np.empty((n, 24)), np.empty((8, n, 3)))
        return self._tls.arrays

    def _constitutive(self, f: np.ndarray, rows: str) -> np.ndarray:
        """Apply each phase's 6x6 matrix ``rows`` to its voxels of a
        quadrature field."""
        f = f.reshape(-1, 48)
        out = np.empty(f.shape)
        for ph in self.phases:
            out[ph.sel] = (f[ph.sel].reshape(-1, 6) @ getattr(ph, rows)).reshape(-1, 48)
        return out.reshape(self.dims + (8, 6))

    # field operations ------------------------------------------------------

    def strain_periodic(self, phi: np.ndarray) -> np.ndarray:
        return (self.corners(phi) @ self.bmat).reshape(self.dims + (8, 6))

    def strain(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        e = self.strain_periodic(phi)
        e += macro
        return e

    def stress(self, e: np.ndarray) -> np.ndarray:
        return self._constitutive(e, "c_rows")

    def compliance_stress(self, s: np.ndarray) -> np.ndarray:
        return self._constitutive(s, "d_rows")

    def divadj(self, s: np.ndarray) -> np.ndarray:
        return self.scatter(s.reshape(-1, 48) @ self.bmat_t_w)

    def project(self, phi: np.ndarray) -> np.ndarray:
        return phi - node_mean(phi)

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
    def dual_scale(self) -> float:
        """Operator-norm bound of ``divadj``: sqrt(8 * lambda_max) of one
        element Gram matrix (a node touches at most 8 elements)."""
        lam = np.linalg.eigvalsh(self.w * self.bmat @ self.bmat.T)[-1]
        return float(np.sqrt(8.0 * max(lam, 0.0)))

    # periodic-fluctuation operator ------------------------------------------

    def k_phi(self, phi: np.ndarray) -> np.ndarray:
        ue, fe, nodes = self._work_arrays()
        ue = gather_corners(phi, self.conn_k, out=ue).reshape(-1, 24)
        for ph in self.phases:
            np.matmul(ue[ph.rows], ph.k_rows, out=fe[ph.rows])
        return self.project(self.scatter(fe, self.inv_k, nodes))

    def k_ref_phi(self, phi: np.ndarray) -> np.ndarray:
        return self.project(self.scatter(self.corners(phi) @ self.kref))

    # extended operator on (mean strain, fluctuation) -------------------------

    def unpack(self, x: np.ndarray):
        return x[:6], x[6:].reshape(self.dims + (3,))

    def pack(self, macro: np.ndarray, phi: np.ndarray) -> np.ndarray:
        return np.concatenate([np.asarray(macro, dtype=float).ravel(), phi.ravel()])

    def strain_ext(self, x: np.ndarray) -> np.ndarray:
        return self.strain(*self.unpack(x))

    def k_ext(self, x: np.ndarray) -> np.ndarray:
        """Stiffness of ``(mean strain, fluctuation)``: the cell integral of
        the stress, and its nodal divergence functional."""
        macro, phi = self.unpack(x)
        ue, fe, nodes = self._work_arrays()
        ue = gather_corners(phi, self.conn_k, out=ue).reshape(-1, 24)
        mean = np.zeros(6)
        for ph in self.phases:
            u, f = ue[ph.rows], fe[ph.rows]
            np.matmul(u, ph.k_rows, out=f)
            f += macro @ ph.g_rows
            mean += ph.c_vol @ macro + ph.g_mean @ u.sum(axis=0)
        return self.pack(mean, self.project(self.scatter(fe, self.inv_k, nodes)))

    def m_ext(self, x: np.ndarray) -> np.ndarray:
        """Apply the block preconditioner operator itself (not its inverse)."""
        macro, phi = self.unpack(x)
        return self.pack(self.volume * (self.cmean @ macro), self.k_ref_phi(phi))

    # constant-material inverses -----------------------------------------------

    def circulant_pinv(self, c: np.ndarray) -> np.ndarray:
        """DFT-diagonalized pseudo-inverse blocks of the periodic operator of
        the constant material ``c``, on the half spectrum of ``rfftn``.

        That operator is block-circulant on the periodic grid, so one
        impulse response gives its 3x3 Hermitian block per frequency. The
        zero frequency carries the constant nullspace: its block is set to
        the identity for the batched inverse and then zeroed. Every other
        block is positive definite. The blocks are returned component-first,
        shape ``(3, 3, n1, n2, n3 // 2 + 1)``, the layout ``block_solve``
        transforms in.
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

    @property
    def ref_pinv(self) -> np.ndarray:
        """Inverse blocks of the mean-stiffness (reference) operator."""
        if self._ref_pinv is None:
            self._ref_pinv = self.circulant_pinv(self.cmean)
        return self._ref_pinv

    @cached_property
    def unit_pinv(self) -> np.ndarray:
        """Inverse blocks of the unit-material operator (the normal equations
        of the least-squares fit by symmetric gradients)."""
        return self.circulant_pinv(np.eye(6))

    def block_solve(self, pinv: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Apply the half-spectrum inverse blocks ``pinv`` to a nodal field.

        The transforms run on the component-first copy of ``r``, where each
        component is one contiguous grid: about twice as fast as transforming
        the three interleaved components in place.
        """
        rhat = np.fft.rfftn(np.ascontiguousarray(np.moveaxis(r, 3, 0)), axes=(1, 2, 3))
        zhat = pinv[:, 0] * rhat[0]
        zhat += pinv[:, 1] * rhat[1]
        zhat += pinv[:, 2] * rhat[2]
        z = np.fft.irfftn(zhat, s=self.dims, axes=(1, 2, 3))
        return np.ascontiguousarray(np.moveaxis(z, 0, 3))

    def ref_solve(self, r: np.ndarray) -> np.ndarray:
        return self.block_solve(self.ref_pinv, r)

    def precond_ext(self, x: np.ndarray) -> np.ndarray:
        macro, phi = self.unpack(x)
        return self.pack(self.cmean_inv @ macro / self.volume, self.ref_solve(phi))


def stencil_of(cell: VoxelCell) -> Stencil:
    """The operator core of ``cell``, built on first use and cached on it.

    Cells are immutable, so the core never goes stale. The package starts no
    threads; a caller that shares a cell between its own threads fetches the
    core, and the inverse it will use, before starting them, as neither
    build is locked.
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
    return float(w * np.sum(f * g))


def quad_norm(cell: VoxelCell, f: np.ndarray) -> float:
    """L2 norm of a quadrature field."""
    return float(np.sqrt(max(quad_inner(cell, f, f), 0.0)))


def node_mean(values: np.ndarray) -> np.ndarray:
    """Mean nodal value per component."""
    return values.mean(axis=(0, 1, 2))


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


def dual_norm_scale(cell: VoxelCell) -> float:
    """Operator-norm bound converting L2 field size to nodal-functional size.

    ``|div_adjoint(s)|_2 <= dual_norm_scale * |s|_L2`` for every field s.
    """
    return stencil_of(cell).dual_scale


def is_equilibrated(cell: VoxelCell, s: np.ndarray, mean: np.ndarray, tol: float):
    """Weak test for membership in the admissible stress set.

    A quadrature stress field is accepted when its weak divergence vanishes
    against every periodic test displacement and its cell average equals
    ``mean``, both up to ``tol``.

    Returns
    -------
    (ok, div_residual, mean_residual) : tuple[bool, float, float]
        Dimensionless residual ratios; the divergence one is measured in the
        nodal dual norm scaled by ``dual_norm_scale * |s|_L2``, the mean one
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
