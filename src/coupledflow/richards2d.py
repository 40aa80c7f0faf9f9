"""Variably saturated subsurface flow on a 2D Cartesian grid.

Richards' equation in mixed form,

    d theta(psi) / dt + div v = 0,      v = -K(psi) grad(psi + z),

is discretized with bilinear quadrilateral finite elements (2x2 Gauss points
per element, consistent mass) and implicit Euler in time; the state is the
array psi of nodal pressure heads.  One time step asks for a root of the
weak residual

    R_i = <theta(psi) - theta(psi_old), phi_i>
          + dt <K(psi) grad(psi + z), grad phi_i>

over the free nodes, with Dirichlet rows replaced by (psi_node - prescribed);
the root is found by the shared damped Newton (iteration.damped_newton) with
the analytic capacity c(psi) and conductivity derivative K'(psi).  Newton
stops at a max-norm residual of max(NEWTON_ABS_TOL, NEWTON_REL_TOL * initial
norm), halves each step at most NEWTON_TRIALS - 1 times and fails after
NEWTON_MAX_ITERS iterations.  Each iterate is interpolated and its closures
evaluated once (at_qp): the Jacobian reuses the fields of the trial whose
residual the line search accepted, and newton_step takes and returns fields
so that a sweep hands its result's fields to the next, together with their
free residual (the residual before the Dirichlet rows are overwritten),
which holds while theta_old and dt stay the same.  The surface coupling
reads the normal Darcy flux at the midpoint of every top cell edge,

    flux_l = -K(psi_mid) (d_z psi_mid + 1) * dx,

positive when water leaves the soil.  Nonlinear coefficients are evaluated at
quadrature points from the interpolated psi, and material parameters may vary
horizontally (they are baked in per quadrature point at workspace setup).

A workspace serves one Dirichlet node set, given when it is built and
checked there only (a 1d array of distinct integer node indices): one node
set per workspace, whose values newton_step takes each sweep.  The
Jacobian is assembled straight into the order SuperLU's gssv solves it:
the workspace finds, once, the CSC pattern a constrained matrix keeps and
the column order perm_c gssv gives it (COLAMD, then its column etree
postorder; both read the pattern only), and stores it as P^T A P.  One
bincount sums the element matrices (duplicates in element order) into its
slots, the dropped off-diagonals of Dirichlet rows into one extra bin, and
Dirichlet rows become identity rows: the matrix a COO -> CSR -> "+ diags"
-> CSC chain gives, permuted.  Each solve hands SuperLU those arrays as
they are, permutes only the right-hand side and the solution, and does the
arithmetic of scipy.sparse.linalg.spsolve on the unpermuted arrays with
no sparse matrix object or ordering, giving the same bits.  A kept entry
that cancels to an exact zero (saturated soil on some grids) stays in the
fixed pattern as a stored zero, where the chain would drop it.  SuperLU's
_superlu is loaded on its own (_compiled.extension), without scipy.sparse;
MatrixRankWarning is imported only when a solve finds the matrix singular.
Building a workspace frees one untouched 16 MiB block so that glibc keeps
SuperLU's per-solve workspace on the heap (see RichardsWorkspace).
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._compiled import extension
from .iteration import NewtonReport, damped_newton

_superlu = extension("scipy.sparse.linalg._dsolve._superlu")

NEWTON_ABS_TOL = 1e-10
NEWTON_REL_TOL = 1e-8
NEWTON_MAX_ITERS = 50
NEWTON_TRIALS = 11


@dataclass(frozen=True)
class Grid2D:
    """Cartesian grid of num_x by num_z rectangular elements."""

    length_x: float
    length_z: float
    num_x: int
    num_z: int

    def __post_init__(self) -> None:
        if not (0.0 < self.length_x < np.inf
                and 0.0 < self.length_z < np.inf):
            raise ValueError("domain lengths must be positive and finite")
        for name in ("num_x", "num_z"):
            count = getattr(self, name)
            if not (float(count).is_integer() and count >= 1):
                raise ValueError("need a whole number of at least one "
                                 "element per direction")
            object.__setattr__(self, name, int(count))

    @property
    def dx(self) -> float:
        return self.length_x / self.num_x

    @property
    def dz(self) -> float:
        return self.length_z / self.num_z

    @property
    def num_nodes(self) -> int:
        return (self.num_x + 1) * (self.num_z + 1)

    def node_index(self, ix, iz):
        return iz * (self.num_x + 1) + ix

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays of x and z for every node, in node index order."""
        ix = np.arange(self.num_x + 1)
        iz = np.arange(self.num_z + 1)
        x, z = np.meshgrid(ix * self.dx, iz * self.dz)
        return x.ravel(), z.ravel()

    def top_node_indices(self) -> np.ndarray:
        """Nodes on z = length_z, ordered by increasing x."""
        return self.node_index(np.arange(self.num_x + 1), self.num_z)

    def connectivity(self) -> np.ndarray:
        """Element to node map, corners ordered counterclockwise from
        bottom left."""
        ex, ez = np.meshgrid(np.arange(self.num_x), np.arange(self.num_z))
        ex, ez = ex.ravel(), ez.ravel()
        return np.column_stack([
            self.node_index(ex, ez), self.node_index(ex + 1, ez),
            self.node_index(ex + 1, ez + 1), self.node_index(ex, ez + 1)])


# A Jacobian P^T A P: the CSC arrays of A in its workspace's fixed pattern
# (exact zeros kept), already in the column order perm_c gssv gives that
# pattern, rows relabelled with the columns.
Jacobian = namedtuple("Jacobian", "data indices indptr perm_c")


def spsolve(matrix: Jacobian, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs, stored zeros included, bit for bit as
    scipy.sparse.linalg.spsolve on A's CSC arrays; an exactly singular
    matrix warns MatrixRankWarning and gives NaN, as there."""
    data, indices, indptr, perm_c = matrix
    # the matrix is in gssv's order, so SuperLU's own ordering is the
    # identity and only rhs and the solution are permuted
    ordered_rhs = np.empty_like(rhs)
    ordered_rhs[perm_c] = rhs
    y, info = _superlu.gssv(
        len(indptr) - 1, len(data), data, indices, indptr, ordered_rhs, 1,
        options=dict(ColPerm="NATURAL"))
    x = y[perm_c]
    if info != 0:
        from scipy.sparse.linalg import MatrixRankWarning
        warnings.warn("Matrix is exactly singular", MatrixRankWarning,
                      stacklevel=2)
        x.fill(np.nan)
    return x


QuadratureFields = namedtuple("QuadratureFields", "psi dpsi_dx dpsi_dz soil")


# Reference element machinery (corners ordered BL, BR, TR, TL).
_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_GAUSS = np.array([(sx / np.sqrt(3.0), sz / np.sqrt(3.0))
                   for sz in (-1.0, 1.0) for sx in (-1.0, 1.0)])


def _shape_values(points: np.ndarray) -> np.ndarray:
    xi, eta = points[:, :1], points[:, 1:]
    cx, cz = _CORNERS[:, 0], _CORNERS[:, 1]
    return (1.0 + xi * cx) * (1.0 + eta * cz) / 4.0


def _shape_gradients(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xi, eta = points[:, :1], points[:, 1:]
    cx, cz = _CORNERS[:, 0], _CORNERS[:, 1]
    return cx * (1.0 + eta * cz) / 4.0, (1.0 + xi * cx) * cz / 4.0


class RichardsWorkspace:
    """Precomputed assembly data for one grid / material pairing and one
    set of Dirichlet nodes (none when nodes is None).

    The material must provide ``at(x) -> bound``, whose ``at_heads(psi)``
    holds the arrays theta, capacity, hydraulic_conductivity and
    conductivity_derivative at psi; ``material.MaterialField`` does.
    """

    def __init__(self, grid: Grid2D, material, nodes=None):
        self.grid = grid
        num_nodes = grid.num_nodes
        self.nodes = np.asarray(np.empty(0, int) if nodes is None else nodes)
        # distinct by a set: np.unique of a plain array imports numpy.ma
        if not (self.nodes.ndim == 1
                and np.issubdtype(self.nodes.dtype, np.integer)
                and len(set(self.nodes.tolist())) == self.nodes.size
                and np.all((self.nodes >= 0) & (self.nodes < num_nodes))):
            raise ValueError("Dirichlet nodes must be a 1d array of distinct "
                             f"integer node indices in [0, {num_nodes})")
        self.conn = grid.connectivity()
        self.weight = grid.dx * grid.dz / 4.0
        self.shape = _shape_values(_GAUSS)
        dxi, deta = _shape_gradients(_GAUSS)
        self.grad_x = dxi * 2.0 / grid.dx
        self.grad_z = deta * 2.0 / grid.dz
        # gradient-gradient outer products per quadrature point
        self.grad_outer = (np.einsum("qa,qb->qab", self.grad_x, self.grad_x)
                           + np.einsum("qa,qb->qab", self.grad_z, self.grad_z))
        node_x, _ = grid.node_coords()
        self.qp_x = node_x[self.conn] @ self.shape.T
        self.bound = material.at(self.qp_x)
        # Freeing a block that malloc mapped raises glibc's mmap threshold to
        # its size and the trim threshold to twice that (mallopt(3), dynamic
        # mmap threshold).  This untouched 16 MiB block therefore keeps
        # SuperLU's per-solve LU workspace on the heap: without it each gssv
        # call maps, faults in and unmaps that workspace afresh.
        np.empty(1 << 21)
        # The CSC pattern of the 16 entries per element (keys sorted by
        # column, then row) keeps all but the off-diagonals of constrained
        # rows.  It is stored as gssv solves it, P^T A P: columns in the
        # order perm_c gssv gives the kept pattern, rows relabelled with
        # them (the pivot search prefers diagonals), each column's rows in
        # their stored order, which SuperLU visits in that order.  perm_c
        # reads the pattern only, so stand-in values (strictly diagonally
        # dominant columns) give it; the copy lets the factorization go.
        # _slot sends each entry to its data slot, or to the extra bin
        # _kept when dropped; _diagonal holds the constrained rows' slots.
        rows = np.broadcast_to(self.conn[:, :, None], (len(self.conn), 4, 4))
        cols = np.broadcast_to(self.conn[:, None, :], (len(self.conn), 4, 4))
        keys, slot = np.unique((cols * num_nodes + rows).ravel(),
                               return_inverse=True)
        col, row = np.divmod(keys, num_nodes)
        constrained = np.zeros(num_nodes, dtype=bool)
        constrained[self.nodes] = True
        keep = ~constrained[row] | (row == col)
        col, row = col[keep], row[keep]
        self._kept = len(row)
        counts = np.bincount(col, minlength=num_nodes)
        indptr = np.append(0, np.cumsum(counts)).astype(np.intc)
        stand_in = np.full(self._kept, -1.0)
        stand_in[row == col] = counts
        perm_c = _superlu.gstrf(
            num_nodes, self._kept, stand_in, row.astype(np.intc), indptr,
            csc_construct_func=None,
            options=dict(ColPerm="COLAMD")).perm_c.copy()
        solve_col = perm_c[col]
        order = np.argsort(solve_col, kind="stable")
        to_slot = np.full(len(keys), self._kept)
        to_slot[np.flatnonzero(keep)[order]] = np.arange(self._kept)
        self._slot = to_slot[slot.ravel()]
        self._indices = perm_c[row[order]].astype(np.intc)
        self._indptr = np.append(0, np.cumsum(np.bincount(
            solve_col, minlength=num_nodes))).astype(np.intc)
        self._diagonal = np.flatnonzero(constrained[row[order]])
        self._perm_c = perm_c
        # top-edge midpoints for the interface flux
        self._top_bound = material.at((np.arange(grid.num_x) + 0.5) * grid.dx)

    # ── assembly ─────────────────────────────────────────────────────────

    def at_qp(self, psi: np.ndarray) -> QuadratureFields:
        """psi with its gradients and closures at the quadrature points;
        raises FloatingPointError where water content or K is not finite."""
        psi_el = psi[self.conn]
        soil = self.bound.at_heads(psi_el @ self.shape.T)
        for label, values in (("water content", soil.theta),
                              ("conductivity", soil.hydraulic_conductivity)):
            if not np.isfinite(values).all():
                element = int(np.argwhere(~np.isfinite(values))[0][0])
                raise FloatingPointError(
                    f"non-finite {label} in element {element}")
        return QuadratureFields(psi, psi_el @ self.grad_x.T,
                                psi_el @ self.grad_z.T, soil)

    def residual(self, fields: QuadratureFields, theta_old_qp: np.ndarray,
                 dt: float) -> np.ndarray:
        """Weak residual at at_qp(psi_new), Dirichlet rows not overwritten
        (the free residual); theta_old_qp is theta(psi_old)."""
        _, dpsi_dx, dpsi_dz, soil = fields
        cond_qp = soil.hydraulic_conductivity
        element_res = self.weight * (
            (soil.theta - theta_old_qp) @ self.shape
            + dt * ((cond_qp * dpsi_dx) @ self.grad_x
                    + (cond_qp * (dpsi_dz + 1.0)) @ self.grad_z))
        return np.bincount(self.conn.ravel(), element_res.ravel(),
                           self.grid.num_nodes)

    def _element_jacobians(self, fields: QuadratureFields,
                           dt: float) -> np.ndarray:
        _, dpsi_dx, dpsi_dz, soil = fields
        # directional derivative of the Darcy term splits into a K' advection
        # part and the symmetric K stiffness part
        advect = (dpsi_dx[:, :, None] * self.grad_x[None, :, :]
                  + (dpsi_dz + 1.0)[:, :, None] * self.grad_z[None, :, :])
        return self.weight * (
            np.einsum("eq,qa,qb->eab", soil.capacity, self.shape, self.shape)
            + dt * (np.einsum("eq,eqa,qb->eab", soil.conductivity_derivative,
                              advect, self.shape)
                    + np.einsum("eq,qab->eab", soil.hydraulic_conductivity,
                                self.grad_outer)))

    def jacobian(self, fields: QuadratureFields, dt: float) -> Jacobian:
        """The Jacobian at fields, its Dirichlet rows identity rows, in the
        workspace's fixed pattern and solve order, exact zeros kept."""
        # duplicates are summed in element order; the last bin takes the
        # dropped entries
        data = np.bincount(self._slot,
                           self._element_jacobians(fields, dt).ravel(),
                           self._kept + 1)[:-1]
        data[self._diagonal] = 1.0
        return Jacobian(data, self._indices, self._indptr, self._perm_c)

    # ── solves ───────────────────────────────────────────────────────────

    def newton_step(self, start: QuadratureFields, theta_old_qp: np.ndarray,
                    dt: float, values: np.ndarray,
                    start_free: np.ndarray | None = None,
                    ) -> tuple[QuadratureFields, np.ndarray, NewtonReport]:
        """One implicit Euler step from the fields at_qp(psi) of the start
        iterate to those of the new one; theta_old_qp is theta(psi_old)
        and values are the heads prescribed at the workspace's nodes.

        Also returns the free residual at the new fields: the weak residual
        before its Dirichlet rows are overwritten, which depends on
        theta_old_qp and dt but not on the Dirichlet values.  start_free,
        the free residual at start for the same theta_old_qp and dt, spares
        its recomputation.
        """
        if not np.isfinite(start.psi).all():
            raise ValueError("start field contains non-finite values")
        if not dt > 0.0:
            raise ValueError("dt must be positive")
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape or not np.isfinite(values).all():
            raise ValueError("Dirichlet values must be finite, one per node")
        latest, free = start, start_free
        nodes = self.nodes

        def residual(trial: np.ndarray) -> np.ndarray:
            nonlocal latest, free
            if trial is not latest.psi:
                latest, free = self.at_qp(trial), None
            if free is None:
                free = self.residual(latest, theta_old_qp, dt)
            out = free.copy()
            out[nodes] = trial[nodes] - values
            return out

        # latest is at_qp(x) in direction(x, r) and for the x returned, free
        # its free residual
        _, report = damped_newton(
            residual, lambda trial, res: spsolve(
                self.jacobian(latest, dt), -res), start.psi,
            lambda norm0: max(NEWTON_ABS_TOL, NEWTON_REL_TOL * norm0),
            NEWTON_MAX_ITERS, NEWTON_TRIALS)
        return latest, free, report

    def interface_flux(self, psi: np.ndarray) -> np.ndarray:
        """Outward normal flux integral over each top cell [m^2/s]."""
        # the top row is the last num_x + 1 nodes, the row below precedes it
        row = self.grid.num_x + 1
        top, below = psi[-row:], psi[-2 * row:-row]
        psi_mid = 0.5 * (top[:-1] + top[1:])
        psi_below = 0.5 * (below[:-1] + below[1:])
        gradient = (psi_mid - psi_below) / self.grid.dz
        cond = self._top_bound.at_heads(psi_mid).hydraulic_conductivity
        return -cond * (gradient + 1.0) * self.grid.dx


FIELD_COLUMNS = ("x", "z", "psi", "theta", "K")


def field_rows(psi: np.ndarray, grid: Grid2D, node_material) -> list[dict]:
    """Snapshot rows (x, z, psi, theta, K) in node order from node_material."""
    node_x, node_z = grid.node_coords()
    soil = node_material.at_heads(psi)
    theta, cond = soil.theta, soil.hydraulic_conductivity
    return [{"x": node_x[i], "z": node_z[i], "psi": psi[i],
             "theta": theta[i], "K": cond[i]}
            for i in range(psi.size)]
