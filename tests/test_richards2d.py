"""Tests for the 2d variably saturated subsurface solver.

The assembled residual is checked against a from-scratch scalar loop over
elements and quadrature points, the Jacobian against central differences,
and the implicit step against regimes with known behaviour (hydrostatic
rest, fully saturated linear flow).
"""

import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve
from scipy.sparse.linalg._dsolve import _superlu

from coupledflow import richards2d, scenarios
from coupledflow.coupling import CoupledProblem, CoupledState, run_simulation
from coupledflow.iteration import NewtonError
from coupledflow.material import SOIL_PRESETS, MaterialField
from coupledflow.richards2d import (
    FIELD_COLUMNS,
    Grid2D,
    RichardsWorkspace,
    field_rows,
)
from coupledflow.surface1d import SurfaceModel

SILT = MaterialField(SOIL_PRESETS["silt-loam"])
CLAY = MaterialField(SOIL_PRESETS["beit-netofa-clay"])


def small_grid() -> Grid2D:
    return Grid2D(length_x=1.5, length_z=1.0, num_x=3, num_z=2)


def residual_oracle(grid: Grid2D, material, psi_new: np.ndarray,
                    psi_old: np.ndarray, dt: float) -> np.ndarray:
    """Scalar reassembly of the weak form, one quadrature point at a time."""
    corners = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    g = 1.0 / np.sqrt(3.0)
    out = np.zeros(grid.num_nodes)
    weight = grid.dx * grid.dz / 4.0
    for element, nodes in enumerate(grid.connectivity()):
        ex = element % grid.num_x
        for xi, eta in [(-g, -g), (g, -g), (-g, g), (g, g)]:
            shape = np.array([(1.0 + xi * cx) * (1.0 + eta * cz) / 4.0
                              for cx, cz in corners])
            dshape_dx = np.array([cx * (1.0 + eta * cz) / 4.0
                                  for cx, cz in corners]) * 2.0 / grid.dx
            dshape_dz = np.array([(1.0 + xi * cx) * cz / 4.0
                                  for cx, cz in corners]) * 2.0 / grid.dz
            x_qp = (ex + (1.0 + xi) / 2.0) * grid.dx
            bound = material.at(np.array([x_qp]))
            soil = bound.at_heads(np.array([float(shape @ psi_new[nodes])]))
            soil_old = bound.at_heads(
                np.array([float(shape @ psi_old[nodes])]))
            theta_change = soil.theta[0] - soil_old.theta[0]
            cond = soil.hydraulic_conductivity[0]
            grad_x = float(dshape_dx @ psi_new[nodes])
            grad_z = float(dshape_dz @ psi_new[nodes])
            for local, node in enumerate(nodes):
                out[node] += weight * (
                    theta_change * shape[local]
                    + dt * cond * (grad_x * dshape_dx[local]
                                   + (grad_z + 1.0) * dshape_dz[local]))
    return out


def cancelling_grid() -> Grid2D:
    """Elements with dz^2 = 2 dx^2: on a saturated field the stiffness
    entries of vertical neighbours cancel to exact zeros."""
    return Grid2D(length_x=3 * 0.375 / np.sqrt(2.0), length_z=0.75,
                  num_x=3, num_z=2)


def wall_nodes(grid: Grid2D) -> np.ndarray:
    """Both vertical walls below the top row."""
    iz = np.arange(grid.num_z)
    return np.concatenate([grid.node_index(0, iz),
                           grid.node_index(grid.num_x, iz)])


def coo_assembly(work: RichardsWorkspace, psi: np.ndarray,
                 dt: float) -> sparse.csc_matrix:
    """The scipy.sparse chain the fixed CSC pattern replaced: COO -> CSR,
    the rows of the workspace's Dirichlet nodes zeroed, + diags, -> CSC."""
    n = work.grid.num_nodes
    conn = work.conn
    rows = np.broadcast_to(conn[:, :, None], (len(conn), 4, 4)).ravel()
    cols = np.broadcast_to(conn[:, None, :], (len(conn), 4, 4)).ravel()
    matrix = sparse.coo_matrix(
        (work._element_jacobians(work.at_qp(psi), dt).ravel(), (rows, cols)),
        shape=(n, n)).tocsr()
    if work.nodes.size:
        constrained = np.zeros(n, dtype=bool)
        constrained[work.nodes] = True
        row_of_entry = np.repeat(np.arange(n), np.diff(matrix.indptr))
        matrix.data[constrained[row_of_entry]] = 0.0
        matrix = (matrix + sparse.diags(constrained.astype(float))).tocsr()
    return matrix.tocsc()


def top_workspace(grid: Grid2D, material) -> RichardsWorkspace:
    return RichardsWorkspace(grid, material, grid.top_node_indices())


def constrained_workspace(soil: str, constraints: str) -> RichardsWorkspace:
    """A workspace on the cancelling grid in silt ("silt") or on the
    trench-mixed preset's grid and soil, for no Dirichlet nodes ("none"),
    the top row ("top") or the top row and both walls ("top+walls")."""
    if soil == "silt":
        grid, material = cancelling_grid(), SILT
    else:
        problem = scenarios.build_all(scenarios.preset("trench-mixed"))[0]
        grid, material = problem.grid, problem.material
    nodes = {"none": None, "top": grid.top_node_indices(),
             "top+walls": np.concatenate([grid.top_node_indices(),
                                          wall_nodes(grid)])}[constraints]
    return RichardsWorkspace(grid, material, nodes)


def assert_bitwise_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def natural_csc(jacobian) -> sparse.csc_matrix:
    """The matrix A of a Jacobian P^T A P in node order: each column moved
    back to its node and its rows relabelled, in their stored order."""
    data, indices, indptr, perm_c = jacobian
    n = len(perm_c)
    starts, ends = indptr[perm_c], indptr[perm_c + 1]
    gather = np.concatenate([np.arange(a, b) for a, b in zip(starts, ends)])
    natural_indptr = np.zeros(n + 1, dtype=np.intc)
    np.cumsum(ends - starts, out=natural_indptr[1:])
    rows = np.argsort(perm_c)[indices[gather]].astype(np.intc)
    return sparse.csc_matrix((data[gather], rows, natural_indptr),
                             shape=(n, n))


def assert_kept_zeros_match(got, want: sparse.csc_matrix,
                            rhs: np.ndarray) -> None:
    """got, which stores zeros the chain's want drops, is want densely, bit
    for bit, and solves as scipy's spsolve on got's node-order matrix."""
    stored = natural_csc(got)
    assert_bitwise_equal(stored.toarray(order="C"), want.toarray(order="C"))
    assert_bitwise_equal(richards2d.spsolve(got, rhs), spsolve(stored, rhs))


class TestGrid:
    def test_indices_and_coords(self):
        grid = small_grid()
        assert grid.num_nodes == 12
        assert grid.node_index(2, 1) == 6
        x, z = grid.node_coords()
        assert_allclose(x[grid.node_index(2, 1)], 1.0, rtol=1e-15)
        assert_allclose(z[grid.node_index(2, 1)], 0.5, rtol=1e-15)
        assert list(grid.top_node_indices()) == [8, 9, 10, 11]

    def test_connectivity_counterclockwise(self):
        grid = Grid2D(length_x=1.0, length_z=1.0, num_x=2, num_z=2)
        # element 3 is the top right cell: BL, BR, TR, TL
        assert list(grid.connectivity()[3]) == [4, 5, 8, 7]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(length_x=0.0, length_z=1.0, num_x=2, num_z=2)
        for counts in ((0, 2), (2.5, 2), (2, 1.5)):
            with pytest.raises(ValueError, match="whole number"):
                Grid2D(1.0, 1.0, *counts)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                Grid2D(bad, 1.0, 2, 2)
            with pytest.raises(ValueError, match="positive and finite"):
                Grid2D(1.0, bad, 2, 2)

    def test_whole_float_counts_are_stored_as_ints(self):
        # node indices are built from the counts, so they must be ints
        grid = Grid2D(1.0, 1.0, 2.0, 2)
        assert type(grid.num_x) is int and grid.num_nodes == 9
        assert RichardsWorkspace(grid, SILT).conn.dtype.kind == "i"


class TestDirichlet:
    def test_workspace_rejects_nodes_outside_the_grid(self):
        # -1 would alias the last node in every psi[nodes]; 0.7 and 3.9
        # were truncated to nodes 0 and 3
        grid = Grid2D(length_x=1.0, length_z=1.0, num_x=2, num_z=2)
        assert grid.num_nodes == 9
        for nodes in ([-1, 8], [0, 9], [0.7, 3.9], [1, 1], [[0, 8]], [[1]]):
            with pytest.raises(ValueError, match=r"1d array of distinct "
                               r"integer node indices in \[0, 9\)"):
                RichardsWorkspace(grid, SILT, np.array(nodes))
        assert list(RichardsWorkspace(grid, SILT, [0, 8]).nodes) == [0, 8]
        assert RichardsWorkspace(grid, SILT).nodes.size == 0


class TestResidual:
    def test_matches_scalar_oracle(self):
        grid = small_grid()
        rng = np.random.default_rng(17)
        psi_new = rng.uniform(-2.0, 0.5, grid.num_nodes)
        psi_old = rng.uniform(-2.0, 0.5, grid.num_nodes)
        work = RichardsWorkspace(grid, SILT)
        dt = 1.0e5
        theta_old = work.at_qp(psi_old).soil.theta
        got = work.residual(work.at_qp(psi_new), theta_old, dt)
        want = residual_oracle(grid, SILT, psi_new, psi_old, dt)
        assert_allclose(got, want, rtol=1e-11,
                        atol=1e-14 * np.max(np.abs(want)))

    def test_oracle_with_blended_material(self):
        grid = small_grid()
        material = MaterialField(
            SOIL_PRESETS["silt-loam"], SOIL_PRESETS["beit-netofa-clay"],
            center_x=0.75, steepness=4.0)
        rng = np.random.default_rng(18)
        psi_new = rng.uniform(-2.0, 0.2, grid.num_nodes)
        psi_old = rng.uniform(-2.0, 0.2, grid.num_nodes)
        work = RichardsWorkspace(grid, material)
        theta_old = work.at_qp(psi_old).soil.theta
        got = work.residual(work.at_qp(psi_new), theta_old, 3.0e4)
        want = residual_oracle(grid, material, psi_new, psi_old, 3.0e4)
        assert_allclose(got, want, rtol=1e-11,
                        atol=1e-14 * np.max(np.abs(want)))

    def test_hydrostatic_field_is_stationary(self):
        """psi = C - z zeroes both the storage and the Darcy terms."""
        grid = Grid2D(length_x=2.0, length_z=2.0, num_x=4, num_z=5)
        _, z = grid.node_coords()
        psi = 0.5 - z
        work = RichardsWorkspace(grid, SILT)
        fields = work.at_qp(psi)
        residual = work.residual(fields, fields.soil.theta, dt=1.0e6)
        assert np.max(np.abs(residual)) <= 1e-14

    def test_dirichlet_rows_replace_equations(self, monkeypatch):
        # newton_step's residual is the free one with the rows of the
        # workspace's nodes replaced by psi_node - prescribed
        grid = small_grid()
        psi = np.full(grid.num_nodes, -1.0)
        work = top_workspace(grid, SILT)
        residuals = []
        damped_newton = richards2d.damped_newton

        def recording(residual, *args):
            residuals.append(residual)
            return damped_newton(residual, *args)

        monkeypatch.setattr(richards2d, "damped_newton", recording)
        fields = work.at_qp(psi)
        work.newton_step(fields, fields.soil.theta, 10.0,
                         np.full(grid.num_x + 1, -0.25))
        residual = residuals[0](psi.copy())
        free = work.residual(fields, fields.soil.theta, 10.0)
        top = grid.top_node_indices()
        assert_allclose(residual[top], -0.75, rtol=1e-15)
        rest = np.setdiff1d(np.arange(grid.num_nodes), top)
        assert np.array_equal(residual[rest], free[rest])

    def test_mass_identity_without_constraints(self):
        """Sum of the unconstrained residual equals the storage change.

        Shape functions partition unity and their gradients sum to zero,
        so the Darcy part telescopes away for any field whatsoever.
        """
        grid = small_grid()
        rng = np.random.default_rng(19)
        work = RichardsWorkspace(grid, SILT)
        for _ in range(5):
            psi_new = rng.uniform(-3.0, 1.0, grid.num_nodes)
            psi_old = rng.uniform(-3.0, 1.0, grid.num_nodes)
            dt = 10.0 ** rng.uniform(0, 6)
            residual = work.residual(work.at_qp(psi_new),
                                     work.at_qp(psi_old).soil.theta, dt)
            change = (work.weight * np.sum(work.at_qp(psi_new).soil.theta)
                      - work.weight * np.sum(work.at_qp(psi_old).soil.theta))
            scale = np.sum(np.abs(residual)) + abs(change)
            assert abs(np.sum(residual) - change) <= 1e-13 * scale

    def test_rejects_nonfinite_state(self):
        grid = small_grid()
        work = RichardsWorkspace(grid, SILT)
        psi = np.full(grid.num_nodes, -1.0)
        bad = psi.copy()
        bad[4] = np.nan
        with pytest.raises(FloatingPointError, match="water content"):
            work.at_qp(bad)


    def test_bincount_scatter_matches_add_at_bitwise(self):
        grid = small_grid()
        rng = np.random.default_rng(20)
        work = RichardsWorkspace(grid, SILT)
        psi_new = rng.uniform(-3.0, 1.0, grid.num_nodes)
        psi_old = rng.uniform(-3.0, 1.0, grid.num_nodes)
        theta_old = work.at_qp(psi_old).soil.theta
        dt = 1.0e4
        soil = work.bound.at_heads(psi_new[work.conn] @ work.shape.T)
        cond_qp = soil.hydraulic_conductivity
        element_res = work.weight * (
            (soil.theta - theta_old) @ work.shape
            + dt * ((cond_qp * (psi_new[work.conn] @ work.grad_x.T))
                    @ work.grad_x
                    + (cond_qp * (psi_new[work.conn] @ work.grad_z.T + 1.0))
                    @ work.grad_z))
        want = np.zeros(grid.num_nodes)
        np.add.at(want, work.conn, element_res)
        assert_bitwise_equal(
            work.residual(work.at_qp(psi_new), theta_old, dt), want)


class TestJacobian:
    @pytest.mark.parametrize("field", ["unsaturated", "saturated"])
    @pytest.mark.parametrize("constraints", ["none", "top", "top+walls"])
    @pytest.mark.parametrize("soil", ["silt", "trench-mixed"])
    def test_matches_coo_assembly_bitwise(self, soil, constraints, field):
        work = constrained_workspace(soil, constraints)
        grid = work.grid
        rng = np.random.default_rng(29)
        low, high = (-3.0, -0.05) if field == "unsaturated" else (0.1, 2.0)
        psi = rng.uniform(low, high, grid.num_nodes)
        got = work.jacobian(work.at_qp(psi), 36.0)
        want = coo_assembly(work, psi, 36.0)
        rhs = rng.normal(size=grid.num_nodes)
        if soil == "silt" and constraints != "none" and field == "saturated":
            # the chain drops the cancelled entries the fixed pattern keeps
            assert np.count_nonzero(got.data == 0.0) > 0
            assert_kept_zeros_match(got, want, rhs)
            return
        natural = natural_csc(got)
        for name in ("data", "indices", "indptr"):
            assert_bitwise_equal(getattr(natural, name), getattr(want, name))
        # the direct gssv call solves as scipy's spsolve on the chain
        assert_bitwise_equal(richards2d.spsolve(got, rhs), spsolve(want, rhs))

    def test_singular_solve_warns_and_gives_nan_as_scipy(self):
        """At saturation the capacity vanishes, so with dt = 0 every entry
        of the unconstrained CLAY Jacobian is an exact zero.  (With dt > 0
        its rows sum to zero only up to rounding, and SuperLU finds no zero
        pivot.)"""
        work = RichardsWorkspace(small_grid(), CLAY)
        n = work.grid.num_nodes
        arrays = work.jacobian(work.at_qp(np.full(n, 2.0)), 0.0)
        rhs = np.random.default_rng(31).normal(size=n)
        with pytest.warns(MatrixRankWarning, match="singular"):
            got = richards2d.spsolve(arrays, rhs)
        with pytest.warns(MatrixRankWarning, match="singular"):
            want = spsolve(natural_csc(arrays), rhs)
        assert np.all(np.isnan(got)) and np.all(np.isnan(want))
        assert got.shape == want.shape == (n,)

    def test_solve_hands_gssv_the_jacobians_own_arrays(self, monkeypatch):
        """A solve passes gssv the Jacobian's data, indices and indptr
        themselves, with no gather or copy, and equals scipy's spsolve on
        the node-order matrix, bit for bit."""
        work = constrained_workspace("trench-mixed", "top+walls")
        rng = np.random.default_rng(47)
        psi = rng.uniform(-3.0, -0.05, work.grid.num_nodes)
        got = work.jacobian(work.at_qp(psi), 36.0)
        rhs = rng.normal(size=psi.size)
        want = spsolve(natural_csc(got), rhs)
        calls = []
        gssv = _superlu.gssv

        def recording_gssv(*args, options):
            calls.append(args)
            return gssv(*args, options=options)

        monkeypatch.setattr(_superlu, "gssv", recording_gssv)
        solution = richards2d.spsolve(got, rhs)
        [(_, _, data, indices, indptr, *_)] = calls
        assert data is got.data
        assert indices is got.indices and indptr is got.indptr
        assert_bitwise_equal(solution, want)

    def test_saturated_cancellations_stay_in_the_pattern(self):
        """Exact zeros stay in the node set's fixed pattern, with or without
        constraints: each Jacobian points at its workspace's column order,
        and the constrained one equals the chain densely and solves as
        scipy's spsolve on its node-order matrix."""
        psi = np.full(cancelling_grid().num_nodes, 0.5)
        for constraints in ("none", "top"):
            work = constrained_workspace("silt", constraints)
            got = work.jacobian(work.at_qp(psi), 36.0)
            assert np.count_nonzero(got.data == 0.0) > 0
            assert got.perm_c is work._perm_c
            assert len(got.data) == len(got.indices)
        rhs = np.random.default_rng(41).normal(size=psi.size)
        assert_kept_zeros_match(got, coo_assembly(work, psi, 36.0), rhs)

    @pytest.mark.parametrize("name", ["trench-mixed", "hillslope-silt"])
    def test_problem_workspace_holds_its_node_set(self, name):
        """CoupledProblem builds its workspace for its sweeps' node set,
        the top row and then the static nodes; its Jacobians and solves are
        the COO chain's for that node set, bit for bit."""
        problem = scenarios.build_all(scenarios.preset(name))[0]
        work = problem.workspace
        static = problem.static_dirichlet
        assert np.array_equal(work.nodes, np.concatenate(
            [problem.grid.top_node_indices(),
             [] if static is None else static[0]]))
        assert work.nodes.size > problem.grid.num_x + 1 or (
            name == "hillslope-silt")
        rng = np.random.default_rng(37)
        for _ in range(3):
            psi = rng.uniform(-3.0, -0.05, problem.grid.num_nodes)
            got = work.jacobian(work.at_qp(psi), problem.dt)
            want = coo_assembly(work, psi, problem.dt)
            natural = natural_csc(got)
            for field in ("data", "indices", "indptr"):
                assert_bitwise_equal(getattr(natural, field),
                                     getattr(want, field))
            rhs = rng.normal(size=problem.grid.num_nodes)
            assert_bitwise_equal(richards2d.spsolve(got, rhs),
                                 spsolve(want, rhs))

    def test_run_orders_its_pattern_once(self, monkeypatch):
        """20 coupled steps factor the stand-in values once and never ask
        gssv for a column ordering; nor do 5 saturated steps on the
        cancelling grid, whose Jacobians store exact zeros."""
        calls = {"gstrf": 0, "gssv": 0, "ordering": 0}
        gstrf, gssv = _superlu.gstrf, _superlu.gssv

        def counting_gstrf(*args, **kwargs):
            calls["gstrf"] += 1
            return gstrf(*args, **kwargs)

        def counting_gssv(*args, options):
            calls["gssv"] += 1
            calls["ordering"] += options.get("ColPerm", "COLAMD") != "NATURAL"
            return gssv(*args, options=options)

        monkeypatch.setattr(_superlu, "gstrf", counting_gstrf)
        monkeypatch.setattr(_superlu, "gssv", counting_gssv)
        config = replace(scenarios.preset("trench-mixed"), num_steps=20)
        result = run_simulation(*scenarios.build_all(config))
        assert all(record.converged for record in result.records)
        assert calls["gstrf"] == 1 and calls["ordering"] == 0
        assert calls["gssv"] >= 40
        calls.update(gstrf=0, gssv=0)
        grid = cancelling_grid()
        problem = CoupledProblem(grid, SILT, SurfaceModel("swe"),
                                 rain_rate=1e-5, tol=1e-10, dt=36.0,
                                 num_steps=5)
        state = CoupledState(psi=np.full(grid.num_nodes, 0.5),
                             q=np.array([[0.01] * 3, [0.0] * 3]), time=0.0)
        result = run_simulation(problem, state)
        assert all(record.converged for record in result.records)
        assert calls["gstrf"] == 1 and calls["ordering"] == 0

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="glibc's dynamic mmap threshold")
    def test_solves_keep_superlu_workspace_on_the_heap(self):
        """In a fresh interpreter, twenty solves of the 1,365-node
        trench-loam Jacobian fault in under five pages each on average:
        building the workspace keeps SuperLU's LU workspace on the heap;
        without its 16 MiB block every solve maps the workspace afresh and
        faults in about 220 pages."""
        code = """
import resource
import numpy as np
from coupledflow import richards2d, scenarios
problem, state = scenarios.build_all(scenarios.load_config(
    base="trench-loam", overrides=["grid.num_x=20", "grid.num_z=64"]))
work = problem.workspace
assert work.grid.num_nodes == 1365
matrix = work.jacobian(work.at_qp(state.psi), problem.dt)
rhs = np.random.default_rng(43).normal(size=1365)
richards2d.spsolve(matrix, rhs)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    richards2d.spsolve(matrix, rhs)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""
        src = os.path.dirname(os.path.dirname(richards2d.__file__))
        run = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert float(run.stdout) < 5.0

    def test_directional_finite_difference(self):
        grid = small_grid()
        rng = np.random.default_rng(23)
        # stay strictly unsaturated: the closures have a kink at psi = 0
        psi = rng.uniform(-3.0, -0.5, grid.num_nodes)
        psi_old = rng.uniform(-3.0, -0.5, grid.num_nodes)
        work = RichardsWorkspace(grid, SILT)
        dt = 1.0e5
        matrix = natural_csc(work.jacobian(work.at_qp(psi), dt))
        theta_old = work.at_qp(psi_old).soil.theta
        for trial in range(3):
            direction = rng.normal(size=grid.num_nodes)
            direction /= np.max(np.abs(direction))
            h = 1e-6
            plus = work.residual(work.at_qp(psi + h * direction),
                                 theta_old, dt)
            minus = work.residual(work.at_qp(psi - h * direction),
                                  theta_old, dt)
            diff = (plus - minus) / (2.0 * h)
            applied = matrix @ direction
            denom = np.max(np.abs(applied))
            assert np.max(np.abs(applied - diff)) <= 1e-5 * denom

    def test_saturated_jacobian_is_symmetric_stiffness(self):
        grid = small_grid()
        psi = np.full(grid.num_nodes, 2.0)
        work = RichardsWorkspace(grid, CLAY)
        dt = 50.0
        matrix = natural_csc(work.jacobian(work.at_qp(psi), dt)).toarray()
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-12 * np.max(
            np.abs(matrix))
        # saturated capacity vanishes, so rows sum to zero as well
        assert np.max(np.abs(matrix.sum(axis=1))) <= 1e-12 * np.max(
            np.abs(matrix))

    def test_dirichlet_rows_become_identity(self):
        grid = small_grid()
        psi = np.full(grid.num_nodes, -0.5)
        work = top_workspace(grid, SILT)
        matrix = natural_csc(work.jacobian(work.at_qp(psi), 1.0)).toarray()
        for node in grid.top_node_indices():
            row = np.zeros(grid.num_nodes)
            row[node] = 1.0
            assert_allclose(matrix[node], row, atol=1e-15)


class TestNewtonStep:
    def test_saturated_linear_problem_needs_one_iteration(self):
        grid = small_grid()
        work = top_workspace(grid, CLAY)
        psi_old = np.full(grid.num_nodes, 2.0)
        values = 2.0 + 0.1 * np.linspace(-1.0, 1.0, grid.num_x + 1)
        old = work.at_qp(psi_old)
        fields, _, report = work.newton_step(old, old.soil.theta, 36.0,
                                             values)
        assert report.iterations == 1
        assert report.residual_norm <= 1e-12
        assert np.all(fields.psi > 0.0)

    def test_rejects_nan_dt(self):
        grid = small_grid()
        work = top_workspace(grid, CLAY)
        old = work.at_qp(np.full(grid.num_nodes, 2.0))
        with pytest.raises(ValueError, match="dt must be positive"):
            work.newton_step(old, old.soil.theta, np.nan,
                             np.full(grid.num_x + 1, 2.0))

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_line_search_failures_are_counted(self, monkeypatch,
                                              reverse_first):
        # on the linear saturated problem an uphill first direction raises
        # the residual for every damping trial; the next Newton step solves
        solves = []
        spsolve = richards2d.spsolve

        def flipping_spsolve(matrix, rhs):
            solves.append(1)
            delta = spsolve(matrix, rhs)
            return -delta if reverse_first and len(solves) == 1 else delta

        monkeypatch.setattr(richards2d, "spsolve", flipping_spsolve)
        grid = small_grid()
        work = top_workspace(grid, CLAY)
        psi_old = np.full(grid.num_nodes, 2.0)
        values = 2.0 + 0.1 * np.linspace(-1.0, 1.0, grid.num_x + 1)
        old = work.at_qp(psi_old)
        _, _, report = work.newton_step(old, old.soil.theta, 36.0,
                                        values)
        assert report.line_search_failures == int(reverse_first)
        assert report.iterations == 1 + int(reverse_first)

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_jacobian_takes_latest_residual_fields(self, monkeypatch,
                                                   reverse_first):
        """Each Jacobian is assembled from the QuadratureFields of the
        latest residual call: the accepted trial, or after a failed line
        search the last one."""
        calls = []
        residual = RichardsWorkspace.residual
        jacobian = RichardsWorkspace.jacobian
        spsolve = richards2d.spsolve

        def recording_residual(work, fields, *args):
            calls.append(("residual", fields))
            return residual(work, fields, *args)

        def recording_jacobian(work, fields, *args):
            calls.append(("jacobian", fields))
            return jacobian(work, fields, *args)

        def flipping_spsolve(matrix, rhs):
            delta = spsolve(matrix, rhs)
            first = sum(call[0] == "jacobian" for call in calls) == 1
            return -delta if reverse_first and first else delta

        monkeypatch.setattr(RichardsWorkspace, "residual", recording_residual)
        monkeypatch.setattr(RichardsWorkspace, "jacobian", recording_jacobian)
        monkeypatch.setattr(richards2d, "spsolve", flipping_spsolve)
        grid = small_grid()
        work = top_workspace(grid, SILT)
        psi_old = np.full(grid.num_nodes, -1.0)
        old = work.at_qp(psi_old)
        _, _, report = work.newton_step(old, old.soil.theta, 100.0,
                                        np.full(grid.num_x + 1, -0.2))
        assert report.line_search_failures == int(reverse_first)
        assembled = [i for i, call in enumerate(calls)
                     if call[0] == "jacobian"]
        assert len(assembled) == report.iterations >= 2
        for i in assembled:
            latest = [call for call in calls[:i] if call[0] == "residual"][-1]
            assert calls[i][1] is latest[1]

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_returns_the_fields_of_its_result(self, monkeypatch,
                                              reverse_first):
        # the fields handed to the next sweep are at_qp of the new heads,
        # also when the last line search failed and took its last trial
        solves = []
        spsolve = richards2d.spsolve

        def flipping_spsolve(matrix, rhs):
            solves.append(1)
            delta = spsolve(matrix, rhs)
            return -delta if reverse_first and len(solves) == 1 else delta

        monkeypatch.setattr(richards2d, "spsolve", flipping_spsolve)
        grid = small_grid()
        work = top_workspace(grid, SILT)
        old = work.at_qp(np.full(grid.num_nodes, -1.0))
        fields, _, report = work.newton_step(old, old.soil.theta, 100.0,
                                             np.full(grid.num_x + 1, -0.2))
        assert report.iterations >= 2
        assert report.line_search_failures == int(reverse_first)
        want = work.at_qp(fields.psi.copy())
        for got, expected in zip(fields[:3], want[:3]):
            assert np.array_equal(got, expected)
        for name in ("theta", "capacity", "hydraulic_conductivity",
                     "conductivity_derivative"):
            assert np.array_equal(getattr(fields.soil, name),
                                  getattr(want.soil, name))

    def test_hydrostatic_rest_is_converged_immediately(self):
        grid = Grid2D(length_x=1.0, length_z=2.0, num_x=2, num_z=4)
        _, z = grid.node_coords()
        psi_old = 0.5 - z
        work = top_workspace(grid, SILT)
        old = work.at_qp(psi_old)
        fields, _, report = work.newton_step(
            old, old.soil.theta, 1.0e4, psi_old[grid.top_node_indices()])
        assert report.iterations == 0 and fields is old
        assert_allclose(fields.psi, psi_old, rtol=1e-15)

    def test_reports_failure_with_residual(self, monkeypatch):
        monkeypatch.setattr(richards2d, "NEWTON_MAX_ITERS", 1)
        monkeypatch.setattr(richards2d, "NEWTON_TRIALS", 1)
        grid = small_grid()
        work = top_workspace(grid, SILT)
        psi_old = np.full(grid.num_nodes, -10.0)
        with pytest.raises(NewtonError) as info:
            old = work.at_qp(psi_old)
            work.newton_step(old, old.soil.theta, 1000.0,
                             np.full(grid.num_x + 1, 0.5))
        assert info.value.iterations == 1
        assert info.value.residual_norm > 0.0

    def test_input_validation(self):
        grid = small_grid()
        work = top_workspace(grid, SILT)
        good = np.full(grid.num_nodes, -1.0)
        bad = good.copy()
        bad[0] = np.inf
        # a +inf head passes at_qp's checks, so newton_step checks its start
        start, old = work.at_qp(bad), work.at_qp(good)
        with pytest.raises(ValueError, match="non-finite"):
            work.newton_step(start, old.soil.theta, 1.0,
                             np.full(grid.num_x + 1, 0.0))
        with pytest.raises(ValueError, match="dt"):
            work.newton_step(old, old.soil.theta, 0.0,
                             np.full(grid.num_x + 1, 0.0))
        # the prescribed heads are checked once per sweep, one per node
        for values in ([0.0, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="Dirichlet values must be "
                               "finite, one per node"):
                work.newton_step(old, old.soil.theta, 1.0, np.array(values))


class TestDiagnostics:
    def test_interface_flux_single_element(self):
        grid = Grid2D(length_x=0.4, length_z=0.3, num_x=1, num_z=1)
        psi = np.array([0.0, 0.2, -0.3, -0.1])
        work = RichardsWorkspace(grid, SILT)
        psi_mid = 0.5 * (-0.1 + -0.3)
        psi_below = 0.5 * (0.0 + 0.2)
        cond = SILT.at(np.array([0.2])).at_heads(
            np.array([psi_mid])).hydraulic_conductivity[0]
        expected = -cond * ((psi_mid - psi_below) / 0.3 + 1.0) * 0.4
        assert_allclose(work.interface_flux(psi), [expected], rtol=1e-13)

    def test_saturated_hydrostatic_column_drains_at_ks(self):
        # psi = -z + top value > 0 gives unit head gradient... while
        # psi = const gives pure gravity drainage at K(psi_top)
        grid = Grid2D(length_x=1.0, length_z=1.0, num_x=2, num_z=2)
        psi = np.full(grid.num_nodes, 0.5)
        work = RichardsWorkspace(grid, CLAY)
        k_s = SOIL_PRESETS["beit-netofa-clay"].k_s
        assert_allclose(work.interface_flux(psi), -k_s * grid.dx, rtol=1e-13)

    def test_water_volume_saturated(self):
        grid = small_grid()
        work = RichardsWorkspace(grid, SILT)
        theta_s = SOIL_PRESETS["silt-loam"].theta_s
        volume = work.weight * np.sum(
            work.at_qp(np.full(grid.num_nodes, 1.0)).soil.theta)
        assert_allclose(volume, theta_s * 1.5 * 1.0, rtol=1e-13)


class TestModuleWrappers:
    def test_field_rows(self):
        grid = Grid2D(length_x=1.0, length_z=1.0, num_x=1, num_z=1)
        psi = np.array([-1.0, -1.0, -0.5, -0.5])
        rows = field_rows(psi, grid, SILT.at(grid.node_coords()[0]))
        assert len(rows) == 4
        assert tuple(rows[0]) == FIELD_COLUMNS
        top = rows[3]
        soil = SILT.at(np.array([top["x"]])).at_heads(np.array([top["psi"]]))
        assert_allclose(top["theta"], soil.theta[0], rtol=1e-14)
        assert_allclose(top["K"], soil.hydraulic_conductivity[0], rtol=1e-14)
