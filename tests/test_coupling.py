"""Tests for the partitioned coupling loop.

The centerpiece is a cross-solver oracle: on a single column with constant
linear coefficients the coupled 2d-1d loop must reproduce the residual
sequences of the dedicated linearized column model, and its contraction
rate must follow the closed-form slope of the interface update.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow import coupling, linear1d, richards2d, scenarios
from coupledflow.analysis import LinearModelParams, alpha_sum, toeplitz_coeffs
from coupledflow.coupling import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    CoupledProblem,
    CoupledState,
    CouplingDivergedError,
    PredictedFactors,
    StepRecord,
    map_height_to_head,
    predict_S,
    run_coupled_step,
    run_simulation,
    summary_row,
    time_averaged_cr,
    trace_rows,
)
from coupledflow.material import SOIL_PRESETS, MaterialField
from coupledflow.richards2d import DirichletData, Grid2D, top_dirichlet
from coupledflow.surface1d import SurfaceModel


@dataclass(frozen=True)
class LinBound:
    cap: float
    cond: float

    def at_heads(self, psi):
        psi = np.asarray(psi, dtype=float)
        return SimpleNamespace(
            theta=0.3 + self.cap * psi,
            capacity=np.full_like(psi, self.cap),
            hydraulic_conductivity=np.full_like(psi, self.cond),
            conductivity_derivative=np.zeros_like(psi))


@dataclass(frozen=True)
class LinMaterial:
    """Constant coefficient closures, for linear regime cross checks."""

    cap: float
    cond: float

    def at(self, x):
        return LinBound(self.cap, self.cond)


def column_problem(cap: float, cond: float, num_z: int = 10, **settings,
                   ) -> tuple[CoupledProblem, CoupledState]:
    grid = Grid2D(length_x=0.5, length_z=1.0, num_x=1, num_z=num_z)
    bottom = DirichletData(np.array([0, 1]), np.array([0.0, 0.0]))
    model = SurfaceModel(flavor="kinematic", manning_n=0.1,
                         friction_slope=1e-3, boundary_left="reflect",
                         boundary_right="reflect")
    problem = CoupledProblem(grid=grid, material=LinMaterial(cap, cond),
                             surface_model=model, static_dirichlet=bottom,
                             **settings)
    _, node_z = grid.node_coords()
    psi0 = 1.0 - node_z
    psi0[node_z >= grid.length_z - 1e-12] = 1.0
    psi0[node_z <= 1e-12] = 0.0
    initial = CoupledState(psi=psi0, q=np.array([[1.0]]), time=0.0)
    return problem, initial


class TestMaps:
    def test_height_to_head(self):
        assert_allclose(map_height_to_head(np.array([0.1, 0.3])),
                        [0.1, 0.2, 0.3], rtol=1e-15)
        assert_allclose(map_height_to_head(np.array([0.5])), [0.5, 0.5],
                        rtol=1e-15)
        with pytest.raises(ValueError):
            map_height_to_head(np.zeros((2, 2)))


class TestRainSchedule:
    def test_cutoff_is_inclusive(self):
        problem, _ = column_problem(0.1, 0.01, rain_rate=0.1,
                                    rain_cutoff=7200.0)
        assert problem.rain_at(0.0) == 0.1
        assert problem.rain_at(7200.0) == 0.1
        assert problem.rain_at(7200.0 * (1.0 + 1e-9)) == 0.0

    def test_default_never_stops(self):
        problem, _ = column_problem(0.1, 0.01, rain_rate=2e-5)
        assert problem.rain_at(1e12) == 2e-5

    def test_rejects_negative_rate_or_cutoff(self):
        with pytest.raises(ValueError, match="nonnegative"):
            column_problem(0.1, 0.01, rain_rate=-1e-6)
        with pytest.raises(ValueError, match="nonnegative"):
            column_problem(0.1, 0.01, rain_rate=1e-6, rain_cutoff=-1.0)


class TestPredictS:
    def test_uniform_unsaturated_field(self):
        grid = Grid2D(length_x=2.0, length_z=3.0, num_x=4, num_z=6)
        silt = MaterialField(SOIL_PRESETS["silt-loam"])
        psi = np.full(grid.num_nodes, -1.0)
        predicted = predict_S(psi, grid, silt.at(grid.node_coords()[0]),
                              dt=36.0)
        soil = silt.at(np.array([0.0])).at_heads(np.array([-1.0]))
        assert_allclose(predicted.c_bar, soil.capacity[0], rtol=1e-14)
        assert_allclose(predicted.k_bar, soil.hydraulic_conductivity[0],
                        rtol=1e-14)
        assert_allclose(predicted.omega_opt,
                        1.0 / (1.0 + predicted.abs_s), rtol=1e-12)

    def test_saturated_field_is_guarded(self):
        grid = Grid2D(length_x=1.0, length_z=1.0, num_x=2, num_z=4)
        clay = MaterialField(SOIL_PRESETS["beit-netofa-clay"])
        psi = np.full(grid.num_nodes, 0.5)
        predicted = predict_S(psi, grid, clay.at(grid.node_coords()[0]),
                              dt=36.0)
        assert predicted.c_bar == 0.0
        assert np.isfinite(predicted.abs_s)
        assert np.isfinite(predicted.omega_opt)


class TestLinearEquivalence:
    def test_reproduces_column_testbench(self):
        """Single column, tiny capacity: the coupled loop and the dedicated
        linearized model must produce the same residual sequences."""
        cap, cond, omega = 1e-9, 0.01, 0.6
        p = LinearModelParams(c=cap, k=cond, length=1.0, dt=0.1,
                              num_elements=10, omega=omega)
        psi_interior = 1.0 - np.arange(1, 10) * p.dz
        psi_gamma = 1.0
        reference = []
        for _ in range(3):
            sys = linear1d.build_system(p, psi_interior, psi_gamma)
            step = linear1d.run_time_step(sys, omega, tol=1e-10,
                                          max_iters=50)
            reference.append(np.asarray(step.residuals))
            psi_interior, psi_gamma = step.psi_interior, step.psi_gamma

        problem, state = column_problem(cap, cond,
                                        omega=omega, tol=1e-10, max_iters=50,
                                        dt=0.1, num_steps=3)
        for expected in reference:
            state, record = run_coupled_step(problem, state)
            got = np.asarray(record.residuals)
            assert got.size == expected.size
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_contraction_follows_interface_slope(self):
        """At O(1) capacity the observed rate equals |dt K / dz (1 + b a)|
        built from the interior solve, the midpoint flux being linear."""
        cap, cond = 0.5, 0.01
        problem, state = column_problem(cap, cond,
                                        omega=1.0, tol=1e-12, max_iters=60,
                                        dt=0.1, num_steps=1)
        _, record = run_coupled_step(problem, state)
        p = LinearModelParams(c=cap, k=cond, length=1.0, dt=0.1,
                              num_elements=10)
        a, b = toeplitz_coeffs(p)
        alpha = alpha_sum(a, b, 10, p.dz, 1.0)
        slope = -(0.1 * cond / p.dz) * (1.0 + b * alpha)
        assert record.cr is not None
        assert_allclose(record.cr, abs(slope), rtol=1e-6)


class TestCoupledStep:
    def test_divergence_reports_history(self):
        problem, state = column_problem(0.5, 0.01,
                                        omega=1.0, tol=1e-14, max_iters=2,
                                        dt=0.1, num_steps=1)
        with pytest.raises(CouplingDivergedError) as info:
            run_coupled_step(problem, state)
        assert info.value.step == 1
        assert len(info.value.residuals) == 2

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_line_search_failures_are_summed(self, monkeypatch,
                                             reverse_first):
        # flip the first Richards and the first surface Newton direction
        calls = {"richards": 0, "surface": 0}

        def flipping(solve, layer):
            def wrapped(matrix, rhs):
                calls[layer] += 1
                delta = solve(matrix, rhs)
                first = reverse_first and calls[layer] == 1
                return -delta if first else delta
            return wrapped

        monkeypatch.setattr(richards2d, "spsolve",
                            flipping(richards2d.spsolve, "richards"))
        monkeypatch.setattr(np.linalg, "solve",
                            flipping(np.linalg.solve, "surface"))
        problem, state = column_problem(0.5, 0.01,
                                        omega=1.0, tol=1e-10, max_iters=50,
                                        dt=0.1, num_steps=1)
        _, record = run_coupled_step(problem, state)
        assert calls["richards"] >= 2 and calls["surface"] >= 2
        assert record.line_search_failures == 2 * int(reverse_first)

    def test_old_water_content_is_evaluated_once_per_step(self, monkeypatch):
        # every sweep of a step starts from the same theta(psi_old)
        calls = []
        theta_at_qp = richards2d.RichardsWorkspace.theta_at_qp

        def counting(work, psi):
            calls.append(psi)
            return theta_at_qp(work, psi)

        monkeypatch.setattr(richards2d.RichardsWorkspace, "theta_at_qp",
                            counting)
        config = replace(scenarios.preset("trench-loam"), num_steps=3)
        result = run_simulation(*scenarios.build_all(config))
        assert len(calls) == 3
        assert sum(record.iterations for record in result.records) > 3

    def test_snapshot_cadence(self):
        problem, state = column_problem(1e-9, 0.01,
                                        omega=1.0, tol=1e-10, max_iters=50,
                                        dt=0.1, num_steps=4, output_every=2)
        result = run_simulation(problem, state)
        assert [step for step, _ in result.snapshots] == [0, 2, 4]
        assert result.snapshots[-1][1].time == pytest.approx(0.4)
        assert all(record.converged for record in result.records)

    def test_time_advances(self):
        # dt = 0.25 sums exactly, so snapshot n lands on n * dt bit for bit
        problem, state = column_problem(1e-9, 0.01,
                                        omega=1.0, tol=1e-10, max_iters=50,
                                        dt=0.25, num_steps=4, output_every=1)
        result = run_simulation(problem, state)
        assert [snapshot.time for _, snapshot in result.snapshots] \
            == [step * 0.25 for step, _ in result.snapshots]

    def test_step_leaves_its_input_alone(self):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-loam"))
        psi, q = state.psi.copy(), state.q.copy()
        new, _ = run_coupled_step(problem, state)
        assert np.array_equal(state.psi, psi) and np.array_equal(state.q, q)
        assert not np.array_equal(new.q, q)
        assert state.time == 0.0 and new.time == problem.dt

    def test_later_steps_leave_snapshots_alone(self):
        # copies taken as the steps are made equal the stored snapshots
        config = replace(scenarios.preset("trench-loam"), num_steps=3,
                         output_every=1)
        problem, state = scenarios.build_all(config)
        result = run_simulation(problem, state)
        copies = [(state.psi.copy(), state.q.copy())]
        for _ in range(3):
            state, _ = run_coupled_step(problem, state)
            copies.append((state.psi.copy(), state.q.copy()))
        assert len(result.snapshots) == len(copies)
        for (_, snapshot), (psi, q) in zip(result.snapshots, copies):
            assert np.array_equal(snapshot.psi, psi)
            assert np.array_equal(snapshot.q, q)

    def test_static_dirichlet_must_avoid_top(self):
        grid = Grid2D(length_x=0.5, length_z=1.0, num_x=1, num_z=4)
        top_node = grid.node_index(0, grid.num_z)
        with pytest.raises(ValueError, match="distinct"):
            CoupledProblem(
                grid=grid, material=LinMaterial(0.1, 0.01),
                surface_model=SurfaceModel(flavor="kinematic",
                                           manning_n=0.1,
                                           friction_slope=1e-3,
                                           boundary_left="reflect",
                                           boundary_right="reflect"),
                static_dirichlet=DirichletData(np.array([top_node]),
                                               np.array([0.0])))

    def test_config_validation(self):
        # num_z = 1: the predictor's linear column needs two elements
        for setting in ({"omega": 0.0}, {"omega": 1.2}, {"tol": 0.0},
                        {"dt": -1.0}, {"max_iters": 0}, {"num_steps": 0},
                        {"output_every": 0}, {"num_z": 1}):
            with pytest.raises(ValueError):
                column_problem(0.1, 0.01, **setting)


class TestSweepDirichlet:
    @pytest.mark.parametrize("name", ["trench-mixed", "hillslope-silt"])
    def test_equals_top_then_static(self, monkeypatch, name):
        # each sweep's data equals top_dirichlet(...).merged_with(static),
        # the per-sweep build it replaced, element for element
        problem, state = scenarios.build_all(scenarios.preset(name))
        assert (problem.static_dirichlet is None) == (name == "hillslope-silt")
        used, heights = [], []
        newton_step = problem.workspace.newton_step
        to_head = coupling.map_height_to_head

        def recording_newton(psi, theta_old_qp, dt, dirichlet):
            used.append(dirichlet)
            return newton_step(psi, theta_old_qp, dt, dirichlet)

        def recording_heights(h_cells):
            heights.append(h_cells.copy())
            return to_head(h_cells)

        monkeypatch.setattr(problem.workspace, "newton_step",
                            recording_newton)
        monkeypatch.setattr(coupling, "map_height_to_head", recording_heights)
        for _ in range(2):
            state, _ = run_coupled_step(problem, state)
        assert len(used) == len(heights) >= 4
        assert any(np.any(h != heights[0]) for h in heights)
        for dirichlet, h_cells in zip(used, heights):
            expected = top_dirichlet(problem.grid, to_head(h_cells))
            if problem.static_dirichlet is not None:
                expected = expected.merged_with(problem.static_dirichlet)
            assert np.array_equal(dirichlet.nodes, expected.nodes)
            assert np.array_equal(dirichlet.values, expected.values)

    def test_node_set_is_checked_once_per_problem(self, monkeypatch):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        calls = []
        post_init = DirichletData.__post_init__

        def counting(data):
            calls.append(data)
            post_init(data)

        monkeypatch.setattr(DirichletData, "__post_init__", counting)
        run_coupled_step(problem, state)
        assert calls == []

    def test_nan_height_rejected(self):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        q = state.q.copy()
        q[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run_coupled_step(problem, replace(state, q=q))


def fake_record(step: int, cr: float | None) -> StepRecord:
    predicted = PredictedFactors(c_bar=0.01, k_bar=1e-6, abs_s=1e-3,
                                 omega_opt=0.999)
    return StepRecord(step=step, time=step * 36.0, iterations=3,
                      converged=True, residuals=(1e-3, 1e-5, 1e-7),
                      cr=cr, predicted=predicted, newton_iterations=5,
                      clamped_volume=0.0, line_search_failures=0)


class TestAggregation:
    def test_time_averaged_cr(self):
        records = [fake_record(1, 0.1), fake_record(2, None),
                   fake_record(3, 0.3)]
        average, undefined = time_averaged_cr(records)
        assert_allclose(average, 0.2, rtol=1e-15)
        assert undefined == 1

    def test_exclusion_is_not_undefined(self):
        records = [fake_record(1, 0.1), fake_record(2, 5.0)]
        average, undefined = time_averaged_cr(records, exclude_above=1.0)
        assert_allclose(average, 0.1, rtol=1e-15)
        assert undefined == 0
        average, undefined = time_averaged_cr(records, exclude_above=0.01)
        assert average is None and undefined == 0

    def test_all_undefined(self):
        average, undefined = time_averaged_cr([fake_record(1, None)])
        assert average is None and undefined == 1

    def test_trace_rows(self):
        rows = trace_rows([fake_record(1, 0.5), fake_record(2, None)])
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert rows[0]["CR_n"] == 0.5
        assert rows[1]["CR_n"] == ""
        assert rows[0]["res_first"] == 1e-3
        assert rows[0]["res_last"] == 1e-7

    def test_summary_row(self):
        row = summary_row("trench-loam", [fake_record(1, 0.2)])
        assert tuple(row) == SUMMARY_COLUMNS
        assert row["scenario"] == "trench-loam"
        assert_allclose(row["CR"], 0.2, rtol=1e-15)
        empty = summary_row("x", [fake_record(1, None)])
        assert empty["CR"] == "" and empty["undefined_count"] == 1
