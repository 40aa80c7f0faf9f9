"""Tests for the partitioned coupling loop.

The centerpiece is a cross-solver oracle: on a single column with constant
linear coefficients the coupled 2d-1d loop must reproduce the residual
sequences of the dedicated linearized column model, and its contraction
rate must follow the closed-form slope of the interface update.
"""

import copy
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import spsolve
from test_richards2d import natural_csc
from test_surface1d import reference_fv_step

from coupledflow import coupling, linear1d, richards2d, scenarios
from coupledflow.analysis import LinearModelParams, alpha_sum, toeplitz_coeffs
from coupledflow.coupling import (
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    CoupledProblem,
    CoupledState,
    CouplingDivergedError,
    PredictedFactors,
    StepMap,
    StepRecord,
    map_height_to_head,
    predict_S,
    run_coupled_step,
    run_simulation,
    summary_row,
    time_averaged_cr,
    trace_rows,
)
from coupledflow.iteration import fixed_point, observed_cr
from coupledflow.material import SOIL_PRESETS, MaterialField
from coupledflow.richards2d import Grid2D, RichardsWorkspace
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
    bottom = (np.array([0, 1]), np.array([0.0, 0.0]))
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
        # unchecked, an infinite rate failed in the first surface solve
        with pytest.raises(ValueError, match="rate finite"):
            column_problem(0.1, 0.01, rain_rate=np.inf)
        problem, _ = column_problem(0.1, 0.01, rain_rate=1e-6,
                                    rain_cutoff=np.inf)
        assert problem.rain_at(1e30) == 1e-6


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

    def test_means_are_numpy_means_bitwise(self):
        grid = Grid2D(length_x=2.0, length_z=3.0, num_x=5, num_z=8)
        mixed = MaterialField(SOIL_PRESETS["silt-loam"],
                              SOIL_PRESETS["beit-netofa-clay"], 1.0, 4.0)
        node_material = mixed.at(grid.node_coords()[0])
        psi = np.linspace(-3.0, 0.4, grid.num_nodes)
        predicted = predict_S(psi, grid, node_material, dt=36.0)
        soil = node_material.at_heads(psi)
        assert predicted.c_bar == float(np.mean(soil.capacity))
        assert predicted.k_bar == float(np.mean(soil.hydraulic_conductivity))

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

    @pytest.mark.parametrize("name, settings", [
        ("trench-mixed", {"tol": 1e-10}), ("hillslope-silt", {}),
        ("trench-loam", {"tol": 1e-10}), ("trench-clay", {}),
        ("hillslope-sandy", {})])
    def test_direct_kernels_match_scipy_and_reference_bitwise(
            self, monkeypatch, name, settings):
        """The direct gssv call on the ordered CSC arrays and the scalar
        surface step give the run that scipy's spsolve on the node-order
        matrix and the numpy reference surface step (whole-state residuals,
        the column-loop Jacobian and np.linalg.solve) give, bit for bit."""
        config = replace(scenarios.preset(name), num_steps=20, **settings)

        def run():
            result = run_simulation(*scenarios.build_all(config))
            final = result.snapshots[-1][1]
            return repr(list(trace_rows(result.records))), final.psi, final.q

        direct = run()

        def scipy_spsolve(jacobian, rhs):
            return spsolve(natural_csc(jacobian), rhs)

        monkeypatch.setattr(richards2d, "spsolve", scipy_spsolve)
        monkeypatch.setattr(coupling, "implicit_fv_step", reference_fv_step)
        reference = run()
        assert direct[0] == reference[0]
        for got, want in zip(direct[1:], reference[1:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_closures_are_evaluated_once_per_iterate(self, monkeypatch):
        # at_qp(psi_old) once per step; every sweep's Newton starts from the
        # fields the previous one returned, so only its trials need at_qp,
        # and from their free residual, so only the first sweep's start and
        # the trials need a residual
        calls = []
        work = richards2d.RichardsWorkspace
        at_qp, residual = work.at_qp, work.residual

        def counting(name, method):
            def wrapped(self, *args):
                calls.append(name)
                return method(self, *args)
            return wrapped

        monkeypatch.setattr(work, "at_qp", counting("at_qp", at_qp))
        monkeypatch.setattr(work, "residual", counting("residual", residual))
        problem, state = scenarios.build_all(scenarios.preset("trench-loam"))
        for _ in range(3):
            calls.clear()
            state, record = run_coupled_step(problem, state)
            assert record.iterations >= 2
            assert calls.count("at_qp") == calls.count("residual")

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

    @staticmethod
    def static_problem(nodes, heads) -> CoupledProblem:
        return CoupledProblem(
            grid=Grid2D(length_x=0.5, length_z=1.0, num_x=1, num_z=4),
            material=LinMaterial(0.1, 0.01),
            surface_model=SurfaceModel(flavor="kinematic", manning_n=0.1,
                                       friction_slope=1e-3,
                                       boundary_left="reflect",
                                       boundary_right="reflect"),
            static_dirichlet=(np.array(nodes), np.array(heads)))

    def test_static_dirichlet_must_avoid_top(self):
        top_node = 8  # grid.node_index(0, num_z) on the 1 x 4 grid
        with pytest.raises(ValueError, match="distinct"):
            self.static_problem([top_node], [0.0])

    def test_static_heads_must_be_finite_one_per_node(self):
        for heads in ([0.0, np.nan], [0.0]):
            with pytest.raises(ValueError, match="Dirichlet heads must be "
                               "finite, one per node"):
                self.static_problem([0, 1], heads)
        assert np.array_equal(
            self.static_problem([0, 1], [0.5, -0.5]).dirichlet_values,
            [0.0, 0.0, 0.5, -0.5])

    def test_config_validation(self):
        # num_z = 1: the predictor's linear column needs two elements;
        # unchecked, dt = nan failed in the first step's number, dt = inf in
        # the soil Newton and tol = nan only in fixed_point; a count of 2.5
        # raised a TypeError mid-run, output_every = 1.5 snapshot every 3;
        # tol = inf ended every step after one sweep
        for setting in ({"omega": 0.0}, {"omega": 1.2}, {"tol": 0.0},
                        {"tol": np.nan}, {"dt": -1.0}, {"dt": np.nan},
                        {"dt": np.inf}, {"max_iters": 0}, {"num_steps": 0},
                        {"output_every": 0}, {"num_z": 1},
                        {"max_iters": 2.5}, {"num_steps": 2.5},
                        {"output_every": 1.5}, {"num_steps": np.inf},
                        {"max_iters": np.nan}, {"tol": np.inf}):
            with pytest.raises(ValueError):
                column_problem(0.1, 0.01, **setting)

    def test_whole_float_counts_are_stored_as_ints(self):
        problem, state = column_problem(0.1, 0.01, num_steps=3.0,
                                        max_iters=100.0, output_every=1.0)
        counts = (problem.num_steps, problem.max_iters, problem.output_every)
        assert counts == (3, 100, 1)
        assert all(type(count) is int for count in counts)
        result = run_simulation(problem, state)
        assert [record.step for record in result.records] == [1, 2, 3]

    def test_coupling_norm_is_numpy_norm_bitwise(self, monkeypatch):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        seen = []
        fixed = coupling.fixed_point

        def recording(sweep, x, omega, tol, max_iters, norm):
            def checked(r):
                seen.append((norm(r), np.linalg.norm(r)))
                return seen[-1][0]
            return fixed(sweep, x, omega, tol, max_iters, checked)

        monkeypatch.setattr(coupling, "fixed_point", recording)
        for _ in range(2):
            state, _ = run_coupled_step(problem, state)
        assert len(seen) >= 4
        assert all(got == want for got, want in seen)


class TestSweepDirichlet:
    @pytest.mark.parametrize("name", ["trench-mixed", "hillslope-silt"])
    def test_equals_top_then_static(self, monkeypatch, name):
        # the workspace's nodes and each sweep's values are the top row's,
        # then the static ones, element for element
        problem, state = scenarios.build_all(scenarios.preset(name))
        assert (problem.static_dirichlet is None) == (name == "hillslope-silt")
        used, heights = [], []
        newton_step = problem.workspace.newton_step
        to_head = coupling.map_height_to_head

        def recording_newton(start, theta_old_qp, dt, values, free):
            used.append(values)
            return newton_step(start, theta_old_qp, dt, values, free)

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
        for values, h_cells in zip(used, heights):
            nodes, heads = problem.grid.top_node_indices(), to_head(h_cells)
            if problem.static_dirichlet is not None:
                nodes = np.concatenate([nodes, problem.static_dirichlet[0]])
                heads = np.concatenate([heads, problem.static_dirichlet[1]])
            assert np.array_equal(problem.workspace.nodes, nodes)
            assert np.array_equal(values, heads)

    def test_workspace_is_built_once_per_problem(self, monkeypatch):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        calls = []
        init = RichardsWorkspace.__init__

        def counting(work, *args, **kwargs):
            calls.append(args)
            init(work, *args, **kwargs)

        monkeypatch.setattr(RichardsWorkspace, "__init__", counting)
        run_coupled_step(problem, state)
        assert calls == []

    def test_step_leaves_the_head_template_alone(self):
        # each sweep writes the top heads into a copy of the template
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        template = problem.dirichlet_values.copy()
        assert np.all(template[:problem.grid.num_x + 1] == 0.0)
        run_coupled_step(problem, state)
        assert np.array_equal(problem.dirichlet_values, template)

    def test_nan_height_rejected(self):
        problem, state = scenarios.build_all(
            scenarios.preset("trench-mixed"))
        q = state.q.copy()
        q[0, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            run_coupled_step(problem, replace(state, q=q))


class TestStepMap:
    """Central differences through the public map StepMap of one step."""

    @staticmethod
    def converged_map(name: str, step: int, **settings):
        config = replace(scenarios.preset(name), **settings)
        problem, state = scenarios.build_all(config)
        for _ in range(step - 1):
            state, _ = run_coupled_step(problem, state)
        step_map = StepMap(problem, state)
        h, _, residuals = fixed_point(step_map, state.q[0], problem.omega,
                                      problem.tol, problem.max_iters,
                                      np.linalg.norm)
        # omega = 1: the map's Jacobian is the loop's iteration matrix
        assert residuals[-1] < problem.tol and problem.omega == 1.0
        return step_map, h, residuals

    @staticmethod
    def spectral_radius(step_map: StepMap, h: np.ndarray,
                        eps: float = 1e-5) -> float:
        # each evaluation runs on a copy: the map keeps its warm start
        kept = (step_map.fields, step_map.q, step_map.newton_iterations,
                step_map.clamped_volume, step_map.line_search_failures,
                step_map.free_residual)
        columns = []
        for j in range(h.size):
            bump = np.zeros_like(h)
            bump[j] = eps
            columns.append((copy.copy(step_map)(h + bump)
                            - copy.copy(step_map)(h - bump)) / (2.0 * eps))
        assert step_map.fields is kept[0] and step_map.q is kept[1]
        assert (step_map.newton_iterations, step_map.clamped_volume,
                step_map.line_search_failures) == kept[2:5]
        assert step_map.free_residual is kept[5]
        return float(np.max(np.abs(np.linalg.eigvals(
            np.column_stack(columns)))))

    def test_radius_equals_observed_rate(self):
        step_map, h, residuals = self.converged_map("trench-loam", 20,
                                                    tol=1e-10)
        cr = observed_cr(residuals)
        assert cr is not None
        assert_allclose(self.spectral_radius(step_map, h), cr, rtol=1e-3)

    def test_radius_defined_where_observed_rate_is_not(self):
        step_map, h, residuals = self.converged_map("hillslope-silt", 100)
        assert len(residuals) == 2 and observed_cr(residuals) is None
        radius = self.spectral_radius(step_map, h)
        assert np.isfinite(radius) and radius > 0.0

    def test_tight_tolerance_defines_the_rate(self):
        """At coupling.tol=1e-11, CR_n is defined in every one of steps
        1-150 of hillslope-silt (at the preset tolerance in none), and at
        step 100 it is the map's radius."""
        config = replace(scenarios.preset("hillslope-silt"), tol=1e-11)
        problem, state = scenarios.build_all(config)
        rates = []
        for step in range(1, 151):
            if step == 100:
                step_map = StepMap(problem, state)
                h, _, _ = fixed_point(step_map, state.q[0], problem.omega,
                                      problem.tol, problem.max_iters,
                                      np.linalg.norm)
                radius = self.spectral_radius(step_map, h)
            state, record = run_coupled_step(problem, state)
            rates.append(record.cr)
        assert None not in rates
        assert_allclose(rates[99], radius, rtol=1e-3)

    def test_step_reads_the_map(self):
        # run_coupled_step is fixed_point on StepMap, read off the map
        problem, state = scenarios.build_all(scenarios.preset("trench-mixed"))
        new, record = run_coupled_step(problem, state)
        step_map = StepMap(problem, state)
        h, _, residuals = fixed_point(step_map, state.q[0], problem.omega,
                                      problem.tol, problem.max_iters,
                                      np.linalg.norm)
        assert tuple(residuals) == record.residuals
        assert step_map.fields.psi.tobytes() == new.psi.tobytes()
        assert h.tobytes() == new.q[0].tobytes()
        assert step_map.q[1:].tobytes() == new.q[1:].tobytes()
        assert (step_map.newton_iterations, step_map.clamped_volume,
                step_map.line_search_failures) == (
            record.newton_iterations, record.clamped_volume,
            record.line_search_failures)


class TestHandForward:
    """Each step's map starts from the previous step's last fields, and each
    sweep's Newton from the previous sweep's free residual."""

    @staticmethod
    def recorded_run(monkeypatch, config, forward: bool):
        """Bytes of every sweep's start fields and theta_old and of every
        residual its Newton saw, with the at_qp and residual call counts."""
        seen, counts = [], {"at_qp": 0, "residual": 0}
        work = richards2d.RichardsWorkspace
        newton_step, damped_newton = work.newton_step, richards2d.damped_newton

        def counting(name, method):
            def wrapped(self, *args):
                counts[name] += 1
                return method(self, *args)
            return wrapped

        def recording_newton_step(self, start, theta_old_qp, dt, values,
                                  start_free=None):
            soil = [getattr(start.soil, name) for name in (
                "theta", "capacity", "hydraulic_conductivity",
                "conductivity_derivative")]
            seen.extend(array.tobytes()
                        for array in (*start[:3], *soil, theta_old_qp))
            return newton_step(self, start, theta_old_qp, dt, values,
                               start_free if forward else None)

        def recording_newton(residual, *args):
            def recorded(trial):
                out = residual(trial)
                seen.append(out.tobytes())
                return out
            return damped_newton(recorded, *args)

        for name in counts:
            monkeypatch.setattr(work, name, counting(name, getattr(work,
                                                                   name)))
        monkeypatch.setattr(work, "newton_step", recording_newton_step)
        monkeypatch.setattr(richards2d, "damped_newton", recording_newton)
        problem, state = scenarios.build_all(config)
        if forward:
            records = run_simulation(problem, state).records
        else:
            records = []
            for _ in range(config.num_steps):
                state, record = run_coupled_step(problem, state)
                records.append(record)
        monkeypatch.undo()
        return seen, counts, records

    @pytest.mark.parametrize("name", ["trench-mixed", "hillslope-silt"])
    def test_every_newton_input_is_bitwise_the_same(self, monkeypatch, name):
        config = replace(scenarios.preset(name), num_steps=6)
        seen, counts, records = self.recorded_run(monkeypatch, config, True)
        want, want_counts, _ = self.recorded_run(monkeypatch, config, False)
        assert len(seen) == len(want) and seen == want
        # one at_qp per step after the first, one residual per sweep after
        # each step's first, are spared
        assert counts["at_qp"] == want_counts["at_qp"] - len(records) + 1
        assert counts["residual"] == want_counts["residual"] - sum(
            record.iterations - 1 for record in records)

    @pytest.mark.parametrize("name", ["trench-mixed", "hillslope-sandy"])
    def test_free_residual_sums_to_the_water_content_change(self, name):
        problem, state = scenarios.build_all(scenarios.preset(name))
        work = problem.workspace
        for step in range(1, 21):
            if step in (1, 2, 20):
                step_map = StepMap(problem, state)
                fixed_point(step_map, state.q[0], problem.omega, problem.tol,
                            problem.max_iters, np.linalg.norm)
                free = step_map.free_residual
                assert free.tobytes() == work.residual(
                    step_map.fields, step_map.theta_old_qp,
                    problem.dt).tobytes()
                # the shape functions sum to 1 and their gradients to 0
                assert_allclose(free.sum(), work.weight * np.sum(
                    step_map.fields.soil.theta - step_map.theta_old_qp),
                    rtol=1e-12)
            state, _ = run_coupled_step(problem, state)


class TestPerfbenchHooks:
    # perfbench reports a layer function it cannot find as absent, with
    # 0 calls; only the five material names are, since the closures
    # became attributes of the material evaluator
    ABSENT = {"material.theta", "material.capacity",
              "material.hydraulic_conductivity",
              "material.conductivity_derivative", "material.params_at"}

    @staticmethod
    def perfbench_unit():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "unit.py"
        spec = importlib.util.spec_from_file_location("perfbench_unit", path)
        unit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(unit)
        return unit

    def test_step_functions_resolve_in_the_package(self):
        # perfbench times each step through these names; a refactor that
        # renames a step function would silently drop the step timings
        unit = self.perfbench_unit()
        expected = {"coupling.run_coupled_step": coupling.run_coupled_step,
                    "linear1d.run_time_step": linear1d.run_time_step}
        assert set(unit.STEP_FUNCTION.values()) == set(expected)
        for name in unit.STEP_FUNCTION.values():
            module_name, attribute = unit.LAYER_FUNCTIONS[name]
            module = importlib.import_module(f"coupledflow.{module_name}")
            assert getattr(module, attribute) is expected[name]

    def test_layer_functions_resolve_as_the_tracer_installs_them(self):
        unit = self.perfbench_unit()
        absent = set()
        for name, (module_name, path) in unit.LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"coupledflow.{module_name}")
            owner, _, attribute = path.rpartition(".")
            if owner:
                found = getattr(module, owner).__dict__.get(attribute)
            else:
                found = getattr(module, attribute, None)
            if not callable(found):
                absent.add(name)
        assert absent == self.ABSENT

    def test_every_span_records_calls(self, tmp_path):
        # a span that resolves but that no program code calls reads 0 calls
        # in every run; a fresh interpreter keeps the wrappers out of the
        # other tests
        unit_path = (Path(__file__).resolve().parents[1] / "perfbench"
                     / "unit.py")
        code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_unit",
                                              {str(unit_path)!r})
unit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unit)
from coupledflow import cli, scenarios
tracer = unit.Tracer()
for name, (module_name, path) in unit.LAYER_FUNCTIONS.items():
    tracer.install(name, module_name, path)
out = {str(tmp_path)!r}
assert cli.main(["linrun", "--steps", "3", "--out", out + "/linrun"]) == 0
assert cli.main(["analyze", "--c", "1", "--k", "1",
                 "--out", out + "/analyze"]) == 0
for base in ("trench-loam", "hillslope-silt"):
    scenarios.run_scenario(scenarios.load_config(
        base=base, overrides=["coupling.num_steps=2"]), out + "/" + base)
print(json.dumps(tracer.calls))
"""
        src = os.path.dirname(os.path.dirname(coupling.__file__))
        run = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        calls = json.loads(run.stdout.splitlines()[-1])
        silent = {name for name in self.perfbench_unit().LAYER_FUNCTIONS
                  if calls.get(name, 0) == 0}
        assert silent - self.ABSENT == set()


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
        rows = list(trace_rows([fake_record(1, 0.5), fake_record(2, None)]))
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
