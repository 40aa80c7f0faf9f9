"""Tests for the linearized column testbench.

The single step solve is checked against a dense assembly of the same
system and, bit for bit, against the unfactored banded solve it replaced;
the iteration behaviour against the affine interface map
psi -> S psi + tail, whose slope the analysis module predicts.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpttrf

from coupledflow import linear1d
from coupledflow.analysis import LinearModelParams, discrete_S, sigma
from coupledflow.iteration import observed_cr
from coupledflow.linear1d import (
    build_system,
    initial_state,
    run_simulation,
    run_time_step,
    subsurface_solve,
    summary_rows,
    surface_update,
    trace_rows,
)


def affine_tail(sys) -> float:
    """Constant term of the interface map: psi_tilde = S psi_prev + tail."""
    return surface_update(sys, subsurface_solve(sys, 0.0), 0.0)


def standard_params(**overrides) -> LinearModelParams:
    base = dict(c=1.0, k=1.0, length=1.0, dt=0.1, num_elements=10)
    base.update(overrides)
    return LinearModelParams(**base)


def dense_solve_oracle(p: LinearModelParams, psi_old: np.ndarray,
                       gamma_old: float, gamma_frozen: float) -> np.ndarray:
    """Assemble the interior system densely and solve with numpy."""
    size = p.num_elements - 1
    c_dz = p.c * p.dz
    a = 2.0 / 3.0 * c_dz + 2.0 * p.k * p.dt / p.dz
    b = c_dz / 6.0 - p.k * p.dt / p.dz
    matrix = np.diag(np.full(size, a))
    idx = np.arange(size - 1)
    matrix[idx, idx + 1] = b
    matrix[idx + 1, idx] = b
    mass = np.diag(np.full(size, 2.0 / 3.0 * c_dz))
    mass[idx, idx + 1] = c_dz / 6.0
    mass[idx + 1, idx] = c_dz / 6.0
    rhs = mass @ psi_old
    rhs[-1] += c_dz / 6.0 * gamma_old
    rhs[-1] -= b * gamma_frozen
    return np.linalg.solve(matrix, rhs)


def banded_solve_oracle(sys, psi_gamma_prev_iter: float) -> np.ndarray:
    """The solve before the factor was kept: the whole right-hand side and
    the band array built per call, then scipy's solveh_banded (dptsv)."""
    c_dz = sys.params.c * sys.params.dz
    vector = sys.psi_interior_old
    rhs = 2.0 / 3.0 * c_dz * vector
    rhs[1:] += c_dz / 6.0 * vector[:-1]
    rhs[:-1] += c_dz / 6.0 * vector[1:]
    rhs[-1] += c_dz / 6.0 * sys.psi_gamma_old
    rhs[-1] -= sys.off_diag * psi_gamma_prev_iter
    if sys.num_interior == 1:
        return rhs / sys.diag
    bands = np.zeros((2, sys.num_interior))
    bands[0, 1:] = sys.off_diag
    bands[1, :] = sys.diag
    return solveh_banded(bands, rhs)


FACTOR_CASES = [(num_elements, c, k, dt)
                for num_elements in (2, 3, 7, 40)
                for c, k, dt in ((1.0, 1.0, 0.05), (0.7, 0.25, 0.3),
                                 (0.2, 2.0, 0.5), (3.0, 1e-3, 0.01))]


class TestInitialState:
    def test_linear_profile(self):
        p = LinearModelParams(c=1.0, k=1.0, length=2.0, dt=0.1,
                              num_elements=4)
        interior, gamma = initial_state(p)
        assert_allclose(interior, [0.75, 0.5, 0.25], rtol=1e-15)
        assert gamma == 0.0

    def test_wrong_length_rejected(self):
        p = standard_params()
        with pytest.raises(ValueError):
            build_system(p, psi_interior_old=np.zeros(3), psi_gamma_old=0.0)


class TestSubsurfaceSolve:
    @pytest.mark.parametrize("num_elements", [2, 3, 7, 40])
    def test_matches_dense_oracle(self, num_elements):
        rng = np.random.default_rng(num_elements)
        p = standard_params(num_elements=num_elements, c=0.7, k=0.25,
                            dt=0.05)
        psi_old = rng.normal(size=num_elements - 1)
        gamma_old = rng.normal()
        gamma_frozen = rng.normal()
        sys = build_system(p, psi_old, gamma_old)
        assert_allclose(subsurface_solve(sys, gamma_frozen),
                        dense_solve_oracle(p, psi_old, gamma_old,
                                           gamma_frozen),
                        rtol=1e-12, atol=1e-14)

    def test_single_interior_closed_form(self):
        p = standard_params(num_elements=2, c=2.0, k=0.5, dt=0.2)
        sys = build_system(p, np.array([0.3]), 0.1)
        c_dz = 2.0 * 0.5
        a = 2.0 / 3.0 * c_dz + 2.0 * 0.5 * 0.2 / 0.5
        b = c_dz / 6.0 - 0.5 * 0.2 / 0.5
        rhs = 2.0 / 3.0 * c_dz * 0.3 + c_dz / 6.0 * 0.1 - b * 0.7
        assert_allclose(subsurface_solve(sys, 0.7), [rhs / a], rtol=1e-14)


class TestFactoredSolve:
    @pytest.mark.parametrize("num_elements,c,k,dt", FACTOR_CASES)
    def test_bitwise_equal_to_banded_solve(self, num_elements, c, k, dt):
        rng = np.random.default_rng(num_elements)
        p = standard_params(num_elements=num_elements, c=c, k=k, dt=dt)
        sys = build_system(p, rng.normal(size=num_elements - 1), rng.normal())
        for gamma in (0.0, *rng.normal(size=5, scale=3.0)):
            assert np.array_equal(subsurface_solve(sys, gamma),
                                  banded_solve_oracle(sys, gamma))

    @pytest.mark.parametrize("num_elements,c,k,dt", FACTOR_CASES)
    def test_run_bitwise_equal_to_banded_run(self, monkeypatch, num_elements,
                                             c, k, dt):
        p = standard_params(num_elements=num_elements, c=c, k=k, dt=dt,
                            omega=0.6)
        factored = run_simulation(p, num_steps=6, tol=1e-12)
        monkeypatch.setattr(linear1d, "subsurface_solve",
                            banded_solve_oracle)
        banded = run_simulation(p, num_steps=6, tol=1e-12)
        assert list(trace_rows(factored)) == list(trace_rows(banded))
        assert summary_rows(factored) == summary_rows(banded)
        for left, right in zip(factored.steps, banded.steps):
            assert np.array_equal(left.psi_interior, right.psi_interior)

    def test_factors_once_per_build_and_solves_once_per_sweep(
            self, monkeypatch):
        calls = {"dpttrf": 0, "dpttrs": 0}

        def counting(name):
            original = getattr(linear1d, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(linear1d, name, counting(name))
        trace = run_simulation(standard_params(omega=0.5), num_steps=5,
                               tol=1e-12)
        assert calls["dpttrf"] == 1
        assert calls["dpttrs"] == sum(step.iterations for step in trace.steps)
        build_system(standard_params())
        assert calls["dpttrf"] == 2

    @pytest.mark.parametrize("num_elements", [2, 7])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_interface_value_rejected(self, num_elements, gamma):
        sys = build_system(standard_params(num_elements=num_elements))
        with pytest.raises(ValueError, match="finite"):
            subsurface_solve(sys, gamma)

    def test_not_positive_definite_rejected(self):
        sys = build_system(standard_params(num_elements=5))
        bad = replace(sys, factor=dpttrf(np.full(4, -1.0), np.full(3, 0.1)))
        with pytest.raises(ValueError, match="not positive definite"):
            subsurface_solve(bad, 0.0)
        single = replace(build_system(standard_params(num_elements=2)),
                         diag=-1.0)
        with pytest.raises(ValueError, match="not positive definite"):
            subsurface_solve(single, 0.0)

    def test_residual_check_catches_a_wrong_factor(self):
        sys = build_system(standard_params(num_elements=5))
        other = replace(sys, factor=dpttrf(np.full(4, 2.0 * sys.diag),
                                           np.full(3, sys.off_diag)))
        with pytest.raises(RuntimeError, match="residual check"):
            subsurface_solve(other, 0.5)

    def test_next_step_keeps_the_factor(self):
        sys = build_system(standard_params(num_elements=7))
        later = sys.with_previous_state(np.ones(6), 0.25)
        assert later.factor is sys.factor
        assert np.array_equal(later.rhs_old, build_system(
            standard_params(num_elements=7), np.ones(6), 0.25).rhs_old)


class TestInterfaceMap:
    def test_affine_with_predicted_slope(self):
        """map(psi) - map(psi') = S (psi - psi') for the analysis S."""
        rng = np.random.default_rng(5)
        for num_elements in (2, 5, 20):
            p = standard_params(num_elements=num_elements, c=0.4, k=1.5,
                                dt=0.02)
            sys = build_system(p)
            values = rng.normal(size=4, scale=3.0)
            images = [surface_update(sys, subsurface_solve(sys, v), v)
                      for v in values]
            S = discrete_S(p).S
            for v, image in zip(values[1:], images[1:]):
                slope = (image - images[0]) / (v - values[0])
                assert_allclose(slope, S, rtol=1e-10)

    def test_tail_completes_the_map(self):
        p = standard_params()
        sys = build_system(p)
        S = discrete_S(p).S
        tail = affine_tail(sys)
        for v in (-1.0, 0.0, 2.5):
            image = surface_update(sys, subsurface_solve(sys, v), v)
            assert_allclose(image, S * v + tail, rtol=1e-12, atol=1e-14)

    def test_fixed_point_is_invariant(self):
        p = standard_params()
        sys = build_system(p)
        S = discrete_S(p).S
        star = affine_tail(sys) / (1.0 - S)
        image = surface_update(sys, subsurface_solve(sys, star), star)
        assert abs(image - star) <= 1e-14 * max(1.0, abs(star))


class TestRunTimeStep:
    def test_converges_to_fixed_point(self):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=1.0, tol=1e-12)
        star = affine_tail(sys) / (1.0 - discrete_S(p).S)
        assert step.converged
        assert abs(step.psi_gamma - star) <= 1e-11

    def test_omega_opt_needs_two_iterations(self):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=discrete_S(p).omega_opt, tol=1e-8)
        assert step.converged
        assert step.iterations == 2

    @pytest.mark.parametrize("omega", [0.3, 0.6, 1.0])
    def test_cr_matches_relaxed_factor(self, omega):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=omega, tol=1e-10)
        expected = abs(sigma(omega, discrete_S(p).S))
        assert step.cr is not None
        assert abs(step.cr - expected) <= 1e-8
        # the affine map makes every consecutive ratio equal, not just
        # their mean; ratios near the stopping tolerance carry rounding
        # noise of the iterate difference, hence the looser bound
        ratios = step.residuals[1:] / step.residuals[:-1]
        assert np.max(np.abs(ratios[:-1] - expected)) <= 1e-6

    def test_divergent_regime_reports_honestly(self):
        p = standard_params(num_elements=500, dt=1.0)
        sys = build_system(p)
        step = run_time_step(sys, omega=1.0, tol=1e-8, max_iters=5)
        assert not step.converged
        assert step.iterations == 5
        assert step.residuals[-1] > step.residuals[0]
        # the ratio law holds regardless of convergence
        assert_allclose(step.cr, abs(discrete_S(p).S), rtol=1e-8)

    def test_rejects_bad_iteration_settings(self):
        sys = build_system(standard_params())
        with pytest.raises(ValueError):
            run_time_step(sys, omega=0.0)
        with pytest.raises(ValueError):
            run_time_step(sys, omega=1.0, tol=0.0)
        with pytest.raises(ValueError):
            run_time_step(sys, omega=1.0, max_iters=0)


class TestRunSimulation:
    def test_marches_and_records(self):
        p = standard_params(omega=1.0)
        trace = run_simulation(p, num_steps=4, tol=1e-10)
        assert len(trace.steps) == 4
        assert not trace.diverged
        assert all(step.converged for step in trace.steps)
        # every step contracts at the same predicted rate
        for step in trace.steps:
            assert abs(step.cr - abs(trace.analysis.S)) <= 1e-7

    def test_divergence_flag(self):
        p = standard_params(num_elements=500, dt=1.0)
        trace = run_simulation(p, num_steps=2, max_iters=5)
        assert trace.diverged

    def test_deterministic(self):
        p = standard_params(omega=0.7)
        first = run_simulation(p, num_steps=3, tol=1e-11)
        second = run_simulation(p, num_steps=3, tol=1e-11)
        for left, right in zip(first.steps, second.steps):
            assert np.array_equal(left.residuals, right.residuals)
            assert left.psi_gamma == right.psi_gamma

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            run_simulation(standard_params(), num_steps=0)


class TestObservedCr:
    def test_hand_values(self):
        assert_allclose(observed_cr([1.0, 0.1, 0.01, 1e-9]), 0.1,
                        rtol=1e-15)
        assert_allclose(observed_cr([4.0, 1.0, 0.25]), 0.25, rtol=1e-15)

    def test_short_histories_undefined(self):
        assert observed_cr([]) is None
        assert observed_cr([1.0]) is None
        assert observed_cr([1.0, 0.5]) is None

    def test_final_residual_excluded(self):
        # the last entry may be converged-noise; it must not enter
        assert_allclose(observed_cr([1.0, 0.5, 0.25, 1e-300]), 0.5,
                        rtol=1e-15)


class TestRows:
    def test_trace_rows_cover_every_iterate(self):
        trace = run_simulation(standard_params(omega=1.0), num_steps=3,
                               tol=1e-10)
        rows = list(trace_rows(trace))
        assert len(rows) == sum(step.iterations for step in trace.steps)
        assert rows[0]["n"] == 1 and rows[0]["k"] == 1
        assert set(rows[0]) == {"n", "k", "psi_gamma", "residual"}

    def test_summary_marks_undefined_cr(self):
        p = standard_params()
        omega = discrete_S(p).omega_opt
        trace = run_simulation(
            LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                              num_elements=10, omega=omega),
            num_steps=1, tol=1e-8)
        rows = summary_rows(trace)
        assert rows[0]["K_n"] == 2
        assert rows[0]["CR_n"] == ""
