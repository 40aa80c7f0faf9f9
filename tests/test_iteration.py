"""Tests for the shared relaxed fixed-point loop and damped Newton iteration.

The solver test files cover both iterations in context (line search
failures, stalls, the non-finite surface residual); these check the rest of
their contract on toy problems.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow.iteration import NewtonError, damped_newton, fixed_point


class TestFixedPoint:
    def test_blend_at_half_relaxation(self):
        x, iterates, residuals = fixed_point(
            lambda x: np.array([2.0]), np.array([0.0]), omega=0.5, tol=0.6,
            max_iters=10, norm=np.linalg.norm)
        # x: 0 -> 1 -> 1.5 -> 1.75; residuals |2 - x| halve each sweep
        assert_allclose(iterates, [[1.0], [1.5], [1.75]], rtol=0, atol=0)
        assert residuals == [2.0, 1.0, 0.5]
        assert x is iterates[-1]

    @pytest.mark.parametrize("omega", [0.0, 1.5])
    def test_rejects_omega_outside_unit_interval(self, omega):
        with pytest.raises(ValueError, match="omega"):
            fixed_point(lambda x: x, 0.0, omega=omega, tol=1e-8,
                        max_iters=10, norm=abs)

    def test_rejects_nan_tol(self):
        with pytest.raises(ValueError, match="tol"):
            fixed_point(lambda x: x, 0.0, omega=1.0, tol=np.nan,
                        max_iters=10, norm=abs)

    def test_non_converged_run_returns_max_iters_residuals(self):
        x, iterates, residuals = fixed_point(
            lambda x: x + 1.0, 0.0, omega=1.0, tol=0.5, max_iters=7,
            norm=abs)
        assert residuals == [1.0] * 7
        assert len(iterates) == 7
        assert x == 7.0


def _square_root_of_two():
    return (lambda x: x * x - 2.0, lambda x, r: -r / (2.0 * x))


class TestDampedNewton:
    def test_converges_to_the_root(self):
        residual, direction = _square_root_of_two()
        x, report = damped_newton(residual, direction, np.array([1.0]),
                                  target=lambda norm0: 1e-14, max_iters=20,
                                  trials=5)
        assert_allclose(x, [np.sqrt(2.0)], rtol=1e-14)
        assert report.residual_norm <= 1e-14
        assert 1 <= report.iterations < 20
        assert report.line_search_failures == 0

    def test_target_is_relative_to_the_initial_norm(self):
        residual, direction = _square_root_of_two()
        _, report = damped_newton(residual, direction, np.array([1.0]),
                                  target=lambda norm0: 0.5 * norm0,
                                  max_iters=20, trials=5)
        assert report.iterations == 1
        assert report.residual_norm <= 0.5

    def test_within_accept_is_returned(self):
        residual, direction = _square_root_of_two()
        _, report = damped_newton(residual, direction, np.array([1.0]),
                                  target=lambda norm0: 1e-14, max_iters=1,
                                  trials=5, accept=0.5)
        assert report.iterations == 1
        assert report.residual_norm <= 0.5

    def test_linalg_error_from_direction_is_a_newton_error(self):
        def singular(x, r):
            return np.linalg.solve(np.zeros((1, 1)), -r)

        with pytest.raises(NewtonError, match="singular") as info:
            damped_newton(lambda x: x - 1.0, singular, np.array([3.0]),
                          target=lambda norm0: 1e-12, max_iters=20, trials=5)
        assert info.value.iterations == 0
        assert info.value.residual_norm == 2.0
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_floating_point_error_from_residual_is_a_newton_error(self):
        # spsolve on an exactly singular matrix warns and returns nan, and
        # the Richards residual raises FloatingPointError on the nan trial
        def residual(x):
            if not np.all(np.isfinite(x)):
                raise FloatingPointError("non-finite water content")
            return x - 1.0

        with pytest.raises(NewtonError, match="non-finite") as info:
            damped_newton(residual, lambda x, r: np.full_like(r, np.nan),
                          np.array([3.0]), target=lambda norm0: 1e-12,
                          max_iters=20, trials=5)
        assert info.value.iterations == 0
        assert info.value.residual_norm == 2.0
        assert isinstance(info.value.__cause__, FloatingPointError)


class TestDirectionFollowsResidual:
    """direction(x, r) gets the x and r of the latest residual call, so a
    caller may reuse what that call computed at x (the Richards solver
    reuses its quadrature-point fields for the Jacobian)."""

    @staticmethod
    def run(flip_first: bool):
        calls = []

        def residual(x):
            r = x * x - 2.0
            calls.append(("residual", x, r))
            return r

        def direction(x, r):
            calls.append(("direction", x, r))
            delta = -r / (2.0 * x)
            directions = sum(call[0] == "direction" for call in calls)
            return -delta if flip_first and directions == 1 else delta

        _, report = damped_newton(residual, direction, np.array([1.0]),
                                  target=lambda norm0: 1e-14, max_iters=20,
                                  trials=4)
        return calls, report

    @pytest.mark.parametrize("flip_first", [False, True])
    def test_direction_sees_latest_residual_call(self, flip_first):
        calls, report = self.run(flip_first)
        # an uphill first direction raises the norm for every trial
        assert report.line_search_failures == int(flip_first)
        directions = [i for i, call in enumerate(calls)
                      if call[0] == "direction"]
        assert len(directions) == report.iterations >= 2
        for i in directions:
            latest = [call for call in calls[:i] if call[0] == "residual"][-1]
            assert calls[i][1] is latest[1] and calls[i][2] is latest[2]
