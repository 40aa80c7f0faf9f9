"""Tests for the linearized convergence analysis.

The discrete quantities are checked against dense linear algebra oracles
(an explicitly assembled tridiagonal interior matrix); the continuous ones
against 50 digit mpmath evaluations frozen as literals.
"""

import itertools
import timeit

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow.analysis import (
    SWEEP_COLUMNS,
    AnalysisResult,
    LinearModelParams,
    alpha_sum,
    default_log_grid,
    discrete_S,
    laplace_height,
    omega_opt_continuous,
    rho_continuous,
    sigma,
    sweep,
    sweep_point,
    toeplitz_coeffs,
)


def dense_interior(a: float, b: float, size: int) -> np.ndarray:
    matrix = np.zeros((size, size))
    np.fill_diagonal(matrix, a)
    idx = np.arange(size - 1)
    matrix[idx, idx + 1] = b
    matrix[idx + 1, idx] = b
    return matrix


class TestToeplitzCoeffs:
    def test_hand_values(self):
        p = LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                              num_elements=2)
        a, b = toeplitz_coeffs(p)
        assert_allclose(a, 2.0 / 3.0 * 0.5 + 2.0 * 0.1 / 0.5, rtol=1e-15)
        assert_allclose(b, 0.5 / 6.0 - 0.1 / 0.5, rtol=1e-15)

    def test_scaling_in_dt(self):
        p1 = LinearModelParams(c=2.0, k=0.3, length=1.0, dt=0.1,
                               num_elements=10)
        p2 = LinearModelParams(c=2.0, k=0.3, length=1.0, dt=0.2,
                               num_elements=10)
        a1, b1 = toeplitz_coeffs(p1)
        a2, b2 = toeplitz_coeffs(p2)
        # only the stiffness part carries dt
        assert_allclose(a2 - a1, 2.0 * 0.3 * 0.1 / 0.1, rtol=1e-12)
        assert_allclose(b2 - b1, -0.3 * 0.1 / 0.1, rtol=1e-12)


class TestAlphaSum:
    @pytest.mark.parametrize("num_elements", [2, 3, 5, 17, 64, 200])
    def test_matches_dense_inverse_corner(self, num_elements):
        """alpha equals the corner entry of the inverted interior matrix."""
        rng = np.random.default_rng(num_elements)
        for _ in range(5):
            b = rng.uniform(-2.0, -0.01)
            a = rng.uniform(2.05 * abs(b), 4.0 * abs(b))
            dz = 1.0 / num_elements
            corner = np.linalg.inv(
                dense_interior(a, b, num_elements - 1))[-1, -1]
            assert_allclose(alpha_sum(a, b, num_elements, dz, 1.0), corner,
                            rtol=1e-12)

    def test_single_interior_node_closed_form(self):
        # M = 2: one interior unknown, alpha = 1/a
        assert_allclose(alpha_sum(3.7, -1.2, 2, 0.5, 1.0), 1.0 / 3.7,
                        rtol=1e-12)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            alpha_sum(1.0, -2.0, 8, 0.125, 1.0)


class TestDiscreteS:
    def test_two_element_closed_form(self):
        p = LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                              num_elements=2)
        result = discrete_S(p)
        a, b = toeplitz_coeffs(p)
        assert_allclose(result.S, b * b / a - a / 2.0, rtol=1e-12)
        assert_allclose(result.S, -0.34810606060606058, rtol=1e-12)

    def test_matches_dense_schur_complement(self):
        """200 random parameter tuples against an assembled Schur oracle.

        The interface block of the full column matrix is a/2; eliminating
        the interior gives a/2 - b^2 (A^-1)_corner, the negative of S.
        """
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = LinearModelParams(
                c=10.0 ** rng.uniform(-3, 3),
                k=10.0 ** rng.uniform(-3, 3),
                length=10.0 ** rng.uniform(-1, 1),
                dt=10.0 ** rng.uniform(-3, 0),
                num_elements=int(rng.integers(2, 40)))
            a, b = toeplitz_coeffs(p)
            corner = np.linalg.inv(
                dense_interior(a, b, p.num_elements - 1))[-1, -1]
            schur = a / 2.0 - b * b * corner
            assert_allclose(discrete_S(p).S, -schur, rtol=1e-11)

    def test_omega_opt_identity(self):
        p = LinearModelParams(c=0.5, k=0.2, length=1.0, dt=0.05,
                              num_elements=25)
        result = discrete_S(p)
        assert_allclose(result.omega_opt, 1.0 / (1.0 - result.S), rtol=1e-14)
        # by construction the relaxed factor vanishes at omega_opt
        assert abs(sigma(result.omega_opt, result.S)) <= 1e-15

    def test_negative_in_physical_range(self):
        for c in (1e-3, 1.0, 1e3):
            for k in (1e-3, 1.0, 1e3):
                p = LinearModelParams(c=c, k=k, length=1.0, dt=0.1,
                                      num_elements=20)
                assert discrete_S(p).S < 0.0


class TestSigma:
    def test_unrelaxed_returns_s(self):
        assert sigma(1.0, -0.37) == -0.37

    def test_hand_value(self):
        assert_allclose(sigma(0.5, -0.3), 0.35, rtol=1e-15)


class TestContinuous:
    C, K, L = 0.8, 0.05, 2.0

    def test_rho_goldens(self):
        assert_allclose(rho_continuous(2.0, 1.0, self.C, self.K, self.L),
                        -0.14142135627943865, rtol=1e-14)
        assert_allclose(rho_continuous(0.3, 0.6, self.C, self.K, self.L),
                        0.1808424672511763, rtol=1e-14)

    def test_rho_complex_golden(self):
        value = rho_continuous(1.5 - 2.0j, 0.7, self.C, self.K, self.L)
        assert_allclose(value.real, 0.22080404048852288, rtol=1e-13)
        assert_allclose(value.imag, -0.039597979727727966, rtol=1e-13)

    def test_omega_opt_annihilates_rho(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = 10.0 ** rng.uniform(-3, 3) + 1j * rng.uniform(-50, 50)
            omega = omega_opt_continuous(s, self.C, self.K, self.L)
            assert abs(rho_continuous(s, omega, self.C, self.K, self.L)) \
                <= 1e-13

    def test_laplace_height_defining_identity(self):
        """(s + sqrt(cK/s) coth(sqrt(cs/K) L)) hhat(s) = -K."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            s = 10.0 ** rng.uniform(-3, 3) + 1j * rng.uniform(-20, 20)
            feedback = np.sqrt(self.C * self.K / s) \
                / np.tanh(np.sqrt(self.C * s / self.K) * self.L)
            value = laplace_height(s, self.C, self.K, self.L)
            assert abs((s + feedback) * value + self.K) <= 1e-13 * self.K

    def test_laplace_height_golden(self):
        assert_allclose(laplace_height(2.0, self.C, self.K, self.L),
                        -0.023348977936257862, rtol=1e-13)

    def test_coth_saturation_stays_finite(self):
        # sqrt(cs/K) L >> 350: coth saturates to 1 instead of overflowing
        value = rho_continuous(1e3, 1.0, 1e3, 1e-9, 10.0)
        assert np.isfinite(value)
        assert_allclose(value, -np.sqrt(1e3 * 1e-9 / 1e3), rtol=1e-12)

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            rho_continuous(-1.0, 1.0, self.C, self.K, self.L)
        with pytest.raises(ValueError):
            laplace_height(-0.5 + 2j, self.C, self.K, self.L)


class TestSweeps:
    def test_point_snaps_dz(self):
        ones = np.ones(3)
        columns = sweep_point(ones, ones, 0.1 * ones,
                              np.array([0.3, 0.4, 0.8]), 1.0)
        # 1/0.3 rounds to 3 elements, 1/0.4 = 2.5 to 2 (half to even) and
        # 1/0.8 to the 2 elements at least
        assert_allclose(columns["dz"], 0.5 / ones - [1.0 / 6.0, 0.0, 0.0],
                        rtol=1e-15)
        assert tuple(columns) == SWEEP_COLUMNS

    @pytest.mark.parametrize("axes, outer, inner", [
        (([0.1, 1.0], [0.2, 2.0, 20.0], 0.1, 0.05), "c", "K"),
        ((1.0, 1.0, [0.1, 0.2], [0.5, 0.25]), "dt", "dz"),
    ], ids=["material", "resolution"])
    def test_sweep_row_major(self, axes, outer, inner):
        rows = sweep(*axes, 1.0)
        outer_axis, inner_axis = [axis for axis in axes if np.size(axis) > 1]
        assert [(row[outer], row[inner]) for row in rows] \
            == [(a, b) for a in outer_axis for b in inner_axis]

    def test_default_log_grid(self):
        grid = default_log_grid()
        assert grid.size == 25
        assert_allclose(grid[0], 1e-3, rtol=1e-12)
        assert_allclose(grid[-1], 1e3, rtol=1e-12)


def point_by_point_alpha(a, b, num_elements, dz, length):
    """The eigenvalue sum of one point, as alpha_sum was before it took
    arrays of points."""
    j = np.arange(1, num_elements)
    angles = j * np.pi * dz / length
    denominators = a / 2.0 - b * np.cos(angles)
    if np.any(denominators <= 0.0):
        raise ValueError("interior matrix is not positive definite")
    return float(dz / length * np.sum(np.sin(angles) ** 2 / denominators))


def point_by_point_discrete_S(p):
    """discrete_S as it was before alpha_sum took arrays of points."""
    a, b = toeplitz_coeffs(p)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = point_by_point_alpha(a, b, p.num_elements, p.dz, p.length)
        S = b * b * alpha - a / 2.0
    if not (np.isfinite(alpha) and np.isfinite(S)):
        raise ValueError(f"S = b^2 alpha - a/2 is not finite (alpha = "
                         f"{alpha:g}, S = {S:g}); c, k, dt or dz is out of "
                         f"range")
    return AnalysisResult(a=a, b=b, alpha_sum=alpha, S=S,
                          omega_opt=1.0 / (1.0 - S))


def point_by_point_row(c, k, dt, dz, length):
    """One sweep row, as sweep_point made it before it took arrays."""
    count = length / float(dz)
    if not count < np.inf:
        raise ValueError(f"dz = {dz:g} is too small for length {length:g}")
    p = LinearModelParams(c=c, k=k, length=length, dt=dt,
                          num_elements=max(2, round(count)))
    result = point_by_point_discrete_S(p)
    return {"c": c, "K": k, "dt": dt, "dz": p.dz, "a": result.a,
            "b": result.b, "alpha": result.alpha_sum, "S": result.S,
            "abs_S": abs(result.S), "omega_opt": result.omega_opt}


def assert_columns_bitwise(rows, want_rows):
    assert len(rows) == len(want_rows)
    for name in SWEEP_COLUMNS:
        got = np.array([row[name] for row in rows], dtype=float)
        want = np.array([row[name] for row in want_rows], dtype=float)
        assert got.tobytes() == want.tobytes(), name


GRID = default_log_grid
RNG = np.random.default_rng(21)
# 200 points, log-uniform in c, K, dt and dz: M from 2 to about 3000
RANDOM_POINTS = 10.0 ** RNG.uniform([-3, -3, -3, -3.5], [3, 3, 3, 0],
                                    size=(200, 4))


class TestSweepOracle:
    """The array kernel against the point-by-point chain it replaced, bit
    for bit in every column."""

    @pytest.mark.parametrize("axes", [
        (GRID(), GRID(), 0.1, 1.0 / 20.0),
        (1.0, 1.0, GRID(), GRID(1.0 / 200, 1.0 / 2, 25)),
        (GRID(1e-3, 1e3, 50), GRID(1e-3, 1e3, 50), 0.1, 1.0 / 20.0),
        ([1.0, 2.0, 3.0], 1.0, 0.1, 1e-6),
    ], ids=["material", "resolution", "perfbench-material", "finest"])
    def test_grid(self, axes):
        points = list(itertools.product(
            *(np.array(axis, dtype=float, ndmin=1) for axis in axes)))
        assert_columns_bitwise(list(sweep(*axes, 1.0)),
                               [point_by_point_row(*point, 1.0)
                                for point in points])

    def test_resolution_grid_crosses_the_pairwise_block(self):
        # numpy sums blocks of 128 terms pairwise: M - 1 runs across that
        rows = sweep(1.0, 1.0, 0.1, GRID(1.0 / 200, 1.0 / 2, 25), 1.0)
        counts = sorted(round(1.0 / row["dz"]) for row in rows)
        assert counts[0] == 2 and counts[-1] == 200
        assert any(count - 1 < 128 < count - 1 + 40 for count in counts)

    def test_random_points(self):
        c, k, dt, dz = RANDOM_POINTS.T
        columns = sweep_point(c, k, dt, dz, 1.0)
        want = [point_by_point_row(*point, 1.0) for point in RANDOM_POINTS]
        assert_columns_bitwise(
            [dict(zip(columns, row)) for row in zip(*columns.values())],
            want)
        for point, row in zip(RANDOM_POINTS, want):
            p = LinearModelParams(c=point[0], k=point[1], length=1.0,
                                  dt=point[2],
                                  num_elements=round(1.0 / row["dz"]))
            assert discrete_S(p) == point_by_point_discrete_S(p)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0],
                                       [2, 0, 4, 1, 3], [3, 2, 0, 1, 4],
                                       [1, 4, 3, 0, 2]])
    def test_first_failing_point_raises_its_own_error(self, order):
        # after 40 good points, one point per check: dz too small, too many
        # elements, an interior matrix that is not positive definite (its M
        # = 2 shared with good points), an infinite alpha and an S whose
        # b^2 overflows
        bad = np.array([[1.0, 1.0, 0.1, 1e-320], [1.0, 1.0, 0.1, 5e-7],
                        [5e-324, 5e-324, 0.1, 0.5],
                        [1e-320, 1e-320, 0.1, 0.5], [1e300, 1.0, 0.1, 0.05]])
        points = np.vstack([RANDOM_POINTS[:40], bad[order],
                            RANDOM_POINTS[40:80]])
        with pytest.raises(ValueError) as want:
            for point in points:
                point_by_point_row(*point, 1.0)
        with pytest.raises(ValueError) as got:
            sweep_point(*points.T, 1.0)
        assert str(got.value) == str(want.value)

    def test_discrete_S_is_no_slower_than_the_point_by_point_chain(self):
        # predict_S runs discrete_S every coupled step; interleaved batches
        # see the same machine load
        p = LinearModelParams(c=0.3, k=1e-6, length=3.0, dt=36.0,
                              num_elements=30)
        times = {discrete_S: [], point_by_point_discrete_S: []}
        for _ in range(41):
            for function, batch in times.items():
                batch.append(timeit.timeit(lambda: function(p), number=50))
        assert np.median(times[discrete_S]) \
            <= 1.25 * np.median(times[point_by_point_discrete_S])


class TestValidation:
    def test_rejects_bad_parameters(self):
        good = dict(c=1.0, k=1.0, length=1.0, dt=0.1, num_elements=4)
        for field, value in [("c", 0.0), ("k", -1.0), ("length", 0.0),
                             ("dt", 0.0), ("num_elements", 1),
                             ("num_elements", 0),
                             ("num_elements", 10**6 + 1)]:
            with pytest.raises(ValueError):
                LinearModelParams(**{**good, field: value})
        with pytest.raises(ValueError):
            LinearModelParams(omega=0.0, **good)
