"""Tests for the linearized convergence analysis.

The discrete quantities are checked against dense linear algebra oracles
(an explicitly assembled tridiagonal interior matrix) and 80 digit mpmath
evaluations of the determinant recurrence; the continuous ones against 50
digit mpmath evaluations frozen as literals.
"""

import itertools
import timeit
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow import analysis
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
from coupledflow.linear1d import run_simulation


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

    def test_discrete_S_tends_to_rho_at_second_order(self):
        # |S| -> |rho(1/dt)| as dz -> 0, the error falling 16x per 4x
        # refinement; the eigenvalue sum's b^2 alpha - a/2 loses 7e-6 of S
        # to cancellation at M = 10**6
        rho = rho_continuous(1.0 / 0.1, 1.0, 1.0, 1.0, 1.0)
        errors = [abs(discrete_S(LinearModelParams(
            c=1.0, k=1.0, length=1.0, dt=0.1, num_elements=count)).S / rho
            - 1.0) for count in 16 * 4 ** np.arange(7)]
        assert_allclose(np.divide(errors[:-1], errors[1:]), 16.0, atol=0.1)
        assert abs(discrete_S(LinearModelParams(
            c=1.0, k=1.0, length=1.0, dt=0.1, num_elements=10**6)).S / rho
            - 1.0) <= 1e-12


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

    def test_memory_does_not_grow_with_the_chunks(self, monkeypatch):
        # 16384 points are one chunk by default and 64 of 256 points here;
        # the rows are the same, and only one chunk is held at a time
        axis = default_log_grid(1e-3, 1e3, 128)
        whole = list(sweep(axis, axis, 0.1, 0.05, 1.0))
        monkeypatch.setattr(analysis, "SWEEP_CHUNK", 256)
        assert list(sweep(axis, axis, 0.1, 0.05, 1.0)) == whole

        def peak(size: int) -> int:
            tracemalloc.start()
            try:
                for _ in sweep(axis[:size], axis[:size], 0.1, 0.05, 1.0):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(128) <= 1.5 * peak(32)

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
    return AnalysisResult(a=a, b=b, alpha=alpha, S=S,
                          omega_opt=1.0 / (1.0 - S))


def point_by_point_row(c, k, dt, dz, length,
                       evaluate=point_by_point_discrete_S):
    """One sweep row, as sweep_point made it before it took arrays, with
    evaluate in place of discrete_S."""
    count = length / float(dz)
    if not count < np.inf:
        raise ValueError(f"dz = {dz:g} is too small for length {length:g}")
    p = LinearModelParams(c=c, k=k, length=length, dt=dt,
                          num_elements=max(2, round(count)))
    result = evaluate(p)
    return {"c": c, "K": k, "dt": dt, "dz": p.dz, "a": result.a,
            "b": result.b, "alpha": result.alpha, "S": result.S,
            "abs_S": abs(result.S), "omega_opt": result.omega_opt}


def assert_columns_bitwise(rows, want_rows):
    assert len(rows) == len(want_rows)
    for name in SWEEP_COLUMNS:
        got = np.array([row[name] for row in rows], dtype=float)
        want = np.array([row[name] for row in want_rows], dtype=float)
        assert got.tobytes() == want.tobytes(), name


def transfer_truth(c, k, dt, dz, length):
    """alpha, S, abs_S and omega_opt at 80 digits from the exact c, k, dt and
    dz.  The determinants D_j of the interior matrix's leading blocks obey
    D_j = a D_{j-1} - b^2 D_{j-2} from D_0 = 1, D_-1 = 0, so the first
    column of [[a, -b^2], [1, 0]]^(M-1) is (D_{M-1}, D_{M-2}) and
    alpha = D_{M-2} / D_{M-1}."""
    with mpmath.workdps(80):
        c, k, dt, dz = map(mpmath.mpf, (c, k, dt, dz))
        a = 2 * c * dz / 3 + 2 * k * dt / dz
        b = c * dz / 6 - k * dt / dz
        power = mpmath.matrix([[a, -b * b], [1, 0]]) \
            ** (round(length / float(dz)) - 1)
        alpha = power[1, 0] / power[0, 0]
        S = b * b * alpha - a / 2
        return {"alpha": alpha, "S": S, "abs_S": abs(S),
                "omega_opt": 1 / (1 - S)}


def relative_errors(rows, length):
    """Each row's relative distance from the truth, per truth column."""
    errors = []
    for row in rows:
        truth = transfer_truth(row["c"], row["K"], row["dt"], row["dz"],
                               length)
        errors.append({name: float(abs((row[name] - value) / value))
                       for name, value in truth.items()})
    return errors


def assert_near_truth(rows, parent_rows, length=1.0):
    """Every truth cell of rows within 1e-15 relative of the truth, each
    column's worst no worse than the parent's (the eigenvalue sum's), and a
    cell farther than the parent's only within that 1e-15.  Returns the
    parent's worst relative error."""
    errors = relative_errors(rows, length)
    parent_errors = relative_errors(parent_rows, length)
    for name in errors[0]:
        got = np.array([error[name] for error in errors])
        parent = np.array([error[name] for error in parent_errors])
        assert got.max() <= 1e-15, name
        assert got.max() <= parent.max(), name
        assert np.all((got <= parent) | (got <= 1e-15)), name
    return max(max(error.values()) for error in parent_errors)


GRID = default_log_grid
RNG = np.random.default_rng(21)
# 200 points, log-uniform in c, K, dt and dz: M from 2 to about 3000
RANDOM_POINTS = 10.0 ** RNG.uniform([-3, -3, -3, -3.5], [3, 3, 3, 0],
                                    size=(200, 4))
# the same with M up to 20,000
FINE_POINTS = 10.0 ** RNG.uniform([-3, -3, -3, -4.3], [3, 3, 3, 0],
                                  size=(200, 4))


class TestSweepOracle:
    """The array kernel against discrete_S point by point, bit for bit in
    every column, and both against the 80 digit truth next to the
    point-by-point eigenvalue sum they replaced."""

    @pytest.mark.parametrize("axes, parent_worst", [
        ((GRID(), GRID(), 0.1, 1.0 / 20.0), 5.1e-14),
        ((1.0, 1.0, GRID(), GRID(1.0 / 200, 1.0 / 2, 25)), 3.0e-12),
        ((GRID(1e-3, 1e3, 50), GRID(1e-3, 1e3, 50), 0.1, 1.0 / 20.0),
         5.6e-14),
        (([1.0, 2.0, 3.0], 1.0, 0.1, 1e-6), 7.0e-6),
    ], ids=["material", "resolution", "perfbench-material", "finest"])
    def test_grid(self, axes, parent_worst):
        points = list(itertools.product(
            *(np.array(axis, dtype=float, ndmin=1) for axis in axes)))
        rows = list(sweep(*axes, 1.0))
        assert_columns_bitwise(rows, [point_by_point_row(*point, 1.0,
                                                         discrete_S)
                                      for point in points])
        assert_allclose(assert_near_truth(
            rows, [point_by_point_row(*point, 1.0) for point in points]),
            parent_worst, rtol=0.05)

    @pytest.mark.parametrize("points, parent_worst", [
        (RANDOM_POINTS, 5.4e-10), (FINE_POINTS, 3.3e-8)],
        ids=["random", "fine"])
    def test_random_points(self, points, parent_worst):
        columns = sweep_point(*points.T, 1.0)
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert_columns_bitwise(rows, [point_by_point_row(*point, 1.0,
                                                         discrete_S)
                                      for point in points])
        assert_allclose(assert_near_truth(
            rows, [point_by_point_row(*point, 1.0) for point in points]),
            parent_worst, rtol=0.05)

    def test_sweep_point_is_discrete_S_bitwise(self):
        # 20,000 points log-uniform in c, K, dt and dz, M from 2 to 10**6
        points = 10.0 ** np.random.default_rng(23).uniform(
            [-3, -3, -3, -6], [3, 3, 3, 0], size=(20_000, 4))
        columns = sweep_point(*points.T, 1.0)
        assert_columns_bitwise(
            [dict(zip(columns, row)) for row in zip(*columns.values())],
            [point_by_point_row(*point, 1.0, discrete_S)
             for point in points])

    # after 40 good points, one point per check: dz too small, too many
    # elements, subnormal c and K whose q underflows to 0 (two of them, the
    # first at the M = 2 of good points) and a c whose q overflows
    BAD = np.array([[1.0, 1.0, 0.1, 1e-320], [1.0, 1.0, 0.1, 5e-7],
                    [5e-324, 5e-324, 0.1, 0.5], [1e-320, 1e-320, 0.1, 0.5],
                    [1e300, 1.0, 0.1, 0.05]])
    NOT_FINITE = ("S = b^2 alpha - a/2 is not finite (alpha = {}, S = {}); "
                  "c, k, dt or dz is out of range")
    MESSAGES = ["dz = 9.99989e-321 is too small for length 1",
                "num_elements must be an integer in [2, 10**6]",
                NOT_FINITE.format("nan", "nan"),
                NOT_FINITE.format("nan", "nan"),
                NOT_FINITE.format(0, "-inf")]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0],
                                       [2, 0, 4, 1, 3], [3, 2, 0, 1, 4],
                                       [1, 4, 3, 0, 2]])
    def test_first_failing_point_raises_its_own_error(self, order):
        points = np.vstack([RANDOM_POINTS[:40], self.BAD[order],
                            RANDOM_POINTS[40:80]])
        with pytest.raises(ValueError) as want:
            for point in points:
                point_by_point_row(*point, 1.0, discrete_S)
        with pytest.raises(ValueError) as got:
            sweep_point(*points.T, 1.0)
        assert str(got.value) == str(want.value) == self.MESSAGES[order[0]]

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
                             ("num_elements", 0), ("num_elements", 2.5),
                             ("num_elements", 10**6 + 1)]:
            with pytest.raises(ValueError):
                LinearModelParams(**{**good, field: value})
        with pytest.raises(ValueError):
            LinearModelParams(omega=0.0, **good)

    def test_whole_float_num_elements_is_stored_as_int(self):
        # the column's node count is built from it, so it must be an int
        whole = LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                                  num_elements=20.0)
        assert type(whole.num_elements) is int
        assert len(run_simulation(whole, 1).steps) == 1
