"""Tests for the linearized convergence analysis.

The discrete quantities are checked against dense linear algebra oracles
(an explicitly assembled tridiagonal interior matrix); the continuous ones
against 50 digit mpmath evaluations frozen as literals.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow.analysis import (
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
        row = sweep_point(1.0, 1.0, 0.1, 0.3, 1.0)
        # 1/0.3 rounds to 3 elements
        assert_allclose(row["dz"], 1.0 / 3.0, rtol=1e-15)
        assert set(row) == {"c", "K", "dt", "dz", "a", "b", "alpha", "S",
                            "abs_S", "omega_opt"}

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
