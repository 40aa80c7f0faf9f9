"""Tests for the van Genuchten / Mualem closures and material fields.

Golden values were produced by an independent 50 digit mpmath evaluation of
the printed closed forms and are frozen here as literals.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow.material import (
    SOIL_PRESETS,
    MaterialField,
    VanGenuchtenParams,
)

CLAY = SOIL_PRESETS["beit-netofa-clay"]
SILT = SOIL_PRESETS["silt-loam"]
SANDY = SOIL_PRESETS["sandy-loam"]


def closures(psi, soil):
    """The closures of one soil at psi, bound with scalar parameters."""
    return MaterialField(soil).at(0.0).at_heads(psi)


def peak_capacity(soil):
    """c at its maximiser, where (alpha*|psi|)^n = (n-1)/n."""
    peak = -((soil.n - 1.0) / soil.n) ** (1.0 / soil.n) / soil.alpha
    return closures(peak, soil).capacity


class TestTheta:
    def test_saturated_branch(self):
        """Ponded soil holds theta_s regardless of the head magnitude."""
        assert closures(1.0, SILT).theta == SILT.theta_s
        assert closures(1e-12, CLAY).theta == CLAY.theta_s

    def test_golden_values(self):
        assert_allclose(closures(-1.0, SILT).theta, 0.37544096008071127,
                        rtol=1e-14)
        assert_allclose(closures(-3.0, CLAY).theta, 0.42476332095394187,
                        rtol=1e-14)

    @pytest.mark.parametrize("soil", [CLAY, SILT, SANDY])
    def test_monotone_and_bounded(self, soil):
        psi = -np.geomspace(1e-6, 1e4, 300)[::-1]
        values = closures(psi, soil).theta
        assert np.all(np.diff(values) >= 0)  # wetter soil holds more water
        assert np.all(values > soil.theta_r)
        assert np.all(values <= soil.theta_s)

    def test_scalar_and_array_agree(self):
        psi = np.array([-2.0, -0.5, 0.3])
        values = closures(psi, SILT).theta
        assert values.shape == (3,)
        for one, many in zip(psi, values):
            assert closures(float(one), SILT).theta == many


class TestCapacity:
    def test_zero_when_saturated(self):
        assert closures(0.5, SILT).capacity == 0.0
        assert np.all(closures(np.array([1e-9, 2.0]), CLAY).capacity == 0.0)

    def test_golden_value(self):
        assert_allclose(closures(-1.0, SILT).capacity, 0.037634176564700102,
                        rtol=1e-14)

    @pytest.mark.parametrize("soil", [CLAY, SILT, SANDY])
    def test_matches_theta_derivative(self, soil):
        """c is the exact derivative of theta; central differences agree."""
        rng = np.random.default_rng(42)
        psi = -np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 64))
        step = 1e-7 * np.maximum(1.0, np.abs(psi))
        fd = (closures(psi + step, soil).theta
              - closures(psi - step, soil).theta) / (2 * step)
        error = np.max(np.abs(closures(psi, soil).capacity - fd))
        assert error <= 1e-6 * peak_capacity(soil)

    @pytest.mark.parametrize("soil", [CLAY, SILT, SANDY])
    def test_max_capacity_dominates(self, soil):
        psi = -np.geomspace(1e-8, 1e4, 400)
        assert np.all(closures(psi, soil).capacity
                      <= peak_capacity(soil) * (1 + 1e-12))


class TestConductivity:
    def test_saturated_branch(self):
        # printed spot value: K(0.5 m) for the clay equals K_s
        assert closures(0.5, CLAY).hydraulic_conductivity == CLAY.k_s

    def test_golden_values(self):
        # the Mualem bracket cancels ~4 digits for the clay exponents, so
        # float64 evaluation order costs ~1e-12 relative against the 50
        # digit oracle values
        assert_allclose(closures(-2.0, SILT).hydraulic_conductivity,
                        1.2822123577066742e-9, rtol=1e-12)
        assert_allclose(closures(-3.0, CLAY).hydraulic_conductivity,
                        9.9642378481173442e-16, rtol=1e-11)

    @pytest.mark.parametrize("soil", [CLAY, SILT, SANDY])
    def test_positive_and_bounded(self, soil):
        psi = -np.geomspace(1e-9, 1e3, 200)
        values = closures(psi, soil).hydraulic_conductivity
        assert np.all(values > 0)
        assert np.all(values <= soil.k_s)

    def test_unsaturated_limit_discontinuity(self):
        """The raw water content form jumps at psi = 0 when theta_s < 1.

        The unsaturated branch caps out at K(0-) far below K_s; this is a
        deliberate property of the closure, frozen here so any accidental
        switch to effective saturation shows up as a failure.
        """
        limit = closures(-1e-30, SILT).hydraulic_conductivity
        assert_allclose(limit, 2.8456073762847091e-9, rtol=1e-12)
        assert limit < 0.005 * SILT.k_s

    def test_continuous_for_full_porosity(self):
        # sandy loam has theta_s = 1, so the jump closes
        near = closures(-1e-10, SANDY).hydraulic_conductivity
        assert_allclose(near, SANDY.k_s, rtol=1e-6)


class TestConductivityDerivative:
    def test_zero_when_saturated(self):
        assert closures(0.2, SILT).conductivity_derivative == 0.0

    def test_golden_values(self):
        assert_allclose(closures(-2.0, SILT).conductivity_derivative,
                        7.6948286644365845e-10, rtol=1e-10)
        assert_allclose(closures(-3.0, CLAY).conductivity_derivative,
                        2.2998321090026103e-16, rtol=1e-10)
        # near saturation the sandy derivative stays finite and smooth
        assert_allclose(closures(-1e-6, SANDY).conductivity_derivative,
                        0.0020749318411032816, rtol=1e-9)
        assert_allclose(closures(-1e-9, SANDY).conductivity_derivative,
                        0.0020750709439197628, rtol=1e-9)

    @pytest.mark.parametrize("soil", [CLAY, SILT, SANDY])
    def test_matches_finite_difference(self, soil):
        # the step balances truncation against the cancellation noise of
        # the K evaluation itself (~1e-12 relative for clay)
        rng = np.random.default_rng(7)
        psi = -np.exp(rng.uniform(np.log(1e-2), np.log(30.0), 32))
        step = 3e-5 * np.abs(psi)
        fd = (closures(psi + step, soil).hydraulic_conductivity
              - closures(psi - step, soil).hydraulic_conductivity) / (2 * step)
        values = closures(psi, soil).conductivity_derivative
        assert_allclose(values, fd, rtol=2e-4, atol=1e-30)


BLEND = MaterialField(SILT, CLAY, center_x=1.0, steepness=4.0)


class TestValidation:
    def test_rejects_bad_parameters(self):
        good = dict(alpha=0.4, n=2.0, theta_r=0.1, theta_s=0.4, k_s=1e-6)
        for field, value in [("alpha", 0.0), ("n", 1.0), ("theta_r", 0.5),
                             ("theta_s", 1.5), ("k_s", -1.0)]:
            with pytest.raises(ValueError):
                VanGenuchtenParams(**{**good, field: value})
        for field in good:
            with pytest.raises(ValueError):
                VanGenuchtenParams(**{**good, field: np.nan})
        # an infinite alpha or n gives NaN theta and K, an infinite k_s NaN K
        for field in ("alpha", "n", "k_s"):
            with pytest.raises(ValueError, match="finite"):
                VanGenuchtenParams(**{**good, field: np.inf})

    @pytest.mark.parametrize("steepness", [0.0, -1.0, np.nan, np.inf])
    def test_blend_rejects_bad_steepness(self, steepness):
        with pytest.raises(ValueError,
                           match="steepness must be positive and finite"):
            MaterialField(SILT, CLAY, 1.0, steepness)

    def test_blend_rejects_nan_center(self):
        with pytest.raises(ValueError, match="center_x finite"):
            MaterialField(SILT, CLAY, np.nan, 4.0)


class TestMaterialField:
    def test_homogeneous_ignores_position(self):
        field = MaterialField(SILT)
        a = field.at(np.array([0.0, 1.0, 5.0]))
        psi = np.array([-1.0, -1.0, -1.0])
        assert_allclose(a.at_heads(psi).theta, closures(-1.0, SILT).theta)

    @pytest.mark.parametrize("soil", sorted(SOIL_PRESETS))
    def test_homogeneous_params_equal_full_bitwise(self, soil):
        # a homogeneous field blends its soil with itself at weight 0
        p = SOIL_PRESETS[soil]
        x = np.linspace(-1.0, 3.0, 7)
        params = MaterialField(p).at(x)
        for name in ("alpha", "n", "theta_r", "theta_s", "k_s"):
            want = np.full(x.shape, getattr(p, name))
            assert same_bits(getattr(params, name), want), name

    @staticmethod
    def weight(x):
        """beta(x), read back from k_s = (1 - beta) k_left + beta k_right."""
        return (BLEND.at(x).k_s - SILT.k_s) / (CLAY.k_s - SILT.k_s)

    def test_blend_weight_golden(self):
        assert_allclose(self.weight(2.0), 0.99966464986953352, rtol=1e-14)

    def test_blend_saturates_far_from_center(self):
        """steepness * offset >= 15 puts the blend within 1e-12 of a pure
        soil on either side."""
        offset = 15.0 / 4.0
        assert self.weight(1.0 - offset) < 1e-12
        assert self.weight(1.0 + offset) > 1 - 1e-12

    def test_blend_endpoints_recover_presets(self):
        far_left = BLEND.at(-100.0)
        far_right = BLEND.at(100.0)
        assert_allclose(far_left.k_s, SILT.k_s, rtol=1e-12)
        assert_allclose(far_right.k_s, CLAY.k_s, rtol=1e-12)
        assert_allclose(far_left.n, SILT.n, rtol=1e-12)
        assert_allclose(far_right.alpha, CLAY.alpha, rtol=1e-12)

    def test_blend_midpoint_averages(self):
        mid = BLEND.at(1.0)
        assert_allclose(mid.k_s, 0.5 * (SILT.k_s + CLAY.k_s), rtol=1e-12)


# The closures as written before the shared evaluator, kept verbatim as the
# oracle of its bit for bit equality.
def oracle_theta(psi, p):
    psi = np.asarray(psi, dtype=float)
    x = p.alpha * np.abs(psi)
    with np.errstate(over="ignore"):
        saturation = (1.0 + x ** p.n) ** (-(p.n - 1.0) / p.n)
    value = p.theta_r + (p.theta_s - p.theta_r) * saturation
    return np.where(psi > 0.0, p.theta_s, value)


def oracle_capacity(psi, p):
    psi = np.asarray(psi, dtype=float)
    x = p.alpha * np.abs(psi)
    n = p.n
    with np.errstate(over="ignore", invalid="ignore"):
        value = (p.alpha * (p.theta_s - p.theta_r) * (n - 1.0)
                 * x ** (n - 1.0) * (1.0 + x ** n) ** (1.0 / n - 2.0))
    value = np.where(np.isfinite(value), value, 0.0)
    return np.where(psi > 0.0, 0.0, value)


def oracle_conductivity(psi, p):
    psi = np.asarray(psi, dtype=float)
    wc = np.asarray(oracle_theta(np.minimum(psi, 0.0), p))
    pore = p.n / (p.n - 1.0)
    bracket = 1.0 - (1.0 - wc ** pore) ** (1.0 / pore)
    value = p.k_s * np.sqrt(wc) * bracket ** 2
    return np.where(psi > 0.0, p.k_s, value)


def oracle_conductivity_derivative(psi, p):
    psi = np.asarray(psi, dtype=float)
    wet = np.minimum(psi, 0.0)
    x = p.alpha * np.abs(wet)
    n = p.n
    pore = n / (n - 1.0)
    m = 1.0 / pore
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_base = np.log1p(x ** n)
        wet_deficit = -np.expm1(-m * log_base)
        one_minus_theta = ((1.0 - p.theta_s)
                           + (p.theta_s - p.theta_r) * wet_deficit)
        wc = p.theta_s - (p.theta_s - p.theta_r) * wet_deficit
        one_minus_tp = -np.expm1(pore * np.log1p(-one_minus_theta))
        bracket = 1.0 - one_minus_tp ** m
        dk_dtheta = p.k_s * (
            bracket ** 2 / (2.0 * np.sqrt(wc))
            + 2.0 * np.sqrt(wc) * bracket
            * wc ** (pore - 1.0) * one_minus_tp ** (m - 1.0))
        value = dk_dtheta * np.asarray(oracle_capacity(wet, p))
    value = np.where(np.isfinite(value), value, 0.0)
    return np.where(psi >= 0.0, 0.0, value)


ORACLES = {"theta": oracle_theta, "capacity": oracle_capacity,
           "hydraulic_conductivity": oracle_conductivity,
           "conductivity_derivative": oracle_conductivity_derivative}

# 10,000 log-spaced dry heads, 10,201 across the saturation kink, signed
# zeros, overflow-level and subnormal magnitudes: 20,207 heads
HEADS = np.concatenate([-np.geomspace(1e-6, 1e3, 10_000),
                        np.linspace(-5.0, 5.0, 10_201),
                        [0.0, -0.0, 1e300, -1e300, 1e-320, -1e-320]])
FIELDS = {"silt-loam": MaterialField(SILT),
          "beit-netofa-clay": MaterialField(CLAY),
          "sandy-loam": MaterialField(SANDY),
          "blended": BLEND}


def same_bits(got, want) -> bool:
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got.view(np.uint8), want.view(np.uint8)))


class TestEvaluator:
    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_bound_matches_oracle_bitwise(self, name):
        # per point parameter arrays, as the solver binds them
        x = np.linspace(-1.0, 3.0, HEADS.size)
        params = FIELDS[name].at(x)
        soil = params.at_heads(HEADS)
        for closure, oracle in ORACLES.items():
            assert same_bits(getattr(soil, closure), oracle(HEADS, params)), \
                closure

    @pytest.mark.parametrize("soil", sorted(SOIL_PRESETS))
    def test_scalar_parameters_match_oracle_bitwise(self, soil):
        # scalar parameters take numpy's scalar-exponent fast paths
        # (sandy loam has n = 2), which the oracle takes as well
        p = SOIL_PRESETS[soil]
        for closure, oracle in ORACLES.items():
            got = getattr(closures(HEADS, p), closure)
            assert same_bits(got, oracle(HEADS, p)), closure
            for head in (-3.0, -1e-9, 0.0, 0.4):
                assert same_bits(getattr(closures(head, p), closure),
                                 oracle(head, p)), closure

    def test_values_do_not_depend_on_evaluation_order(self):
        x = np.linspace(0.0, 2.0, HEADS.size)
        first = BLEND.at(x).at_heads(HEADS)
        derivative = first.conductivity_derivative
        second = BLEND.at(x).at_heads(HEADS)
        assert same_bits(second.conductivity_derivative, derivative)
        assert same_bits(first.capacity, second.capacity)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_capacity_and_derivative_finite_for_any_head(self, name):
        """c and K' end in a finite mask, so the Jacobian needs no check of
        its own; NaN heads still reach theta and K, whose check stays."""
        heads = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, -1.0])
        soil = FIELDS[name].at(np.linspace(0.0, 2.0, heads.size)).at_heads(
            heads)
        assert np.all(np.isfinite(soil.capacity))
        assert np.all(np.isfinite(soil.conductivity_derivative))
        assert np.isnan(soil.theta[0])
        assert np.isnan(soil.hydraulic_conductivity[0])
        assert np.all(np.isfinite(soil.theta[1:]))
        assert np.all(np.isfinite(soil.hydraulic_conductivity[1:]))
