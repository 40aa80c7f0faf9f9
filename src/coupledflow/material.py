"""Van Genuchten / Mualem soil hydraulics and spatially varying material fields.

A soil is one scalar ``VanGenuchtenParams``; ``MaterialField`` is the one
field type, homogeneous when its ``right`` soil is None and tanh blended
otherwise.  Each closure is written once, as an attribute of the evaluator
that ``MaterialField.at(x).at_heads(psi)`` returns: theta and K at
construction, c and K' on first use, all from the shared x = alpha*|psi| and
x^n and from parameter factors fixed per binding; scalar psi gives 0-d
arrays.  Units are SI (meters, seconds).  The closures (van Genuchten 1980,
Mualem 1976) are:

    water content   theta(psi) = theta_r + (theta_s - theta_r)
                                 * (1 / (1 + (alpha*|psi|)^n))^((n-1)/n)   psi <= 0
                    theta(psi) = theta_s                                   psi > 0

    capacity        c(psi) = alpha * (theta_s - theta_r) * (n - 1)
                             * (alpha*|psi|)^(n-1)
                             * (1 + (alpha*|psi|)^n)^(1/n - 2)             psi <= 0
                    c(psi) = 0                                             psi > 0

    conductivity    K(psi) = K_s * sqrt(theta)
                             * (1 - (1 - theta^(n/(n-1)))^((n-1)/n))^2     psi <= 0
                    K(psi) = K_s                                           psi > 0

c is the exact derivative of theta with respect to psi.  Note that K takes the
raw water content, not the rescaled effective saturation; for soils with
theta_s < 1 this makes K jump at psi = 0 (K(0-) < K_s).  That form is kept
deliberately, and the "sandy-loam" preset with theta_s = 1 is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class VanGenuchtenParams:
    """Parameter set of one soil.

    Attributes
    ----------
    alpha : float
        Inverse capillary length scale [1/m].
    n : float
        Pore size distribution exponent, must exceed 1.
    theta_r : float
        Residual volumetric water content.
    theta_s : float
        Saturated volumetric water content.
    k_s : float
        Saturated hydraulic conductivity [m/s].
    """

    alpha: float
    n: float
    theta_r: float
    theta_s: float
    k_s: float

    def __post_init__(self) -> None:
        # each test is written so that NaN fails it
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 1.0 < self.n < np.inf:
            raise ValueError("n must exceed 1 and be finite")
        if not 0.0 <= self.theta_r < self.theta_s:
            raise ValueError("need 0 <= theta_r < theta_s")
        if not self.theta_s <= 1.0:
            raise ValueError("theta_s must not exceed 1")
        if not 0.0 < self.k_s < np.inf:
            raise ValueError("k_s must be positive and finite")


#: Soils selectable by string key in the bundled scenarios.  The sandy loam
#: preset carries the largest of its three conductivity variants; runs wanting
#: the slower ones override k_s.
SOIL_PRESETS: dict[str, VanGenuchtenParams] = {
    "beit-netofa-clay": VanGenuchtenParams(
        alpha=0.152, n=1.17, theta_r=0.0, theta_s=0.446, k_s=9.49e-9),
    "silt-loam": VanGenuchtenParams(
        alpha=0.423, n=2.06, theta_r=0.131, theta_s=0.396, k_s=5.74e-7),
    "sandy-loam": VanGenuchtenParams(
        alpha=100.0, n=2.0, theta_r=0.2, theta_s=1.0, k_s=1.16e-5),
}


class _BoundMaterial:
    """Parameters at fixed positions with the closures' parameter-only
    factors."""

    def __init__(self, alpha, n, theta_r, theta_s, k_s):
        self.alpha, self.n, self.k_s = alpha, n, k_s
        self.theta_r, self.theta_s = theta_r, theta_s
        self.span, self.dry = theta_s - theta_r, 1.0 - theta_s
        self.n_minus_one, self.saturation_exponent = n - 1.0, -(n - 1.0) / n
        self.pore = n / (n - 1.0)
        self.m = 1.0 / self.pore
        self.pore_minus_one, self.m_minus_one = self.pore - 1.0, self.m - 1.0
        self.capacity_prefix = alpha * self.span * (n - 1.0)
        self.capacity_exponent = 1.0 / n - 2.0

    def at_heads(self, psi) -> "_Closures":
        """The closures at the heads psi (array or scalar, 0-d results)."""
        return _Closures(self, psi)


class _Closures:
    """theta and K at one head field, and c and K' there on first use."""

    def __init__(self, bound: _BoundMaterial, psi):
        self._bound = bound
        self.psi = np.asarray(psi, dtype=float)
        self._wet = self.psi > 0.0
        self._x = bound.alpha * np.abs(self.psi)
        with np.errstate(over="ignore"):
            self._x_n = self._x ** bound.n
        self._base = 1.0 + self._x_n
        wc = bound.theta_r + bound.span * (
            self._base ** bound.saturation_exponent)
        self.theta = np.where(self._wet, bound.theta_s, wc)
        bracket = 1.0 - (1.0 - wc ** bound.pore) ** bound.m
        self.hydraulic_conductivity = np.where(
            self._wet, bound.k_s, bound.k_s * np.sqrt(wc) * bracket ** 2)

    @cached_property
    def capacity(self):
        b = self._bound
        with np.errstate(over="ignore", invalid="ignore"):
            value = (b.capacity_prefix * self._x ** b.n_minus_one
                     * self._base ** b.capacity_exponent)
        # inf * 0 between the two factors only occurs at overflow-level
        # |psi|, where the true capacity has long underflowed.
        value = np.where(np.isfinite(value), value, 0.0)
        return np.where(self._wet, 0.0, value)

    @cached_property
    def conductivity_derivative(self):
        """dK/dtheta * c(psi).  (1 - theta^(n/(n-1)))^((n-1)/n - 1)
        degenerates as theta -> 1, so 1 - theta and its power's complement
        are built from expm1/log1p, exact down to the underflow threshold;
        the product with the vanishing c then stays finite on approach to
        saturation (for n = 2 the one sided limit is nonzero)."""
        b = self._bound
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            wet_deficit = -np.expm1(-b.m * np.log1p(self._x_n))
            one_minus_theta = b.dry + b.span * wet_deficit
            wc = b.theta_s - b.span * wet_deficit
            root_wc = np.sqrt(wc)
            one_minus_tp = -np.expm1(b.pore * np.log1p(-one_minus_theta))
            bracket = 1.0 - one_minus_tp ** b.m
            dk_dtheta = b.k_s * (
                bracket ** 2 / (2.0 * root_wc)
                + 2.0 * root_wc * bracket
                * wc ** b.pore_minus_one * one_minus_tp ** b.m_minus_one)
            value = dk_dtheta * self.capacity
        value = np.where(np.isfinite(value), value, 0.0)
        return np.where(self.psi >= 0.0, 0.0, value)


@dataclass(frozen=True)
class MaterialField:
    """Horizontally homogeneous or tanh blended soil distribution.

    ``MaterialField(soil)`` is homogeneous (``right is None``);
    ``MaterialField(left, right, center_x, steepness)`` mixes two soils with
    the weight

        beta(x) = (tanh(steepness * (x - center_x)) + 1) / 2

    applied to every parameter individually.
    """

    left: VanGenuchtenParams
    right: VanGenuchtenParams | None = None
    center_x: float = 0.0
    steepness: float = 0.0

    def __post_init__(self) -> None:
        if self.right is not None and not (0.0 < self.steepness < np.inf
                                           and np.isfinite(self.center_x)):
            raise ValueError("steepness must be positive and finite, "
                             "center_x finite")

    def at(self, x) -> _BoundMaterial:
        """Bind the field to fixed positions for repeated psi evaluations."""
        x = np.asarray(x, dtype=float)
        left, right = self.left, self.right
        if right is None:  # weight 0: exactly the left soil
            right, beta = left, np.zeros_like(x)[()]
        else:
            beta = ((np.tanh(self.steepness * (x - self.center_x)) + 1.0)
                    / 2.0)[()]
        return _BoundMaterial(*((1.0 - beta) * getattr(left, name)
                                + beta * getattr(right, name)
                                for name in ("alpha", "n", "theta_r",
                                             "theta_s", "k_s")))
