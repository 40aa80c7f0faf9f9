"""Van Genuchten / Mualem soil hydraulics and spatially varying material fields.

Each closure is written once, as an attribute of the evaluator that
``MaterialField.at(x).at_heads(psi)`` returns: theta at construction, c, K
and K' on first use, all from the shared x = alpha*|psi| and x^n and from
parameter factors fixed per binding; scalar psi gives 0-d arrays.  Units are
SI (meters, seconds).  The closures (van Genuchten 1980, Mualem 1976) are:

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
        # np.all keeps the checks valid for array-valued fields produced by
        # blended material fields.
        if not np.all(np.asarray(self.alpha) > 0.0):
            raise ValueError("alpha must be positive")
        if not np.all(np.asarray(self.n) > 1.0):
            raise ValueError("n must exceed 1")
        if not (np.all(np.asarray(self.theta_r) >= 0.0)
                and np.all(np.asarray(self.theta_r) < np.asarray(self.theta_s))):
            raise ValueError("need 0 <= theta_r < theta_s")
        if not np.all(np.asarray(self.theta_s) <= 1.0):
            raise ValueError("theta_s must not exceed 1")
        if not np.all(np.asarray(self.k_s) > 0.0):
            raise ValueError("k_s must be positive")


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
    """A parameter set with the closures' parameter-only factors."""

    def __init__(self, p: VanGenuchtenParams):
        n, self.params = p.n, p
        self.span, self.dry = p.theta_s - p.theta_r, 1.0 - p.theta_s
        self.n_minus_one, self.saturation_exponent = n - 1.0, -(n - 1.0) / n
        self.pore = n / (n - 1.0)
        self.m = 1.0 / self.pore
        self.pore_minus_one, self.m_minus_one = self.pore - 1.0, self.m - 1.0
        self.capacity_prefix = p.alpha * self.span * (n - 1.0)
        self.capacity_exponent = 1.0 / n - 2.0

    def at_heads(self, psi) -> "_Closures":
        """The closures at the heads psi (array or scalar, 0-d results)."""
        return _Closures(self, psi)


class _Closures:
    """theta at one head field, and c, K and K' there on first use."""

    def __init__(self, bound: _BoundMaterial, psi):
        p, self._bound = bound.params, bound
        self.psi = np.asarray(psi, dtype=float)
        self._x = p.alpha * np.abs(self.psi)
        with np.errstate(over="ignore"):
            self._x_n = self._x ** p.n
        self._base = 1.0 + self._x_n
        self._wet_theta = p.theta_r + bound.span * (
            self._base ** bound.saturation_exponent)
        self.theta = np.where(self.psi > 0.0, p.theta_s, self._wet_theta)

    @cached_property
    def capacity(self):
        b = self._bound
        with np.errstate(over="ignore", invalid="ignore"):
            value = (b.capacity_prefix * self._x ** b.n_minus_one
                     * self._base ** b.capacity_exponent)
        # inf * 0 between the two factors only occurs at overflow-level
        # |psi|, where the true capacity has long underflowed.
        value = np.where(np.isfinite(value), value, 0.0)
        return np.where(self.psi > 0.0, 0.0, value)

    @cached_property
    def hydraulic_conductivity(self):
        b, wc = self._bound, self._wet_theta
        bracket = 1.0 - (1.0 - wc ** b.pore) ** b.m
        value = b.params.k_s * np.sqrt(wc) * bracket ** 2
        return np.where(self.psi > 0.0, b.params.k_s, value)

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
            wc = b.params.theta_s - b.span * wet_deficit
            one_minus_tp = -np.expm1(b.pore * np.log1p(-one_minus_theta))
            bracket = 1.0 - one_minus_tp ** b.m
            dk_dtheta = b.params.k_s * (
                bracket ** 2 / (2.0 * np.sqrt(wc))
                + 2.0 * np.sqrt(wc) * bracket
                * wc ** b.pore_minus_one * one_minus_tp ** b.m_minus_one)
            value = dk_dtheta * self.capacity
        value = np.where(np.isfinite(value), value, 0.0)
        return np.where(self.psi >= 0.0, 0.0, value)


@dataclass(frozen=True)
class MaterialField:
    """Horizontally homogeneous or tanh blended soil distribution.

    A blended field mixes two parameter sets with the weight

        beta(x) = (tanh(steepness * (x - center_x)) + 1) / 2

    applied to every parameter individually; beta is identically 0 for
    homogeneous fields.
    """

    left: VanGenuchtenParams
    right: VanGenuchtenParams | None = None
    center_x: float = 0.0
    steepness: float = 0.0

    @classmethod
    def homogeneous(cls, p: VanGenuchtenParams) -> "MaterialField":
        return cls(left=p)

    @classmethod
    def blended(cls, left: VanGenuchtenParams, right: VanGenuchtenParams,
                center_x: float, steepness: float) -> "MaterialField":
        if steepness <= 0.0:
            raise ValueError("steepness must be positive")
        return cls(left=left, right=right, center_x=center_x,
                   steepness=steepness)

    @property
    def is_blended(self) -> bool:
        return self.right is not None

    def at(self, x) -> _BoundMaterial:
        """Bind the field to fixed positions for repeated psi evaluations."""
        return _BoundMaterial(params_at(x, self))


def blend_weight(x, f: MaterialField):
    """Mixing weight beta(x) of the right hand soil; 0 for homogeneous fields."""
    x = np.asarray(x, dtype=float)
    if not f.is_blended:
        return np.zeros_like(x)[()]
    return ((np.tanh(f.steepness * (x - f.center_x)) + 1.0) / 2.0)[()]


def params_at(x, f: MaterialField) -> VanGenuchtenParams:
    """Parameter set at position x (array valued fields for array input)."""
    beta = blend_weight(x, f)
    right = f.right if f.is_blended else f.left  # weight 0: exactly f.left

    def blend(a, b):
        return (1.0 - beta) * a + beta * b

    return VanGenuchtenParams(
        alpha=blend(f.left.alpha, right.alpha),
        n=blend(f.left.n, right.n),
        theta_r=blend(f.left.theta_r, right.theta_r),
        theta_s=blend(f.left.theta_s, right.theta_s),
        k_s=blend(f.left.k_s, right.k_s))
