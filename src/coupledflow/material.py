"""Van Genuchten / Mualem soil hydraulics and spatially varying material fields.

All functions work in SI units (meters, seconds) and accept scalars or numpy
arrays for the pressure head ``psi``; scalar input gives scalar output.  The
closures are:

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


def _unwrap(value: np.ndarray):
    """Return a scalar for 0-d arrays, the array itself otherwise."""
    return value[()]


def theta(psi, p: VanGenuchtenParams):
    """Volumetric water content theta(psi)."""
    psi = np.asarray(psi, dtype=float)
    x = p.alpha * np.abs(psi)
    with np.errstate(over="ignore"):
        saturation = (1.0 + x ** p.n) ** (-(p.n - 1.0) / p.n)
    value = p.theta_r + (p.theta_s - p.theta_r) * saturation
    return _unwrap(np.where(psi > 0.0, p.theta_s, value))


def capacity(psi, p: VanGenuchtenParams):
    """Specific moisture capacity c(psi) = d theta / d psi [1/m]."""
    psi = np.asarray(psi, dtype=float)
    x = p.alpha * np.abs(psi)
    n = p.n
    with np.errstate(over="ignore", invalid="ignore"):
        value = (p.alpha * (p.theta_s - p.theta_r) * (n - 1.0)
                 * x ** (n - 1.0) * (1.0 + x ** n) ** (1.0 / n - 2.0))
    # inf * 0 between the two factors only occurs at overflow-level |psi|,
    # where the true capacity has long underflowed.
    value = np.where(np.isfinite(value), value, 0.0)
    return _unwrap(np.where(psi > 0.0, 0.0, value))


def hydraulic_conductivity(psi, p: VanGenuchtenParams):
    """Hydraulic conductivity K(psi) [m/s]."""
    psi = np.asarray(psi, dtype=float)
    wc = np.asarray(theta(np.minimum(psi, 0.0), p))
    pore = p.n / (p.n - 1.0)
    bracket = 1.0 - (1.0 - wc ** pore) ** (1.0 / pore)
    value = p.k_s * np.sqrt(wc) * bracket ** 2
    return _unwrap(np.where(psi > 0.0, p.k_s, value))


def conductivity_derivative(psi, p: VanGenuchtenParams):
    """One sided derivative dK/dpsi, taken as 0 for psi >= 0.

    Evaluated as dK/dtheta * c(psi).  The factor
    (1 - theta^(n/(n-1)))^((n-1)/n - 1) degenerates as theta -> 1, so the
    complement 1 - theta^(n/(n-1)) is built from expm1/log1p to keep it exact
    down to the underflow threshold; its product with the vanishing capacity
    then stays finite on approach to saturation (for n = 2 the one sided limit
    is nonzero).
    """
    psi = np.asarray(psi, dtype=float)
    wet = np.minimum(psi, 0.0)
    x = p.alpha * np.abs(wet)
    n = p.n
    pore = n / (n - 1.0)
    m = 1.0 / pore
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_base = np.log1p(x ** n)
        # 1 - theta assembled from positive parts, no cancellation near
        # saturation.
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
        value = dk_dtheta * np.asarray(capacity(wet, p))
    value = np.where(np.isfinite(value), value, 0.0)
    return _unwrap(np.where(psi >= 0.0, 0.0, value))


def max_capacity(p: VanGenuchtenParams) -> float:
    """Largest capacity value, reached where (alpha*|psi|)^n = (n-1)/n."""
    return float(capacity(-((p.n - 1.0) / p.n) ** (1.0 / p.n) / p.alpha, p))


class _BoundMaterial:
    """Hydraulic closures with per point parameters baked in."""

    def __init__(self, p: VanGenuchtenParams):
        self.params = p

    def theta(self, psi):
        return theta(psi, self.params)

    def capacity(self, psi):
        return capacity(psi, self.params)

    def hydraulic_conductivity(self, psi):
        return hydraulic_conductivity(psi, self.params)

    def conductivity_derivative(self, psi):
        return conductivity_derivative(psi, self.params)


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
        return _unwrap(np.zeros_like(x))
    return _unwrap((np.tanh(f.steepness * (x - f.center_x)) + 1.0) / 2.0)


def params_at(x, f: MaterialField) -> VanGenuchtenParams:
    """Parameter set at position x (array valued fields for array input)."""
    if not f.is_blended:
        if np.ndim(x) == 0:
            return f.left
        shape = np.shape(np.asarray(x, dtype=float))
        return VanGenuchtenParams(
            *(np.full(shape, getattr(f.left, name))
              for name in ("alpha", "n", "theta_r", "theta_s", "k_s")))
    beta = blend_weight(x, f)

    def blend(a, b):
        return (1.0 - beta) * a + beta * b

    return VanGenuchtenParams(
        alpha=blend(f.left.alpha, f.right.alpha),
        n=blend(f.left.n, f.right.n),
        theta_r=blend(f.left.theta_r, f.right.theta_r),
        theta_s=blend(f.left.theta_s, f.right.theta_s),
        k_s=blend(f.left.k_s, f.right.k_s))
