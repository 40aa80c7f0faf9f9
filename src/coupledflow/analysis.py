"""Closed form convergence analysis of the relaxed interface iteration.

A vertical soil column with constant capacity c and conductivity K, implicit
Euler in time and linear finite elements in space, coupled to a single surface
height unknown, yields an affine fixed point iteration for the interface
value.  Its contraction behavior is governed by the scalar

    S = b^2 * alpha - a / 2

built from the tridiagonal Toeplitz coefficients

    a = (2/3) c dz + 2 K dt / dz
    b = (1/6) c dz - K dt / dz

and the corner entry of the inverse interior matrix, computed as the
eigenvalue sum

    alpha = (dz / L) * sum_{j=1..M-1} sin^2(j pi dz / L)
                                      / (a/2 - b cos(j pi dz / L)).

With relaxation factor omega the per sweep error reduction is
Sigma(omega) = omega S + 1 - omega, optimal (zero) at omega_opt = 1/(1 - S).

The space continuous, Laplace transformed counterparts are

    rho(s, omega) = 1 - omega - omega sqrt(cK/s) coth(sqrt(cs/K) L)
    omega_opt(s)  = 1 / (1 + sqrt(cK/s) coth(sqrt(cs/K) L))
    h_hat(s)      = -K / (s + sqrt(cK/s) coth(sqrt(cs/K) L))

evaluated with principal branches for complex s with Re(s) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LinearModelParams:
    """Constant coefficient column model parameters.

    Attributes
    ----------
    c : float
        Hydraulic capacity [1/m].
    k : float
        Hydraulic conductivity [m/s].
    length : float
        Column depth L [m].
    dt : float
        Time step [s].
    num_elements : int
        Element count M in [2, 10**6]; the interface carries one extra
        unknown.
    omega : float
        Relaxation factor in (0, 1].
    dz : float
        Grid spacing, derived: length / num_elements.
    """

    c: float
    k: float
    length: float
    dt: float
    num_elements: int
    omega: float = 1.0
    dz: float = field(init=False)

    def __post_init__(self) -> None:
        # the eigenvalue sum and the linear column allocate arrays of
        # length num_elements
        if int(self.num_elements) != self.num_elements \
                or not 2 <= self.num_elements <= 10**6:
            raise ValueError("num_elements must be an integer in [2, 10**6]")
        object.__setattr__(self, "dz", self.length / self.num_elements)
        if not all(0.0 < value < np.inf for value in
                   (self.c, self.k, self.length, self.dt, self.dz)):
            raise ValueError("c, k, length, dt, dz must be positive and finite")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")


@dataclass(frozen=True)
class AnalysisResult:
    """Discrete iteration analysis at one parameter point."""

    a: float
    b: float
    alpha_sum: float
    S: float
    omega_opt: float


def toeplitz_coeffs(p: LinearModelParams) -> tuple[float, float]:
    """Diagonal and off diagonal entries (a, b) of the interior system."""
    a = 2.0 / 3.0 * p.c * p.dz + 2.0 * p.k * p.dt / p.dz
    b = 1.0 / 6.0 * p.c * p.dz - p.k * p.dt / p.dz
    return a, b


def alpha_sum(a: float, b: float, num_elements: int, dz: float,
              length: float) -> float:
    """Corner entry of the inverse interior matrix via the eigenvalue sum."""
    j = np.arange(1, num_elements)
    angles = j * np.pi * dz / length
    denominators = a / 2.0 - b * np.cos(angles)
    if np.any(denominators <= 0.0):
        raise ValueError("interior matrix is not positive definite")
    return float(dz / length * np.sum(np.sin(angles) ** 2 / denominators))


def discrete_S(p: LinearModelParams) -> AnalysisResult:
    """Iteration factor S = b^2 alpha - a/2 and the derived optimum."""
    a, b = toeplitz_coeffs(p)
    # subnormal denominators overflow the sum, huge b overflows b^2
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = alpha_sum(a, b, p.num_elements, p.dz, p.length)
        S = b * b * alpha - a / 2.0
    if not (np.isfinite(alpha) and np.isfinite(S)):
        raise ValueError(f"S = b^2 alpha - a/2 is not finite (alpha = "
                         f"{alpha:g}, S = {S:g}); c, k, dt or dz is out of "
                         f"range")
    return AnalysisResult(a=a, b=b, alpha_sum=alpha, S=S,
                          omega_opt=1.0 / (1.0 - S))


def sigma(omega: float, S: float) -> float:
    """Relaxed per sweep error factor Sigma(omega) = omega S + 1 - omega."""
    return omega * S + 1.0 - omega


def _validate_laplace(s):
    values = np.asarray(s)
    if not np.all(np.isfinite(values)):
        raise ValueError("Laplace variable must be finite")
    if np.any(np.real(values) <= 0.0):
        raise ValueError("Laplace variable must have positive real part")
    if np.iscomplexobj(values):
        return values.astype(complex)
    return values.astype(float)


def _coth(w):
    """coth(w) for Re(w) != 0, saturating to sign(Re(w)) once |w| > 350."""
    saturated = np.where(np.real(w) >= 0.0, 1.0, -1.0)
    inside = np.abs(w) <= 350.0
    safe = np.where(inside, w, 1.0)
    decay = np.exp(-2.0 * safe)
    return np.where(inside, (1.0 + decay) / (1.0 - decay), saturated)


def rho_continuous(s, omega, c: float, k: float, length: float):
    """Laplace domain convergence factor rho(s, omega)."""
    s = _validate_laplace(s)
    feedback = np.sqrt(c * k / s) * _coth(np.sqrt(c * s / k) * length)
    return (1.0 - omega - omega * feedback)[()]


def omega_opt_continuous(s, c: float, k: float, length: float):
    """Relaxation factor that annihilates rho at the given s."""
    s = _validate_laplace(s)
    feedback = np.sqrt(c * k / s) * _coth(np.sqrt(c * s / k) * length)
    return (1.0 / (1.0 + feedback))[()]


def laplace_height(s, c: float, k: float, length: float):
    """Laplace transform of the interface height response."""
    s = _validate_laplace(s)
    feedback = np.sqrt(c * k / s) * _coth(np.sqrt(c * s / k) * length)
    return (-k / (s + feedback))[()]


# ── Parameter sweeps ──────────────────────────────────────────────────────────

SWEEP_COLUMNS = ("c", "K", "dt", "dz", "a", "b", "alpha", "S", "abs_S",
                 "omega_opt")


def default_log_grid(low: float = 1e-3, high: float = 1e3,
                     count: int = 25) -> np.ndarray:
    """Log spaced axis used by the standard sweep maps."""
    return np.geomspace(low, high, count)


def sweep_point(c: float, k: float, dt: float, dz: float,
                length: float) -> dict[str, float]:
    """One sweep row; dz is snapped to the nearest admissible grid spacing."""
    count = length / float(dz)
    if not count < np.inf:
        raise ValueError(f"dz = {dz:g} is too small for length {length:g}")
    num_elements = max(2, round(count))
    p = LinearModelParams(c=c, k=k, length=length, dt=dt,
                          num_elements=num_elements)
    result = discrete_S(p)
    return {"c": c, "K": k, "dt": dt, "dz": p.dz, "a": result.a,
            "b": result.b, "alpha": result.alpha_sum, "S": result.S,
            "abs_S": abs(result.S), "omega_opt": result.omega_opt}


def sweep_material(c_values, k_values, dt: float, dz: float,
                   length: float) -> list[dict[str, float]]:
    """Row major sweep over (c, K) at fixed resolution."""
    return [sweep_point(c, k, dt, dz, length)
            for c in np.asarray(c_values, dtype=float)
            for k in np.asarray(k_values, dtype=float)]


def sweep_resolution(dt_values, dz_values, c: float, k: float,
                     length: float) -> list[dict[str, float]]:
    """Row major sweep over (dt, dz) at fixed material."""
    return [sweep_point(c, k, dt, dz, length)
            for dt in np.asarray(dt_values, dtype=float)
            for dz in np.asarray(dz_values, dtype=float)]
