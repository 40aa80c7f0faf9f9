"""Closed form convergence analysis of the relaxed interface iteration.

A vertical soil column with constant capacity c and conductivity K, implicit
Euler in time and linear finite elements in space, coupled to a single surface
height unknown, yields an affine fixed point iteration for the interface
value.  Its contraction behavior is governed by the scalar

    S = b^2 * alpha - a / 2

built from the tridiagonal Toeplitz coefficients

    a = (2/3) c dz + 2 K dt / dz
    b = (1/6) c dz - K dt / dz

and alpha, the corner entry of the inverse interior matrix.  The paper
writes alpha as the eigenvalue sum

    alpha = (dz / L) * sum_{j=1..M-1} sin^2(j pi dz / L)
                                      / (a/2 - b cos(j pi dz / L)),

which the Chebyshev form of a tridiagonal Toeplitz inverse sums in closed
form.  With q = sqrt(a^2/4 - b^2), taken as the product
sqrt((c dz/2)(c dz/6 + 2 K dt/dz)) that does not cancel, and
w = asinh(q / |b|),

    alpha = (1 - exp(-2(M-1)w)) / ((a/2 + q)(1 - exp(-2Mw)))
    S     = -q coth(M w).

With relaxation factor omega the per sweep error reduction is
Sigma(omega) = omega S + 1 - omega, optimal (zero) at omega_opt = 1/(1 - S).

The space continuous, Laplace transformed counterparts are

    rho(s, omega) = 1 - omega - omega sqrt(cK/s) coth(sqrt(cs/K) L)
    omega_opt(s)  = 1 / (1 + sqrt(cK/s) coth(sqrt(cs/K) L))
    h_hat(s)      = -K / (s + sqrt(cK/s) coth(sqrt(cs/K) L))

evaluated with principal branches for complex s with Re(s) > 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

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
        # the linear column allocates arrays of length num_elements
        if not (float(self.num_elements).is_integer()
                and 2 <= self.num_elements <= 10**6):
            raise ValueError("num_elements must be an integer in [2, 10**6]")
        object.__setattr__(self, "num_elements", int(self.num_elements))
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
    alpha: float
    S: float
    omega_opt: float


def toeplitz_coeffs(p: LinearModelParams) -> tuple[float, float]:
    """Diagonal and off diagonal entries (a, b) of the interior system; p
    needs only c, k, dt and dz, as floats or as arrays of points."""
    a = 2.0 / 3.0 * p.c * p.dz + 2.0 * p.k * p.dt / p.dz
    b = 1.0 / 6.0 * p.c * p.dz - p.k * p.dt / p.dz
    return a, b


def closed_form(p):
    """(a, b, alpha, S) of p, which needs c, k, dt, dz and num_elements as
    floats or as arrays of points; b = 0 gives alpha = 1/a, S = -a/2."""
    a, b = toeplitz_coeffs(p)
    m = p.num_elements
    cdz = p.c * p.dz
    q = np.sqrt(cdz / 2.0 * (cdz / 6.0 + 2.0 * p.k * p.dt / p.dz))
    w = np.arcsinh(q / np.abs(b))
    alpha = np.expm1(-2.0 * (m - 1) * w) \
        / ((a / 2.0 + q) * np.expm1(-2.0 * m * w))
    return a, b, alpha, -q / np.tanh(m * w)


def alpha_sum(a: float, b: float, num_elements: int, dz: float,
              length: float) -> float:
    """alpha as the paper's eigenvalue sum, which closed_form sums."""
    angles = np.arange(1, num_elements) * np.pi * dz / length
    denominators = a / 2.0 - b * np.cos(angles)
    if np.any(denominators <= 0.0):
        raise ValueError("interior matrix is not positive definite")
    return float(dz / length * np.sum(np.sin(angles) ** 2 / denominators))


def discrete_S(p: LinearModelParams) -> AnalysisResult:
    """Iteration factor S = b^2 alpha - a/2 and the derived optimum."""
    # b = 0 divides by zero; subnormal c and k make alpha 0/0, huge ones
    # overflow q
    with np.errstate(all="ignore"):
        a, b, alpha, S = closed_form(p)
    alpha, S = float(alpha), float(S)
    if not (math.isfinite(alpha) and math.isfinite(S)):
        raise ValueError(f"S = b^2 alpha - a/2 is not finite (alpha = "
                         f"{alpha:g}, S = {S:g}); c, k, dt or dz is out of "
                         f"range")
    return AnalysisResult(a=a, b=b, alpha=alpha, S=S,
                          omega_opt=1.0 / (1.0 - S))


def sigma(omega: float, S: float) -> float:
    """Relaxed per sweep error factor Sigma(omega) = omega S + 1 - omega."""
    return omega * S + 1.0 - omega


def _coth(w):
    """coth(w) for Re(w) != 0, saturating to sign(Re(w)) once |w| > 350."""
    saturated = np.where(np.real(w) >= 0.0, 1.0, -1.0)
    inside = np.abs(w) <= 350.0
    safe = np.where(inside, w, 1.0)
    decay = np.exp(-2.0 * safe)
    return np.where(inside, (1.0 + decay) / (1.0 - decay), saturated)


def _feedback(s, c: float, k: float, length: float):
    """The checked s as a float or complex array, and the column's feedback
    sqrt(cK/s) coth(sqrt(cs/K) L) at it."""
    s = np.asarray(s)
    if not np.all(np.isfinite(s)):
        raise ValueError("Laplace variable must be finite")
    if np.any(np.real(s) <= 0.0):
        raise ValueError("Laplace variable must have positive real part")
    s = s.astype(complex if np.iscomplexobj(s) else float)
    return s, np.sqrt(c * k / s) * _coth(np.sqrt(c * s / k) * length)


def rho_continuous(s, omega, c: float, k: float, length: float):
    """Laplace domain convergence factor rho(s, omega)."""
    _, feedback = _feedback(s, c, k, length)
    return (1.0 - omega - omega * feedback)[()]


def omega_opt_continuous(s, c: float, k: float, length: float):
    """Relaxation factor that annihilates rho at the given s."""
    _, feedback = _feedback(s, c, k, length)
    return (1.0 / (1.0 + feedback))[()]


def laplace_height(s, c: float, k: float, length: float):
    """Laplace transform of the interface height response."""
    s, feedback = _feedback(s, c, k, length)
    return (-k / (s + feedback))[()]


# ── Parameter sweeps ──────────────────────────────────────────────────────────

SWEEP_COLUMNS = ("c", "K", "dt", "dz", "a", "b", "alpha", "S", "abs_S",
                 "omega_opt")
# Points per sweep_point call: the sweep's working arrays keep this size
# however large the grid.
SWEEP_CHUNK = 1 << 14


def default_log_grid(low: float = 1e-3, high: float = 1e3,
                     count: int = 25) -> np.ndarray:
    """Log spaced axis used by the standard sweep maps."""
    return np.geomspace(low, high, count)


def _check_point(c: float, k: float, dt: float, dz: float,
                 length: float) -> None:
    """The checks of one sweep point in order; raises at the first failing."""
    count = length / float(dz)
    if not count < np.inf:
        raise ValueError(f"dz = {dz:g} is too small for length {length:g}")
    discrete_S(LinearModelParams(c=c, k=k, length=length, dt=dt,
                                 num_elements=max(2, round(count))))


def sweep_point(c: np.ndarray, k: np.ndarray, dt: np.ndarray, dz: np.ndarray,
                length: float) -> dict[str, np.ndarray]:
    """The SWEEP_COLUMNS of the points (c[i], k[i], dt[i], dz[i]) as arrays.

    Each dz is snapped to the nearest admissible grid spacing, length / M
    with M = max(2, round(length / dz)).  Every value is the one discrete_S
    gives for its point alone, so the first failing point in order raises
    the ValueError discrete_S raises for it.
    """
    with np.errstate(all="ignore"):
        count = length / dz
        elements = np.maximum(2.0, np.rint(count))  # half to even, as round
        points = SimpleNamespace(c=c, k=k, dt=dt, dz=length / elements,
                                 num_elements=elements)
        a, b, alpha, S = closed_form(points)
        omega_opt = 1.0 / (1.0 - S)
    passed = (count < np.inf) & (elements <= 10**6) & (0.0 < length < np.inf) \
        & np.isfinite(alpha) & np.isfinite(S)
    for value in (c, k, dt, points.dz):
        passed &= (0.0 < value) & (value < np.inf)
    if not passed.all():
        i = np.argmin(passed)
        _check_point(c[i], k[i], dt[i], dz[i], length)
        raise AssertionError("a failing sweep point passed its checks")
    return {"c": c, "K": k, "dt": dt, "dz": points.dz, "a": a, "b": b,
            "alpha": alpha, "S": S, "abs_S": np.abs(S),
            "omega_opt": omega_opt}


def sweep(c_axis, k_axis, dt_axis, dz_axis,
          length: float) -> Iterator[dict[str, float]]:
    """Row major sweep over the product of the c, K, dt and dz axes.

    Every point is computed and checked, SWEEP_CHUNK at a time, before this
    returns, and only the last chunk is kept: the others are computed again
    (sweep_point is deterministic) as their rows are read, one at a time.
    """
    axes = [np.array(axis, dtype=float, ndmin=1)
            for axis in (c_axis, k_axis, dt_axis, dz_axis)]
    shape = [axis.size for axis in axes]
    total = math.prod(shape)
    starts = range(0, total, SWEEP_CHUNK)

    def chunk(start: int) -> dict[str, np.ndarray]:
        indices = np.unravel_index(
            np.arange(start, min(start + SWEEP_CHUNK, total)), shape)
        return sweep_point(
            *(axis[index] for axis, index in zip(axes, indices)), length)

    for start in starts:
        last = chunk(start)

    def rows() -> Iterator[dict[str, float]]:
        for start in starts:
            columns = last if start == starts[-1] else chunk(start)
            for row in zip(*(columns[name].tolist()
                             for name in SWEEP_COLUMNS)):
                yield dict(zip(SWEEP_COLUMNS, row))
    return rows()
