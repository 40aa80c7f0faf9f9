"""Fully discrete linearized column model and its relaxed coupling iteration.

The subsurface column (constant capacity c, conductivity K, implicit Euler,
linear finite elements on M equal cells) is condensed onto its M - 1 interior
unknowns; the surface is a single height unknown attached to the top node.
One coupling sweep solves the interior system for a frozen interface value
and then updates the interface through the discrete flux balance:

    (M_II + dt A_II) psi_I  = -(M_IG + dt A_IG) psi_G_prev
                              + M_II psi_I_old + M_IG psi_G_old

    psi_G_tilde = -(M_GI + dt A_GI) psi_I - (M_GG + dt A_GG) psi_G_prev
                  + M_GI psi_I_old + (1 + M_GG) psi_G_old - dt K

where the interior matrix is the symmetric tridiagonal Toeplitz matrix with
diagonal a and off diagonal b from the analysis module, the coupling vector
is (0, ..., 0, b), and M_GG + dt A_GG = a / 2.  Under relaxation omega the
interface map is affine with slope Sigma(omega) = omega S + 1 - omega, which
is what the testbench demonstrates through iteration.fixed_point.
The interior matrix is factored once per run (LAPACK dpttrf in build_system,
which is also where a matrix that is not positive definite is rejected).  A
sweep finishes only dpttrs's last row, the rows above eliminated once per
step.  After the sweeps, run_time_step recovers the step's solves in order,
in blocks of at most SWEEP_CHUNK elements (or one solve), one dpttrs each
(subsurface_solve), and checks each block (check_solves).  Both come from
scipy's compiled _flapack.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from ._compiled import extension
from .analysis import (SWEEP_CHUNK, AnalysisResult, LinearModelParams,
                       discrete_S, sigma, toeplitz_coeffs)
from .iteration import fixed_point, observed_cr

_flapack = extension("scipy.linalg._flapack")
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


class NonFiniteError(ValueError):
    """A right-hand side is not finite: a non-finite input, or an iterate
    that overflowed."""


@dataclass(frozen=True)
class Linear1DSystem:
    """Assembled one step system plus the previous step state.

    The coupling column of the full system has exactly one nonzero entry,
    equal to ``off_diag``, in the last interior slot; the interface diagonal
    block is ``diag / 2``; ``rhs_old`` is M_II psi_I_old + M_IG psi_G_old.
    ``factor`` is dpttrf's ``(d, e, info)``, None for one interior unknown:
    dpttrf rejects the empty off-diagonal of a 1x1 system.  A non-finite
    ``rhs_old`` raises NonFiniteError.
    """

    params: LinearModelParams
    diag: float
    off_diag: float
    psi_interior_old: np.ndarray
    psi_gamma_old: float
    factor: tuple[np.ndarray, np.ndarray, int] | None
    rhs_old: np.ndarray = field(init=False)
    last_row: tuple[float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        c_dz = self.params.c * self.params.dz
        rhs = 2.0 / 3.0 * c_dz * self.psi_interior_old
        rhs[1:] += c_dz / 6.0 * self.psi_interior_old[:-1]
        rhs[:-1] += c_dz / 6.0 * self.psi_interior_old[1:]
        rhs[-1] += c_dz / 6.0 * self.psi_gamma_old
        if not np.isfinite(rhs).all():
            raise NonFiniteError("interior right-hand side must be finite")
        object.__setattr__(self, "rhs_old", rhs)
        # what last_unknown reads: rhs_old[-1], y e[-1] and the pivot, where
        # y, row M-2 eliminated, ends dpttrs of rows 1..M-2 with pivot 1 (an
        # unread e entry at 1x1); a zero pivot, a corrupt factor, reads NaN
        above, pivot = 0.0, self.diag
        if self.factor is not None:
            d, e, _ = self.factor
            lead = np.append(d[:-2], 1.0)
            y = dpttrs(lead, e[:max(e.size - 1, 1)], rhs[:-1])[0][-1]
            above, pivot = float(y * e[-1]), float(d[-1]) or math.nan
        object.__setattr__(self, "last_row", (rhs.item(-1), above, pivot))

    @property
    def num_interior(self) -> int:
        return self.params.num_elements - 1

    def last_unknown(self, psi_gamma_prev_iter: float) -> float:
        """subsurface_solve(self, psi_gamma_prev_iter)[-1] bit for bit, as
        dptts2 does its last row; a non-finite rhs raises NonFiniteError."""
        rhs, above, pivot = self.last_row
        rhs -= self.off_diag * psi_gamma_prev_iter
        if not math.isfinite(rhs):
            raise NonFiniteError("interior right-hand side must be finite")
        return (rhs - above) / pivot

    def with_previous_state(self, psi_interior: np.ndarray,
                            psi_gamma: float) -> "Linear1DSystem":
        return replace(self, psi_interior_old=np.asarray(psi_interior, float),
                       psi_gamma_old=float(psi_gamma))


@dataclass(frozen=True)
class StepResult:
    """Outcome of the coupling iteration for one time step."""

    psi_gamma: float
    psi_interior: np.ndarray
    iterates: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    cr: float | None


@dataclass(frozen=True)
class Linear1DTrace:
    """Per step iteration records of a multi step run."""

    params: LinearModelParams
    analysis: AnalysisResult
    steps: list[StepResult]

    @property
    def diverged(self) -> bool:
        return any(not step.converged for step in self.steps)


def initial_state(p: LinearModelParams) -> tuple[np.ndarray, float]:
    """Initial data: psi(z) = 1 - z/L at interior nodes, zero at the interface.

    Nodes sit at z_i = i dz measured from the eliminated bottom boundary, so
    the sampled profile is continuous with the zero interface value.
    """
    i = np.arange(1, p.num_elements)
    return 1.0 - i * p.dz / p.length, 0.0


def build_system(p: LinearModelParams,
                 psi_interior_old: np.ndarray | None = None,
                 psi_gamma_old: float | None = None) -> Linear1DSystem:
    """Assemble the one step system; defaults to the standard initial data."""
    if psi_interior_old is None or psi_gamma_old is None:
        default_interior, default_gamma = initial_state(p)
        psi_interior_old = (default_interior if psi_interior_old is None
                            else psi_interior_old)
        psi_gamma_old = (default_gamma if psi_gamma_old is None
                         else psi_gamma_old)
    psi_interior_old = np.asarray(psi_interior_old, dtype=float)
    if psi_interior_old.shape != (p.num_elements - 1,):
        raise ValueError("previous interior state has the wrong length")
    a, b = toeplitz_coeffs(p)
    n = p.num_elements - 1
    if n > 1:
        factor = dpttrf(np.full(n, a), np.full(n - 1, b))
        indefinite = factor[2] > 0
    else:  # dpttrf rejects the empty off-diagonal of a 1x1 system
        factor, indefinite = None, a <= 0.0
    # the one definiteness test: the sweeps trust the factor
    if indefinite:
        raise ValueError("interior matrix is not positive definite")
    return Linear1DSystem(params=p, diag=a, off_diag=b,
                          psi_interior_old=psi_interior_old,
                          psi_gamma_old=float(psi_gamma_old), factor=factor)


def subsurface_solve(sys: Linear1DSystem,
                     psi_gammas: float | Sequence[float]) -> np.ndarray:
    """Solve the interior system for each frozen interface value, one row
    each (1d for a float), in one dpttrs; check_solves checks them."""
    gammas = np.asarray(psi_gammas, dtype=float)
    rhs = np.empty(gammas.shape + sys.rhs_old.shape)
    rhs[...] = sys.rhs_old
    rhs[..., -1] -= sys.off_diag * gammas
    if sys.factor is None:
        return rhs / sys.diag
    d, e, _ = sys.factor
    return dpttrs(d, e, rhs.T, overwrite_b=1)[0].T  # rhs.T is Fortran-ordered


def check_solves(sys: Linear1DSystem, psi_gammas: Sequence[float],
                 solutions: Sequence[np.ndarray]) -> None:
    """Residual check of subsurface_solve's solutions for the given frozen
    interface values, row by row in one pass; any failure raises, a
    non-finite solution included."""
    x = np.asarray(solutions, dtype=float).reshape(-1, sys.num_interior)
    x_max = np.abs(x).max(axis=1, initial=0.0)
    # a max that is NaN fails too; tested first, as inf - inf would warn
    if not x_max.max(initial=0.0) < math.inf:
        raise RuntimeError("banded solve failed its residual check")
    rhs = np.empty_like(x)
    rhs[:] = sys.rhs_old
    rhs[:, -1] -= sys.off_diag * np.array(psi_gammas, dtype=float)
    coupled = sys.off_diag * x
    residual = sys.diag * x - rhs
    residual[:, 1:] += coupled[:, :-1]
    residual[:, :-1] += coupled[:, 1:]
    # backward stable solves guarantee residual ~ eps |A| |x|, not eps |rhs|
    scale = np.maximum(np.abs(rhs).max(axis=1, initial=0.0),
                       (abs(sys.diag) + 2.0 * abs(sys.off_diag)) * x_max)
    # written so that a NaN residual or scale fails
    if not (np.abs(residual).max(axis=1, initial=0.0) <= 1e-12 * scale).all():
        raise RuntimeError("banded solve failed its residual check")


def surface_update(sys: Linear1DSystem, psi_last: float,
                   psi_gamma_prev_iter: float) -> float:
    """Interface height proposed by the discrete surface equation."""
    p = sys.params
    c_dz = p.c * p.dz
    # Python floats throughout: item() keeps numpy scalars out of the sum
    return (-sys.off_diag * psi_last - sys.diag / 2.0 * psi_gamma_prev_iter
            + c_dz / 6.0 * sys.psi_interior_old.item(-1)
            + (1.0 + c_dz / 3.0) * sys.psi_gamma_old - p.dt * p.k)


def run_time_step(sys: Linear1DSystem, omega: float, tol: float = 1e-8,
                  max_iters: int = 200) -> StepResult:
    """Relaxed coupling iterations for one time step.

    Starts from the previous interface value, sweeps subsurface then surface,
    relaxes, and stops once |psi_G_tilde - psi_G_prev| < tol.  Running out of
    iterations is reported as a non converged result carrying the residual
    history, not as an exception: divergent settings are a legitimate region
    of parameter space.  A sweep only records its interface value and last
    unknown; after the sweeps, returned or raised, every solve of the step
    is recovered and checked in order, so the first failing solve decides
    the error.  Blocks of at most SWEEP_CHUNK elements (or one solve) keep a
    long step from holding all of its solutions.
    """
    psi_gammas, lasts = [], []

    def sweep(psi_gamma: float) -> float:
        lasts.append(sys.last_unknown(psi_gamma))
        psi_gammas.append(psi_gamma)
        return surface_update(sys, lasts[-1], psi_gamma)

    try:
        # the iterate is a Python float; abs keeps numpy calls out of the loop
        psi_gamma, iterates, residuals = fixed_point(
            sweep, sys.psi_gamma_old, omega, tol, max_iters, abs)
    finally:
        block = max(1, SWEEP_CHUNK // sys.num_interior)
        for start in range(0, len(lasts), block):
            gammas = psi_gammas[start:start + block]
            solutions = subsurface_solve(sys, gammas)
            solutions[:, -1] = lasts[start:start + block]
            check_solves(sys, gammas, solutions)
    return StepResult(psi_gamma=psi_gamma, psi_interior=solutions[-1].copy(),
                      iterates=np.asarray(iterates), iterations=len(residuals),
                      residuals=np.asarray(residuals),
                      converged=residuals[-1] < tol, cr=observed_cr(residuals))


def run_simulation(p: LinearModelParams, num_steps: int, tol: float = 1e-8,
                   max_iters: int = 200) -> Linear1DTrace:
    """March num_steps time steps, committing the last accepted iterate.

    The initial data are finite, so a non-finite right-hand side means an
    iterate overflowed: NonFiniteError names its step.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be at least 1")
    sys = build_system(p)
    steps: list[StepResult] = []
    for n in range(1, num_steps + 1):
        try:
            step = run_time_step(sys, p.omega, tol=tol, max_iters=max_iters)
            sys = sys.with_previous_state(step.psi_interior, step.psi_gamma)
        except NonFiniteError as exc:
            raise NonFiniteError(f"the iterate overflowed in step {n} "
                                 f"({exc})") from None
        steps.append(step)
    return Linear1DTrace(params=p, analysis=discrete_S(p), steps=steps)


TRACE_COLUMNS = ("n", "k", "psi_gamma", "residual")
SUMMARY_COLUMNS = ("n", "K_n", "CR_n", "S", "sigma_omega")


def trace_rows(trace: Linear1DTrace) -> Iterator[dict]:
    """Per iterate rows (n, k, psi_gamma, residual), 1 based indices, made
    one at a time as they are read."""
    return ({"n": n, "k": k, "psi_gamma": psi, "residual": res}
            for n, step in enumerate(trace.steps, start=1)
            for k, (psi, res) in enumerate(zip(step.iterates.tolist(),
                                               step.residuals.tolist()),
                                           start=1))


def summary_rows(trace: Linear1DTrace) -> list[dict]:
    """Per step rows (n, K_n, CR_n, S, sigma_omega); CR_n empty if undefined."""
    factor = sigma(trace.params.omega, trace.analysis.S)
    return [{"n": n, "K_n": step.iterations,
             "CR_n": step.cr if step.cr is not None else "",
             "S": trace.analysis.S, "sigma_omega": factor}
            for n, step in enumerate(trace.steps, start=1)]
