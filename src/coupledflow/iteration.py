"""The shared iterations: the linear testbench and the coupled step run
fixed_point, the Richards and the surface solver run damped_newton.  The
module imports only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fixed_point(sweep, x, omega: float, tol: float, max_iters: int, norm):
    """Relaxed iteration x <- omega sweep(x) + (1 - omega) x.

    Stops once norm(sweep(x) - x) < tol or after max_iters sweeps; returns
    the last iterate and the lists of iterates and residuals.  The caller
    reads convergence off the last residual.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError("omega must lie in (0, 1]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    iterates, residuals = [], []
    for _ in range(max_iters):
        proposal = sweep(x)
        residual = norm(proposal - x)
        x = omega * proposal + (1.0 - omega) * x
        iterates.append(x)
        residuals.append(residual)
        if residual < tol:
            break
    return x, iterates, residuals


def observed_cr(residuals) -> float | None:
    """Mean consecutive residual ratio; None when fewer than 3 iterations."""
    residuals = np.asarray(residuals, dtype=float)
    if residuals.size < 3:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = residuals[1:-1] / residuals[:-2]
    return float(np.mean(ratios))


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    residual_norm: float
    initial_residual_norm: float
    line_search_failures: int


class NewtonError(RuntimeError):
    """Newton did not reach an acceptable residual; carries its last norm."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


def damped_newton(residual, direction, x: np.ndarray, target, max_iters: int,
                  trials: int, accept: float | None = None):
    """Damped Newton for residual(x) = 0 in the max norm; returns x, report.

    The update direction(x, r), always asked for at the x and r of the
    latest residual call, is halved until the norm drops, at most trials
    tries, else the last try is taken as a line search failure.
    Iterates while the norm is finite and above target(initial norm); a
    final norm not within accept (default: the target) raises NewtonError,
    as does a singular direction solve or a FloatingPointError from
    residual (a non-finite trial).
    """
    norm, iterations, failures = np.nan, 0, 0
    try:
        r = residual(x)
        norm = norm0 = np.max(np.abs(r))
        tol = target(norm0)
        while np.isfinite(norm) and not norm <= tol and iterations < max_iters:
            delta = direction(x, r)
            step = 1.0
            for _ in range(trials):
                trial = x + step * delta
                trial_r = residual(trial)
                trial_norm = np.max(np.abs(trial_r))
                if trial_norm < norm:
                    break
                step *= 0.5
            else:
                failures += 1
            x, r, norm = trial, trial_r, trial_norm
            iterations += 1
    except np.linalg.LinAlgError as err:
        raise NewtonError(f"singular Newton system: {err}", float(norm),
                          iterations) from err
    except FloatingPointError as err:
        raise NewtonError(f"non-finite Newton residual: {err}", float(norm),
                          iterations) from err
    accept = tol if accept is None else accept
    if not norm <= accept:
        raise NewtonError(f"Newton stalled at residual {norm:.3e} after "
                          f"{iterations} iterations", float(norm), iterations)
    return x, NewtonReport(iterations, float(norm), float(norm0), failures)
