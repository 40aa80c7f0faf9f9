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
The interior matrix is factored once per run (LAPACK dpttrf in build_system)
and each sweep back-substitutes (dpttrs): the arithmetic of a dptsv solve.
Both come from scipy's compiled _flapack, loaded without scipy.linalg.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from ._compiled import extension
from .analysis import (AnalysisResult, LinearModelParams, discrete_S, sigma,
                       toeplitz_coeffs)
from .iteration import fixed_point, observed_cr

_flapack = extension("scipy.linalg._flapack")
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


@dataclass(frozen=True)
class Linear1DSystem:
    """Assembled one step system plus the previous step state.

    The coupling column of the full system has exactly one nonzero entry,
    equal to ``off_diag``, in the last interior slot; the interface diagonal
    block is ``diag / 2``; ``rhs_old`` is M_II psi_I_old + M_IG psi_G_old.
    ``factor`` is dpttrf's ``(d, e, info)``, None for one interior unknown:
    dpttrf rejects the empty off-diagonal of a 1x1 system.
    """

    params: LinearModelParams
    diag: float
    off_diag: float
    psi_interior_old: np.ndarray
    psi_gamma_old: float
    factor: tuple[np.ndarray, np.ndarray, int] | None
    rhs_old: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        c_dz = self.params.c * self.params.dz
        rhs = 2.0 / 3.0 * c_dz * self.psi_interior_old
        rhs[1:] += c_dz / 6.0 * self.psi_interior_old[:-1]
        rhs[:-1] += c_dz / 6.0 * self.psi_interior_old[1:]
        rhs[-1] += c_dz / 6.0 * self.psi_gamma_old
        object.__setattr__(self, "rhs_old", rhs)

    @property
    def num_interior(self) -> int:
        return self.params.num_elements - 1

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
    factor = dpttrf(np.full(n, a), np.full(n - 1, b)) if n > 1 else None
    return Linear1DSystem(params=p, diag=a, off_diag=b,
                          psi_interior_old=psi_interior_old,
                          psi_gamma_old=float(psi_gamma_old), factor=factor)


def subsurface_solve(sys: Linear1DSystem,
                     psi_gamma_prev_iter: float) -> np.ndarray:
    """Solve the interior tridiagonal system for a frozen interface value."""
    rhs = sys.rhs_old.copy()
    rhs[-1] -= sys.off_diag * psi_gamma_prev_iter
    if not np.isfinite(rhs).all():
        raise ValueError("interior right-hand side must be finite")
    if sys.num_interior == 1:
        # dpttrf rejects the empty off-diagonal of a 1x1 system
        if sys.diag <= 0.0:
            raise ValueError("interior matrix is not positive definite")
        solution = rhs / sys.diag
    else:
        d, e, info = sys.factor
        if info > 0:
            raise ValueError("interior matrix is not positive definite")
        solution = dpttrs(d, e, rhs)[0]
    residual = sys.diag * solution - rhs
    residual[1:] += sys.off_diag * solution[:-1]
    residual[:-1] += sys.off_diag * solution[1:]
    # backward stable solves guarantee residual ~ eps |A| |x|, not eps |rhs|
    scale = max(np.abs(rhs).max(initial=0.0),
                (abs(sys.diag) + 2.0 * abs(sys.off_diag))
                * np.abs(solution).max(initial=0.0))
    if np.abs(residual).max(initial=0.0) > 1e-12 * scale:
        raise RuntimeError("banded solve failed its residual check")
    return solution


def surface_update(sys: Linear1DSystem, psi_interior_new: np.ndarray,
                   psi_gamma_prev_iter: float) -> float:
    """Interface height proposed by the discrete surface equation."""
    p = sys.params
    c_dz = p.c * p.dz
    return float(
        -sys.off_diag * psi_interior_new[-1]
        - sys.diag / 2.0 * psi_gamma_prev_iter
        + c_dz / 6.0 * sys.psi_interior_old[-1]
        + (1.0 + c_dz / 3.0) * sys.psi_gamma_old
        - p.dt * p.k)


def run_time_step(sys: Linear1DSystem, omega: float, tol: float = 1e-8,
                  max_iters: int = 200) -> StepResult:
    """Relaxed coupling iterations for one time step.

    Starts from the previous interface value, sweeps subsurface then surface,
    relaxes, and stops once |psi_G_tilde - psi_G_prev| < tol.  Running out of
    iterations is reported as a non converged result carrying the residual
    history, not as an exception: divergent settings are a legitimate region
    of parameter space.
    """
    psi_interior = sys.psi_interior_old

    def sweep(psi_gamma: float) -> float:
        nonlocal psi_interior
        psi_interior = subsurface_solve(sys, psi_gamma)
        return surface_update(sys, psi_interior, psi_gamma)

    # the iterate is a Python float; abs keeps numpy calls out of the loop
    psi_gamma, iterates, residuals = fixed_point(
        sweep, sys.psi_gamma_old, omega, tol, max_iters, abs)
    return StepResult(psi_gamma=psi_gamma, psi_interior=psi_interior,
                      iterates=np.asarray(iterates), iterations=len(residuals),
                      residuals=np.asarray(residuals),
                      converged=residuals[-1] < tol, cr=observed_cr(residuals))


def run_simulation(p: LinearModelParams, num_steps: int, tol: float = 1e-8,
                   max_iters: int = 200) -> Linear1DTrace:
    """March num_steps time steps, committing the last accepted iterate."""
    if num_steps < 1:
        raise ValueError("num_steps must be at least 1")
    sys = build_system(p)
    steps: list[StepResult] = []
    for _ in range(num_steps):
        step = run_time_step(sys, p.omega, tol=tol, max_iters=max_iters)
        steps.append(step)
        sys = sys.with_previous_state(step.psi_interior, step.psi_gamma)
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
