"""Partitioned, sequential coupling of the subsurface and surface solvers.

The coupled state is one record: the nodal soil heads psi, the surface cell
averages q (rows h, hu for swe, h for kinematic) and the time.  Within each
time step the two solvers exchange interface data in a fixed point loop,
iteration.fixed_point (Gauss-Seidel order, subsurface first):

  1. the surface heights of the previous iterate become Dirichlet head
     values on the soil's top boundary (map_height_to_head),
  2. the subsurface step is solved; its top-edge Darcy flux integrals
     [m^2/s], divided by the cell width, plus the rain rate are the per-cell
     surface source [m/s] (water leaving the soil adds to the surface),
  3. the surface step is solved for a height proposal h_tilde,
  4. the new iterate is the relaxed blend omega*h_tilde + (1-omega)*h_prev,
  5. the loop stops when res = ||h_tilde - h_prev||_2 falls below tol.

The first iterate of step n is the converged height of step n-1; the new
state takes the last sweep's fields with the relaxed height in row 0 of q.
Each step records the residual sequence, the observed contraction rate CR_n
(mean of consecutive residual ratios, defined only when at least three
residuals exist), and a linear-theory predictor: the spatial means c_bar,
K_bar of the capacity and conductivity over all grid nodes are fed into the
vertical interface operator S, giving |S| and an optimal relaxation estimate
1/(1 - S).  Fully saturated fields make c_bar zero; the predictor then
substitutes a 1e-30 guard so the linear model stays evaluable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import LinearModelParams, discrete_S
from .iteration import fixed_point, observed_cr
from .richards2d import DirichletData, Grid2D, RichardsWorkspace, top_dirichlet
from .surface1d import SurfaceModel, implicit_fv_step


@dataclass(eq=False)
class CoupledProblem:
    """Geometry, materials, forcing and coupling controls of one scenario.

    Rain falls at rain_rate [m/s] until rain_cutoff; omega, tol and
    max_iters control the fixed point loop, dt, num_steps and output_every
    the time stepping.
    """

    grid: Grid2D
    material: object
    surface_model: SurfaceModel
    static_dirichlet: DirichletData | None = None
    rain_rate: float = 0.0
    rain_cutoff: float = float("inf")
    omega: float = 1.0
    tol: float = 1e-8
    max_iters: int = 100
    dt: float = 36.0
    num_steps: int = 300
    output_every: int = 10
    workspace: RichardsWorkspace = field(init=False)
    node_material: object = field(init=False)
    dirichlet: DirichletData = field(init=False)

    def __post_init__(self) -> None:
        if not (self.rain_rate >= 0.0 and self.rain_cutoff >= 0.0):
            raise ValueError("rain rate and cutoff must be nonnegative")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        if self.tol <= 0.0 or self.dt <= 0.0:
            raise ValueError("tol and dt must be positive")
        if self.max_iters < 1 or self.num_steps < 1 or self.output_every < 1:
            raise ValueError("iteration and step counts must be positive")
        if self.grid.num_z < 2:
            raise ValueError("num_z must be at least 2: the contraction "
                             "predictor's column needs two elements")
        self.workspace = RichardsWorkspace(self.grid, self.material)
        self.node_material = self.material.at(self.grid.node_coords()[0])
        # every sweep's node set: top row, then static nodes (kept off it)
        self.dirichlet = top_dirichlet(self.grid, 0.0)
        if self.static_dirichlet is not None:
            self.dirichlet = self.dirichlet.merged_with(self.static_dirichlet)

    def rain_at(self, time: float) -> float:
        # implicit stepping samples sources at the end of the step; keep the
        # step that lands exactly on the cutoff inside the rainy window
        return self.rain_rate if time <= self.rain_cutoff * (1.0 + 1e-12) \
            else 0.0


@dataclass(frozen=True)
class CoupledState:
    """Nodal soil heads psi and surface cell averages q at one time."""

    psi: np.ndarray
    q: np.ndarray
    time: float


@dataclass(frozen=True)
class PredictedFactors:
    c_bar: float
    k_bar: float
    abs_s: float
    omega_opt: float


@dataclass(frozen=True)
class StepRecord:
    """Trace data of one coupled time step.

    line_search_failures counts the Richards and surface Newton iterations,
    over all coupling iterations, whose line search never lowered the
    residual norm; the last, smallest trial step was taken regardless.
    """

    step: int
    time: float
    iterations: int
    converged: bool
    residuals: tuple[float, ...]
    cr: float | None
    predicted: PredictedFactors
    newton_iterations: int
    clamped_volume: float
    line_search_failures: int


class CouplingDivergedError(RuntimeError):
    """Fixed point loop hit max_iters; carries the residual history."""

    def __init__(self, step: int, residuals: tuple[float, ...]):
        super().__init__(
            f"coupling iteration did not converge in step {step} "
            f"({len(residuals)} iterations, last residual "
            f"{residuals[-1]:.3e})")
        self.step = step
        self.residuals = residuals


def map_height_to_head(h_cells: np.ndarray) -> np.ndarray:
    """Nodal top-boundary head values from cell heights.

    Interior nodes average the two adjacent cells, end nodes copy the
    single adjacent cell.
    """
    h_cells = np.asarray(h_cells, dtype=float)
    if h_cells.ndim != 1 or h_cells.size < 1:
        raise ValueError("need a 1d array of at least one cell")
    nodes = np.empty(h_cells.size + 1)
    nodes[0] = h_cells[0]
    nodes[-1] = h_cells[-1]
    nodes[1:-1] = 0.5 * (h_cells[:-1] + h_cells[1:])
    return nodes


def predict_S(psi: np.ndarray, grid: Grid2D, node_material,
              dt: float) -> PredictedFactors:
    """Linear-theory contraction estimate from spatial coefficient means of
    node_material, the material bound at the grid nodes, at the heads psi."""
    soil = node_material.at_heads(psi)
    c_bar = float(np.mean(soil.capacity))
    k_bar = float(np.mean(soil.hydraulic_conductivity))
    params = LinearModelParams(c=max(c_bar, 1e-30), k=k_bar,
                               length=grid.length_z, dt=dt,
                               num_elements=grid.num_z)
    result = discrete_S(params)
    return PredictedFactors(c_bar=c_bar, k_bar=k_bar, abs_s=abs(result.S),
                            omega_opt=result.omega_opt)


def run_coupled_step(problem: CoupledProblem, state: CoupledState,
                     ) -> tuple[CoupledState, StepRecord]:
    """Advance the coupled system by one time step."""
    step = int(round(state.time / problem.dt)) + 1
    time_new = state.time + problem.dt
    rain_rate = problem.rain_at(time_new)
    theta_old_qp = problem.workspace.theta_at_qp(state.psi)
    psi_new, q_new = state.psi, state.q
    newton_iters, clamped, failures = 0, 0.0, 0

    def sweep(h_iter: np.ndarray) -> np.ndarray:
        nonlocal psi_new, q_new, newton_iters, clamped, failures
        values = problem.dirichlet.values.copy()
        values[:h_iter.size + 1] = map_height_to_head(h_iter)
        dirichlet = problem.dirichlet.with_values(values)
        # warm start from the previous sweep's field
        psi_new, newton_report = problem.workspace.newton_step(
            psi_new, theta_old_qp, problem.dt, dirichlet)
        source = (problem.workspace.interface_flux(psi_new)
                  / problem.grid.dx + rain_rate)
        q_new, surf_report, clamped_volume = implicit_fv_step(
            state.q, source, problem.dt, problem.grid.dx,
            problem.surface_model)
        newton_iters += newton_report.iterations
        clamped += clamped_volume
        failures += (newton_report.line_search_failures
                     + surf_report.line_search_failures)
        return q_new[0]

    h_new, _, residuals = fixed_point(sweep, state.q[0], problem.omega,
                                      problem.tol, problem.max_iters,
                                      np.linalg.norm)
    if not residuals[-1] < problem.tol:
        raise CouplingDivergedError(step, tuple(residuals))

    # every sweep returns a fresh q, so this leaves state.q alone
    q_new[0] = h_new
    predicted = predict_S(psi_new, problem.grid, problem.node_material,
                          problem.dt)
    record = StepRecord(step=step, time=time_new, iterations=len(residuals),
                        converged=True, residuals=tuple(residuals),
                        cr=observed_cr(residuals), predicted=predicted,
                        newton_iterations=newton_iters,
                        clamped_volume=clamped, line_search_failures=failures)
    return CoupledState(psi=psi_new, q=q_new, time=time_new), record


@dataclass(frozen=True)
class SimulationResult:
    records: tuple[StepRecord, ...]
    snapshots: tuple[tuple[int, CoupledState], ...]


def run_simulation(problem: CoupledProblem,
                   initial: CoupledState) -> SimulationResult:
    """March num_steps coupled steps, keeping periodic state snapshots."""
    state = initial
    records = []
    snapshots = [(0, state)]
    for step in range(1, problem.num_steps + 1):
        state, record = run_coupled_step(problem, state)
        records.append(record)
        if step % problem.output_every == 0 or step == problem.num_steps:
            snapshots.append((step, state))
    return SimulationResult(records=tuple(records),
                            snapshots=tuple(snapshots))


def time_averaged_cr(records, exclude_above: float | None = None,
                     ) -> tuple[float | None, int]:
    """Mean of the defined CR_n values and the count of undefined ones.

    Steps whose CR exceeds exclude_above are left out of the mean (manual
    outlier control); they do not count as undefined.
    """
    defined = [r.cr for r in records if r.cr is not None]
    undefined_count = sum(1 for r in records if r.cr is None)
    if exclude_above is not None:
        defined = [value for value in defined if value <= exclude_above]
    if not defined:
        return None, undefined_count
    return float(np.mean(defined)), undefined_count


TRACE_COLUMNS = ("n", "t", "K_n", "res_first", "res_last", "CR_n",
                 "c_bar", "K_bar", "abs_S_pred", "omega_opt_pred")


def trace_rows(records) -> list[dict]:
    rows = []
    for r in records:
        rows.append({
            "n": r.step, "t": r.time, "K_n": r.iterations,
            "res_first": r.residuals[0], "res_last": r.residuals[-1],
            "CR_n": "" if r.cr is None else r.cr,
            "c_bar": r.predicted.c_bar, "K_bar": r.predicted.k_bar,
            "abs_S_pred": r.predicted.abs_s,
            "omega_opt_pred": r.predicted.omega_opt,
        })
    return rows


SUMMARY_COLUMNS = ("scenario", "CR", "undefined_count")


def summary_row(scenario_id: str, records,
                exclude_above: float | None = None) -> dict:
    average, undefined_count = time_averaged_cr(records, exclude_above)
    return {"scenario": scenario_id,
            "CR": "" if average is None else average,
            "undefined_count": undefined_count}
