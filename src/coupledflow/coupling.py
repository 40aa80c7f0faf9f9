"""Partitioned, sequential coupling of the subsurface and surface solvers.

The coupled state is one record: the nodal soil heads psi, the surface cell
averages q (rows h, hu for swe, h for kinematic) and the time.  A step runs
iteration.fixed_point (Gauss-Seidel, subsurface first) on its interface map
StepMap(problem, state), h -> h_tilde, set up once from at_qp(psi_old)
(run_simulation hands on the previous step's last fields, which are that),
the rain rate and the surface StepStart; a call does 1-3, the loop 4-5:

  1. writes the top Dirichlet heads of h (map_height_to_head) over those
     of the head template problem.dirichlet_values; static heads stay,
  2. solves the subsurface step from the fields and free residual the
     previous call returned;
     its top-edge Darcy flux integrals [m^2/s], divided by the cell width,
     plus the rain rate are the per-cell surface source [m/s] (water
     leaving the soil adds to the surface),
  3. solves the surface step from the StepStart for h_tilde = q[0],
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

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .analysis import LinearModelParams, discrete_S
from .iteration import fixed_point, observed_cr
from .richards2d import Grid2D, QuadratureFields, RichardsWorkspace
from .surface1d import StepStart, SurfaceModel, implicit_fv_step


@dataclass(eq=False)
class CoupledProblem:
    """Geometry, materials, forcing and coupling controls of one scenario.

    static_dirichlet is None or a pair (nodes, heads) held fixed off the
    top row.  Rain falls at rain_rate [m/s] until rain_cutoff; omega, tol
    and max_iters control the fixed point loop, dt, num_steps and
    output_every the time stepping.
    """

    grid: Grid2D
    material: object
    surface_model: SurfaceModel
    static_dirichlet: tuple[np.ndarray, np.ndarray] | None = None
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
    dirichlet_values: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.rain_rate < math.inf and self.rain_cutoff >= 0.0):
            raise ValueError("rain rate and cutoff must be nonnegative, the "
                             "rate finite")
        if not 0.0 < self.omega <= 1.0:
            raise ValueError("omega must lie in (0, 1]")
        if not (0.0 < self.tol < math.inf and 0.0 < self.dt < math.inf):
            raise ValueError("tol and dt must be positive and finite")
        for name in ("max_iters", "num_steps", "output_every"):
            count = getattr(self, name)
            if not (float(count).is_integer() and count >= 1):
                raise ValueError(f"{name} must be a whole number >= 1")
            setattr(self, name, int(count))
        if self.grid.num_z < 2:
            raise ValueError("num_z must be at least 2: the contraction "
                             "predictor's column needs two elements")
        # every sweep's node set: top row, then static nodes (kept off it);
        # each sweep writes its top heads over the zeros of the template
        nodes = self.grid.top_node_indices()
        heads = np.zeros(nodes.size)
        if self.static_dirichlet is not None:
            static_nodes, static_heads = map(np.asarray, self.static_dirichlet)
            nodes = np.concatenate([nodes, static_nodes])
            heads = np.concatenate([heads, static_heads])
        if heads.shape != nodes.shape or not np.isfinite(heads).all():
            raise ValueError("Dirichlet heads must be finite, one per node")
        self.workspace = RichardsWorkspace(self.grid, self.material, nodes)
        self.dirichlet_values = heads
        self.node_material = self.material.at(self.grid.node_coords()[0])

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
    c_bar = float(soil.capacity.sum() / soil.capacity.size)
    k_bar = float(soil.hydraulic_conductivity.sum()
                  / soil.hydraulic_conductivity.size)
    params = LinearModelParams(c=max(c_bar, 1e-30), k=k_bar,
                               length=grid.length_z, dt=dt,
                               num_elements=grid.num_z)
    result = discrete_S(params)
    return PredictedFactors(c_bar=c_bar, k_bar=k_bar, abs_s=abs(result.S),
                            omega_opt=result.omega_opt)


class StepMap:
    """The interface map h -> h_tilde of one coupled time step.

    Each call warm-starts the soil step from the previous call's fields and
    free residual and keeps the new ones, a fresh q and the summed counts on
    the map: call copy.copy(step_map) at heights of your own to leave them
    be.  fields, when given, must be at_qp(state.psi).  The free residual is
    the soil's weak residual before its Dirichlet rows are overwritten; it
    sums to the integral of theta - theta_old, the shape functions summing
    to 1.
    """

    def __init__(self, problem: CoupledProblem, state: CoupledState,
                 fields: QuadratureFields | None = None):
        self.problem = problem
        self.time = state.time + problem.dt
        self.rain_rate = problem.rain_at(self.time)
        self.fields = problem.workspace.at_qp(state.psi) if fields is None \
            else fields
        self.theta_old_qp = self.fields.soil.theta
        self.free_residual = None
        self.surface = StepStart(state.q, problem.dt, problem.grid.dx,
                                 problem.surface_model)
        self.q = state.q
        self.newton_iterations, self.clamped_volume = 0, 0.0
        self.line_search_failures = 0

    def __call__(self, h: np.ndarray) -> np.ndarray:
        problem = self.problem
        values = problem.dirichlet_values.copy()
        values[:h.size + 1] = map_height_to_head(h)
        self.fields, self.free_residual, newton_report = \
            problem.workspace.newton_step(self.fields, self.theta_old_qp,
                                          problem.dt, values,
                                          self.free_residual)
        source = (problem.workspace.interface_flux(self.fields.psi)
                  / problem.grid.dx + self.rain_rate)
        self.q, surf_report, clamped = implicit_fv_step(self.surface, source)
        self.newton_iterations += newton_report.iterations
        self.clamped_volume += clamped
        self.line_search_failures += (newton_report.line_search_failures
                                      + surf_report.line_search_failures)
        return self.q[0]


def run_coupled_step(problem: CoupledProblem, state: CoupledState,
                     _fields: list | None = None,
                     ) -> tuple[CoupledState, StepRecord]:
    """Advance the coupled system by one time step.

    run_simulation hands the soil fields from step to step in _fields, a
    one-item list: at_qp(state.psi) or None on entry, the fields at the new
    state's psi on return.
    """
    step = int(round(state.time / problem.dt)) + 1
    step_map = StepMap(problem, state, None if _fields is None else _fields[0])
    h_new, _, residuals = fixed_point(step_map, state.q[0], problem.omega,
                                      problem.tol, problem.max_iters,
                                      lambda r: math.sqrt(r.dot(r)))
    if not residuals[-1] < problem.tol:
        raise CouplingDivergedError(step, tuple(residuals))
    step_map.q[0] = h_new
    psi = step_map.fields.psi
    if _fields is not None:
        _fields[0] = step_map.fields
    predicted = predict_S(psi, problem.grid, problem.node_material, problem.dt)
    record = StepRecord(
        step=step, time=step_map.time, iterations=len(residuals),
        converged=True, residuals=tuple(residuals), cr=observed_cr(residuals),
        predicted=predicted, newton_iterations=step_map.newton_iterations,
        clamped_volume=step_map.clamped_volume,
        line_search_failures=step_map.line_search_failures)
    return CoupledState(psi=psi, q=step_map.q, time=step_map.time), record


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
    fields = [None]
    for step in range(1, problem.num_steps + 1):
        state, record = run_coupled_step(problem, state, _fields=fields)
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


def trace_rows(records) -> Iterator[dict]:
    """One row per step record, made one at a time as they are read."""
    return ({"n": r.step, "t": r.time, "K_n": r.iterations,
             "res_first": r.residuals[0], "res_last": r.residuals[-1],
             "CR_n": "" if r.cr is None else r.cr,
             "c_bar": r.predicted.c_bar, "K_bar": r.predicted.k_bar,
             "abs_S_pred": r.predicted.abs_s,
             "omega_opt_pred": r.predicted.omega_opt} for r in records)


SUMMARY_COLUMNS = ("scenario", "CR", "undefined_count")


def summary_row(scenario_id: str, records,
                exclude_above: float | None = None) -> dict:
    average, undefined_count = time_averaged_cr(records, exclude_above)
    return {"scenario": scenario_id,
            "CR": "" if average is None else average,
            "undefined_count": undefined_count}
