"""One-dimensional surface flow by an implicit finite volume method.

Two flavors of the surface water balance are provided on a uniform grid of
cells:

  swe        full shallow water equations for q = (h, hu), with flux
             f(q) = (hu, h u^2 + g h^2 / 2) and no bathymetry or friction
             terms in the momentum equation,
  kinematic  height only, q = (h,), with the velocity tied to the depth by
             Manning's formula u = sqrt(S_f) / n_M * h^(2/3) and flux
             f = sign * h u directed along the fall line.

Interface fluxes use the local Lax-Friedrichs form

    F = (f(q_L) + f(q_R)) / 2 - lambda_max (q_R - q_L) / 2

with lambda_max the larger absolute characteristic speed of the two states
(|u| + sqrt(g h) for swe, (5/3) u for the kinematic wave).  Each time step
solves the implicit Euler balance

    q_l = q_l_old - (dt/dx) (F_l - F_{l-1}) + dt b_l,     b = (s + r, 0),

by the shared damped Newton (iteration.damped_newton); sources enter the
height component only.  The dense finite difference Jacobian comes from one
residual call on the batch of all column-bumped states, and each residual
takes every face flux from one LLF call on the state padded with a ghost
cell per side.  After the solve, depths below H_FLOOR are raised to H_FLOOR
and the added volume is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .iteration import damped_newton

H_FLOOR = 1e-12


@dataclass(frozen=True)
class SurfaceModel:
    """Flavor and physical constants of the surface solver.

    manning_n is in SI units (m^(1/3) s).  flow_sign fixes the direction of
    the kinematic flux: +1 sends water toward growing x, -1 toward x = 0.
    """

    flavor: str
    gravity: float = 9.81
    manning_n: float | None = None
    friction_slope: float | None = None
    flow_sign: float = 1.0

    def __post_init__(self) -> None:
        if self.flavor not in ("swe", "kinematic"):
            raise ValueError(f"unknown surface flavor {self.flavor!r}")
        if self.flavor == "kinematic":
            if self.manning_n is None or self.friction_slope is None:
                raise ValueError("kinematic model needs manning_n and "
                                 "friction_slope")
            if self.manning_n <= 0.0 or self.friction_slope <= 0.0:
                raise ValueError("manning_n and friction_slope must be "
                                 "positive")
        if self.flavor == "swe" and self.gravity <= 0.0:
            raise ValueError("gravity must be positive")
        if self.flow_sign not in (-1.0, 1.0):
            raise ValueError("flow_sign must be +1 or -1")

    @property
    def num_components(self) -> int:
        return 2 if self.flavor == "swe" else 1

    def manning_speed(self, h) -> np.ndarray:
        """Manning velocity magnitude for the kinematic flavor."""
        h = np.asarray(h, dtype=float)
        return (np.sqrt(self.friction_slope) / self.manning_n
                * np.maximum(h, 0.0) ** (2.0 / 3.0))


@dataclass(frozen=True)
class SurfaceState:
    """Cell averages at one time level; hu is None for the kinematic model."""

    h: np.ndarray
    hu: np.ndarray | None = None
    time: float = 0.0

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if self.hu is not None:
            hu = np.asarray(self.hu, dtype=float)
            if hu.shape != h.shape:
                raise ValueError("h and hu must have the same shape")
            object.__setattr__(self, "hu", hu)

    @property
    def num_cells(self) -> int:
        return self.h.size

    def as_vector(self, model: SurfaceModel) -> np.ndarray:
        if model.flavor == "swe":
            if self.hu is None:
                raise ValueError("swe state needs hu")
            return np.stack([self.h, self.hu])
        return self.h[None, :]


def state_from_vector(q: np.ndarray, model: SurfaceModel,
                      time: float = 0.0) -> SurfaceState:
    if model.flavor == "swe":
        return SurfaceState(h=q[0].copy(), hu=q[1].copy(), time=time)
    return SurfaceState(h=q[0].copy(), time=time)


@dataclass(frozen=True)
class SurfaceSource:
    """Height-equation source terms: soil exchange s and rainfall r [m/s]."""

    exchange: np.ndarray | float
    rain: float = 0.0

    def total(self, num_cells: int) -> np.ndarray:
        exchange = np.broadcast_to(np.asarray(self.exchange, dtype=float),
                                   (num_cells,))
        return exchange + self.rain


def _as_states(q, model: SurfaceModel) -> np.ndarray:
    """Coerce a single state or a batch to shape (num_components, M)."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 1:
        q = q.reshape(model.num_components, -1)
    if q.shape[0] != model.num_components:
        raise ValueError(f"state needs {model.num_components} components")
    return q


def _flux_and_speed(q: np.ndarray, model: SurfaceModel,
                    ) -> tuple[np.ndarray, np.ndarray]:
    # Newton trial states may dip below zero; clamping h keeps f defined
    h = np.maximum(q[0], 0.0)
    if model.flavor == "swe":
        hu = q[1]
        u = np.where(h > 0.0, hu / np.maximum(h, 1e-300), 0.0)
        return (np.stack([hu, hu * u + 0.5 * model.gravity * h * h]),
                np.abs(u) + np.sqrt(model.gravity * h))
    speed = model.manning_speed(h)
    return (model.flow_sign * h * speed)[None], 5.0 / 3.0 * speed


def llf_flux(q_left, q_right, model: SurfaceModel) -> np.ndarray:
    """Local Lax-Friedrichs interface flux between two states."""
    q_left = _as_states(q_left, model)
    q_right = _as_states(q_right, model)
    flux_left, speed_left = _flux_and_speed(q_left, model)
    flux_right, speed_right = _flux_and_speed(q_right, model)
    speed = np.maximum(speed_left, speed_right)
    return 0.5 * (flux_left + flux_right) - 0.5 * speed * (q_right - q_left)


# Boundary kinds:
#   copy     zero-gradient ghost (outflow / homogeneous Neumann)
#   reflect  mirrored h with negated hu (a zero-discharge wall; the LLF mass
#            flux through it cancels exactly); zero face flux for kinematic
_BOUNDARY_KINDS = ("copy", "reflect")


@dataclass(frozen=True)
class BoundarySpec:
    left: str = "copy"
    right: str = "copy"

    def __post_init__(self) -> None:
        for side in (self.left, self.right):
            if side not in _BOUNDARY_KINDS:
                raise ValueError(f"unknown boundary kind {side!r}")


def _face_fluxes(q: np.ndarray, boundary: BoundarySpec,
                 model: SurfaceModel) -> np.ndarray:
    """All num_cells + 1 face fluxes of q with shape (n_comp, ..., cells)."""
    padded = np.concatenate([q[..., :1], q, q[..., -1:]], axis=-1)
    walls = [end for kind, end in ((boundary.left, 0), (boundary.right, -1))
             if kind == "reflect"]
    if model.flavor == "swe":
        padded[1, ..., walls] = -padded[1, ..., walls]
    faces = llf_flux(padded[..., :-1], padded[..., 1:], model)
    if model.flavor == "kinematic":
        faces[..., walls] = 0.0
    return faces


@dataclass(frozen=True)
class SurfaceStepReport:
    iterations: int
    residual_norm: float
    clamped_cells: int
    clamped_volume: float
    line_search_failures: int


def _step_residual(flat: np.ndarray, q_old: np.ndarray, total_source,
                   dt: float, dx: float, boundary: BoundarySpec,
                   model: SurfaceModel) -> np.ndarray:
    """Residual of one flat state, or of each row of a (B, size) batch."""
    q = flat.reshape(-1, *q_old.shape).swapaxes(0, 1)
    faces = _face_fluxes(q, boundary, model)
    residual = q - q_old[:, None] + dt / dx * (faces[..., 1:]
                                               - faces[..., :-1])
    residual[0] -= dt * total_source
    return residual.swapaxes(0, 1).reshape(flat.shape)


def implicit_fv_step(state_old: SurfaceState, sources: SurfaceSource,
                     dt: float, dx: float, model: SurfaceModel,
                     boundary: BoundarySpec,
                     ) -> tuple[SurfaceState, SurfaceStepReport]:
    """Advance one implicit Euler step of the FV scheme."""
    if dt <= 0.0 or dx <= 0.0:
        raise ValueError("dt and dx must be positive")
    q_old = state_old.as_vector(model)
    if not np.all(np.isfinite(q_old)):
        raise ValueError("previous state contains non-finite values")
    total = sources.total(state_old.num_cells)
    if not np.all(np.isfinite(total)):
        raise ValueError("sources contain non-finite values")

    flat = q_old.ravel().copy()
    scale = max(1.0, np.max(np.abs(flat)))

    def residual(trial: np.ndarray) -> np.ndarray:
        return _step_residual(trial, q_old, total, dt, dx, boundary, model)

    def direction(point: np.ndarray, res: np.ndarray) -> np.ndarray:
        eps = 1e-8 * np.maximum(1.0, np.abs(point))
        bumped = np.tile(point, (point.size, 1))
        bumped[np.diag_indices(point.size)] += eps
        jacobian = ((residual(bumped) - res) / eps[:, None]).T
        return np.linalg.solve(jacobian, -res)

    flat, newton = damped_newton(residual, direction, flat,
                                 lambda norm0: 1e-13 * scale, 30, 20,
                                 accept=1e-12 * scale)
    q_new = flat.reshape(q_old.shape)
    low = q_new[0] < H_FLOOR
    clamped_volume = float(np.sum((H_FLOOR - q_new[0][low]) * dx))
    q_new[0][low] = H_FLOOR
    report = SurfaceStepReport(
        iterations=newton.iterations, residual_norm=newton.residual_norm,
        clamped_cells=int(np.count_nonzero(low)),
        clamped_volume=clamped_volume,
        line_search_failures=newton.line_search_failures)
    return state_from_vector(q_new, model, time=state_old.time + dt), report


def outflow_probe(state: SurfaceState, model: SurfaceModel) -> dict:
    """Left-boundary depth, speed and discharge; outflow counted positive."""
    h0 = float(state.h[0])
    if model.flavor == "swe":
        u0 = float(state.hu[0] / h0) if h0 > 0.0 else 0.0
    else:
        u0 = float(model.manning_speed(h0))
    return {"t": state.time, "h0": h0, "u0": abs(u0), "q_out": h0 * abs(u0)}


PROBE_COLUMNS = ("t", "h0", "u0", "q_out")
