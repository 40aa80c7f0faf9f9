"""One-dimensional surface flow by an implicit finite volume method.

Two flavors of the surface water balance are provided on a uniform grid of
cells.  A state is the array q of cell averages shaped (n_comp, cells), one
row per component:

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

    q_l = q_l_old - (dt/dx) (F_l - F_{l-1}) + dt b_l,     b = (s_l, 0),

by the shared damped Newton (iteration.damped_newton); the source s [m/s]
(soil exchange plus rain, per cell or one scalar) enters the height
component only, and last.  The dense finite difference Jacobian comes from
one residual call on the batch of all column-bumped states; the solves from
one StepStart share the source-free residuals at q_old and its bumps, which
StepStart computes when it is built.  Each residual takes every face flux
from one llf_flux call.  It copies the state into one preallocated array
with a ghost cell per side, of the kinds SurfaceModel.boundary_left and
boundary_right (the reflect ends, SurfaceModel.walls, are found once per
model), and evaluates f and lambda once per cell, writing the rows of f into
one preallocated array; the arithmetic is that of concatenating and
stacking, bit for bit.  After the solve, depths below H_FLOOR are raised to
H_FLOOR; the added volume is returned next to damped_newton's report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .iteration import NewtonReport, damped_newton

H_FLOOR = 1e-12


@dataclass(frozen=True)
class SurfaceModel:
    """Flavor, physical constants and end closures of the surface solver.

    manning_n is in SI units (m^(1/3) s).  flow_sign fixes the direction of
    the kinematic flux: +1 sends water toward growing x, -1 toward x = 0.
    boundary_left (x = 0) and boundary_right each close one end with
      copy     a zero-gradient ghost (outflow / homogeneous Neumann), or
      reflect  mirrored h with negated hu (a zero-discharge wall; the LLF
               mass flux through it cancels exactly); zero face flux for
               kinematic.
    """

    flavor: str
    gravity: float = 9.81
    manning_n: float | None = None
    friction_slope: float | None = None
    flow_sign: float = 1.0
    boundary_left: str = "copy"
    boundary_right: str = "copy"

    def __post_init__(self) -> None:
        if self.flavor not in ("swe", "kinematic"):
            raise ValueError(f"unknown surface flavor {self.flavor!r}")
        if self.flavor == "kinematic":
            if self.manning_n is None or self.friction_slope is None:
                raise ValueError("kinematic model needs manning_n and "
                                 "friction_slope")
            if not (0.0 < self.manning_n < math.inf
                    and 0.0 < self.friction_slope < math.inf):
                raise ValueError("manning_n and friction_slope must be "
                                 "positive and finite")
        if self.flavor == "swe" and not 0.0 < self.gravity < math.inf:
            raise ValueError("gravity must be positive and finite")
        if self.flow_sign not in (-1.0, 1.0):
            raise ValueError("flow_sign must be +1 or -1")
        kinds = (self.boundary_left, self.boundary_right)
        for side in kinds:
            if side not in ("copy", "reflect"):
                raise ValueError(f"unknown boundary kind {side!r}")
        # the ends closed by a reflect wall: 0 for x = 0, -1 for the other
        object.__setattr__(self, "walls", tuple(
            end for kind, end in zip(kinds, (0, -1)) if kind == "reflect"))

    @property
    def num_components(self) -> int:
        """Rows of a state q: (h, hu) for swe, (h,) for kinematic."""
        return 2 if self.flavor == "swe" else 1

    def manning_speed(self, h) -> np.ndarray:
        """Manning velocity magnitude for the kinematic flavor."""
        h = np.asarray(h, dtype=float)
        return (math.sqrt(self.friction_slope) / self.manning_n
                * np.maximum(h, 0.0) ** (2.0 / 3.0))


def _flux_and_speed(q: np.ndarray, model: SurfaceModel,
                    ) -> tuple[np.ndarray, np.ndarray]:
    # Newton trial states may dip below zero; clamping h keeps f defined
    h = np.maximum(q[0], 0.0)
    if model.flavor == "swe":
        hu = q[1]
        u = np.where(h > 0.0, hu / np.maximum(h, 1e-300), 0.0)
        flux = np.empty_like(q)
        flux[0] = hu
        flux[1] = hu * u + 0.5 * model.gravity * h * h
        return flux, np.abs(u) + np.sqrt(model.gravity * h)
    speed = model.manning_speed(h)
    return (model.flow_sign * h * speed)[None], 5.0 / 3.0 * speed


def llf_flux(q: np.ndarray, model: SurfaceModel) -> np.ndarray:
    """Local Lax-Friedrichs fluxes on the cells + 1 faces of q, which is
    shaped (n_comp, ..., cells); a ghost cell per side closes the ends."""
    padded = np.empty((*q.shape[:-1], q.shape[-1] + 2))
    padded[..., 1:-1] = q
    padded[..., 0] = q[..., 0]
    padded[..., -1] = q[..., -1]
    if model.flavor == "swe":
        for end in model.walls:
            padded[1, ..., end] = -padded[1, ..., end]
    flux, speed = _flux_and_speed(padded, model)
    faces = (0.5 * (flux[..., :-1] + flux[..., 1:])
             - 0.5 * np.maximum(speed[..., :-1], speed[..., 1:])
             * (padded[..., 1:] - padded[..., :-1]))
    if model.flavor == "kinematic":
        for end in model.walls:
            faces[..., end] = 0.0
    return faces


class StepStart:
    """The checked start of one surface step and what its solves share."""

    def __init__(self, q_old: np.ndarray, dt: float, dx: float,
                 model: SurfaceModel):
        if not (dt > 0.0 and dx > 0.0):
            raise ValueError("dt and dx must be positive")
        q_old = np.asarray(q_old, dtype=float)
        if q_old.ndim != 2 or len(q_old) != model.num_components:
            raise ValueError("q_old must be shaped (2, cells) for swe, "
                             "(1, cells) for kinematic")
        if not np.isfinite(q_old).all():
            raise ValueError("previous state contains non-finite values")
        self.q_old, self.dt, self.dx, self.model = q_old, dt, dx, model
        self.flat = q_old.ravel()
        self.scale = max(1.0, np.abs(self.flat).max())
        self.at_start = self.free_residual(self.flat)
        self.at_bumps = self.bumps(self.flat)

    def free_residual(self, flat: np.ndarray) -> np.ndarray:
        """q - q_old + dt/dx (F_l - F_{l-1}) of a flat state or (B, size)."""
        q = flat.reshape(-1, *self.q_old.shape).swapaxes(0, 1)
        faces = llf_flux(q, self.model)
        residual = q - self.q_old[:, None] + self.dt / self.dx * (
            faces[..., 1:] - faces[..., :-1])
        return residual.swapaxes(0, 1).reshape(flat.shape)

    def bumps(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sizes eps and free residuals of point's column bumps, by row."""
        eps = 1e-8 * np.maximum(1.0, np.abs(point))
        bumped = point[None].repeat(point.size, axis=0)
        bumped.flat[::point.size + 1] += eps
        return eps, self.free_residual(bumped)


def implicit_fv_step(start: StepStart, source,
                     ) -> tuple[np.ndarray, NewtonReport, float]:
    """Advance start.q_old, shaped (n_comp, cells), by one implicit Euler
    step of the FV scheme into a new array; source is the per-cell height
    source [m/s], an array or a scalar.  Also returns the Newton report and
    the volume [m^2] the H_FLOOR clamp added."""
    source = np.asarray(source, dtype=float)
    if not np.isfinite(source).all():
        raise ValueError("source contains non-finite values")
    # dt * source on the height rows; x - 0.0 is x for every other entry
    shift = np.zeros(start.flat.size)
    shift[:start.q_old.shape[1]] = start.dt * source

    # damped_newton asks first for the residual and direction at start.flat
    def residual(trial: np.ndarray) -> np.ndarray:
        return (start.at_start if trial is start.flat
                else start.free_residual(trial)) - shift

    def direction(x: np.ndarray, res: np.ndarray) -> np.ndarray:
        eps, bumps = start.at_bumps if x is start.flat else start.bumps(x)
        jacobian = ((bumps - shift - res) / eps[:, None]).T
        return np.linalg.solve(jacobian, -res)

    flat, newton = damped_newton(residual, direction, start.flat,
                                 lambda norm0: 1e-13 * start.scale, 30, 20,
                                 accept=1e-12 * start.scale)
    q_new = flat.reshape(start.q_old.shape).copy()  # never q_old itself
    low = q_new[0] < H_FLOOR
    clamped_volume = float(((H_FLOOR - q_new[0][low]) * start.dx).sum())
    q_new[0][low] = H_FLOOR
    return q_new, newton, clamped_volume


def outflow_probe(q: np.ndarray, time: float, model: SurfaceModel) -> dict:
    """Depth, speed and discharge (outflow positive) at the outlet cell."""
    end = -1 if model.flavor == "kinematic" and model.flow_sign > 0 else 0
    h0 = float(q[0, end])
    if model.flavor == "swe":
        u0 = float(q[1, end] / h0) if h0 > 0.0 else 0.0
    else:
        u0 = float(model.manning_speed(h0))
    q_out = 0.0 if end in model.walls else h0 * abs(u0)
    return {"t": time, "h0": h0, "u0": abs(u0), "q_out": q_out}


PROBE_COLUMNS = ("t", "h0", "u0", "q_out")
