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
component only, and last.  After the solve, depths below H_FLOOR are raised
to H_FLOOR; the added volume is returned next to damped_newton's report.

The states have a few cells, where numpy's per-call overhead would be most
of the cost, so the numerics run on Python floats.  llf_flux makes one pass
over a state: the side of each cell (its values, f and lambda) once, then
each face from its two sides; an end face takes a ghost of the kind
SurfaceModel.boundary_left or boundary_right (the reflect ends,
SurfaceModel.walls, are found once per model).  The kinematic Manning speed
h^(2/3) comes from one numpy array call per state and one per Jacobian,
since numpy's array power and math.pow differ in the last bit.  The dense
finite difference Jacobian bumps one unknown at a time, but a bump of cell
c moves only that cell's side and faces c and c + 1: only they and the
rows of cells c - 1 .. c + 1 are recomputed, the other rows of the bumped
residual are the state's own (StepStart.bumps), and StepStart.jacobian
turns the rows into the matrix that numpy's LAPACK gesv solves.  Every
expression keeps the operand order of the numpy evaluation on whole
states, so the result is the same bit for bit.  The solves from one
StepStart share its face pass, free residual and bumps at q_old.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1

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


def _swe_side(h: float, hu: float, gravity: float) -> tuple:
    """The side of one swe cell: (h, hu, hu u + g h^2 / 2, |u| + sqrt(g h));
    its mass flux is hu itself."""
    # Newton trial states may dip below zero; clamping h keeps f defined.
    # As np.maximum(h, 0.0) does: +0.0 for -0.0, NaN kept.
    h0 = 0.0 if h <= 0.0 else h
    u = hu / (h0 if h0 > 1e-300 else 1e-300) if h0 > 0.0 else 0.0
    return (h, hu, hu * u + 0.5 * gravity * h0 * h0,
            abs(u) + math.sqrt(gravity * h0))


def _kinematic_side(h: float, speed: float, flow_sign: float) -> tuple:
    """The side of one kinematic cell of Manning speed u: (h, sign h u,
    (5/3) u)."""
    h0 = 0.0 if h <= 0.0 else h
    return h, flow_sign * h0 * speed, 5.0 / 3.0 * speed


def _swe_face(left: tuple, right: tuple) -> tuple:
    """The LLF flux (mass, momentum) between two swe sides."""
    h_l, hu_l, f_l, s_l = left
    h_r, hu_r, f_r, s_r = right
    half = 0.5 * (s_l if s_l > s_r else s_r)
    return (0.5 * (hu_l + hu_r) - half * (h_r - h_l),
            0.5 * (f_l + f_r) - half * (hu_r - hu_l))


def _kinematic_face(left: tuple, right: tuple) -> tuple:
    """The LLF flux (mass,) between two kinematic sides."""
    h_l, f_l, s_l = left
    h_r, f_r, s_r = right
    return (0.5 * (f_l + f_r)
            - 0.5 * (s_l if s_l > s_r else s_r) * (h_r - h_l),)


def _end_face(model: SurfaceModel, end: int, side: tuple) -> tuple:
    """The flux through end (0 for x = 0, -1 for the other) of the cell of
    this side: against a copy of the cell, or a reflect wall's mirror (hu
    negated); zero through a kinematic wall."""
    if model.flavor == "kinematic":
        return (0.0,) if end in model.walls else _kinematic_face(side, side)
    ghost = _swe_side(side[0], -side[1], model.gravity) \
        if end in model.walls else side
    return _swe_face(ghost, side) if end == 0 else _swe_face(side, ghost)


def llf_flux(q: np.ndarray, model: SurfaceModel) -> tuple[list, list]:
    """One pass over the state q, shaped (n_comp, cells): the side of each
    cell, then the local Lax-Friedrichs flux of each of the cells + 1 faces
    from its two sides, the end faces from the cell's ghost.  Returns the
    sides and the faces, each a tuple by component."""
    if model.flavor == "swe":
        sides = [_swe_side(h, hu, model.gravity)
                 for h, hu in zip(*q.tolist())]
        face = _swe_face
    else:
        sides = [_kinematic_side(h, u, model.flow_sign) for h, u in zip(
            q[0].tolist(), model.manning_speed(q[0]).tolist())]
        face = _kinematic_face
    return sides, [_end_face(model, 0, sides[0]),
                   *map(face, sides, sides[1:]),
                   _end_face(model, -1, sides[-1])]


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve(matrix, rhs) of a float matrix and vector: the same
    LAPACK gesv gufunc under the same error state, without the wrapper's
    conversions and checks; a singular matrix raises LinAlgError."""
    # scipy's dgesv runs another OpenBLAS build, whose solutions differ
    # from numpy's in the last bit on some trench-loam systems
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return solve1(matrix, rhs, signature="dd->d")


def _singular(error: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


class StepStart:
    """The checked start of one surface step and what its solves share:
    the face pass, free residual and column bumps at q_old."""

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
        self.cells = q_old.shape[1]
        self.old = self.flat.tolist()
        self.at_start = self.evaluate(q_old)
        self.bumps_at_start = self.bumps(self.at_start)

    def evaluate(self, q: np.ndarray) -> tuple[list, list, list]:
        """llf_flux's sides and faces of the state q, shaped like q_old,
        and its free residual q - q_old + dt/dx (F_l - F_{l-1}), flat."""
        sides, faces = llf_flux(q, self.model)
        dt_dx, cells = self.dt / self.dx, self.cells
        free = [(side[k] - old) + dt_dx * (right[k] - left[k])
                for k in range(len(q))
                for side, old, left, right in zip(
                    sides, self.old[k * cells:], faces, faces[1:])]
        return sides, faces, free

    def bumps(self, state: tuple[list, list, list],
              ) -> tuple[np.ndarray, np.ndarray]:
        """Sizes eps of the column bumps of evaluate's state, and the free
        residuals of the bumped states, one row per bump.

        Bumping cell c moves only its side and faces c and c + 1, so only
        the entries of cells c - 1 .. c + 1 are recomputed; the others are
        the state's own, bit for bit."""
        sides, faces, free = state
        model, cells, old = self.model, self.cells, self.old
        point = [side[k] for k in range(model.num_components)
                 for side in sides]
        eps = [1e-8 * max(1.0, abs(value)) for value in point]
        if model.flavor == "swe":
            gravity = model.gravity
            bumped = [_swe_side(h + e, hu, gravity)
                      for (h, hu, _, _), e in zip(sides, eps)]
            bumped += [_swe_side(h, hu + e, gravity)
                       for (h, hu, _, _), e in zip(sides, eps[cells:])]
            face = _swe_face
        else:
            heights = [h + e for h, e in zip(point, eps)]
            bumped = [_kinematic_side(h, u, model.flow_sign) for h, u in
                      zip(heights, model.manning_speed(heights).tolist())]
            face = _kinematic_face
        dt_dx, last, size = self.dt / self.dx, cells - 1, len(point)
        change = [x - o for x, o in zip(point, old)]
        # a swe cell's second (momentum) row is written out: a loop over
        # the rows of a cell costs more than the arithmetic
        momentum = model.flavor == "swe"
        rows = free * size
        at = 0
        for col, side in enumerate(bumped):
            c = col % cells
            if c:
                left, kept = face(sides[c - 1], side), faces[c - 1]
                i = c - 1
                rows[at + i] = change[i] + dt_dx * (left[0] - kept[0])
                if momentum:
                    i += cells
                    rows[at + i] = change[i] + dt_dx * (left[1] - kept[1])
            else:
                left = _end_face(model, 0, side)
            if c < last:
                right, kept = face(side, sides[c + 1]), faces[c + 2]
                i = c + 1
                rows[at + i] = change[i] + dt_dx * (kept[0] - right[0])
                if momentum:
                    i += cells
                    rows[at + i] = change[i] + dt_dx * (kept[1] - right[1])
            else:
                right = _end_face(model, -1, side)
            rows[at + c] = (side[0] - old[c]) + dt_dx * (right[0] - left[0])
            if momentum:
                i = c + cells
                rows[at + i] = (side[1] - old[i]) + dt_dx * (right[1]
                                                             - left[1])
            at += size
        return np.array(eps), np.array(rows).reshape(size, size)

    def jacobian(self, bumps: tuple[np.ndarray, np.ndarray],
                 shift: np.ndarray, res: np.ndarray) -> np.ndarray:
        """The finite difference Jacobian of the residual res = free -
        shift at the state of bumps; the entries a bump leaves alone are
        the +0.0 that (f - s) - (f - s) gives."""
        eps, rows = bumps
        return ((rows - shift - res) / eps[:, None]).T


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
    shift[:start.cells] = start.dt * source
    # the state of the latest residual call, where damped_newton asks for
    # the direction
    state = start.at_start

    def residual(trial: np.ndarray) -> np.ndarray:
        nonlocal state
        state = start.at_start if trial is start.flat \
            else start.evaluate(trial.reshape(start.q_old.shape))
        return np.subtract(state[2], shift)

    def direction(x: np.ndarray, res: np.ndarray) -> np.ndarray:
        bumps = start.bumps_at_start if x is start.flat \
            else start.bumps(state)
        return _solve(start.jacobian(bumps, shift, res), -res)

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
