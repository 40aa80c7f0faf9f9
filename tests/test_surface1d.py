"""Tests for the implicit finite volume surface solver."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow import surface1d
from coupledflow.iteration import NewtonError
from coupledflow.scenarios import manning_minutes_to_si
from coupledflow.surface1d import (
    H_FLOOR,
    PROBE_COLUMNS,
    StepStart,
    SurfaceModel,
    implicit_fv_step,
    llf_flux,
    outflow_probe,
)

WALLS = {"boundary_left": "reflect", "boundary_right": "reflect"}
# the reflect ends of each (boundary_left, boundary_right) pair
WALL_ENDS = {("copy", "copy"): (), ("reflect", "copy"): (0,),
             ("copy", "reflect"): (-1,), ("reflect", "reflect"): (0, -1)}


def swe_model(**boundary) -> SurfaceModel:
    return SurfaceModel(flavor="swe", gravity=9.81, **boundary)


def kinematic_model(**boundary) -> SurfaceModel:
    return SurfaceModel(flavor="kinematic",
                        manning_n=manning_minutes_to_si(3.31e-3),
                        friction_slope=5e-4, flow_sign=-1.0, **boundary)


def uniform(q, num_cells=3):
    """num_cells copies of the single state q, shaped (n_comp, cells)."""
    return np.tile(np.array(q, dtype=float)[:, None], num_cells)


class TestFluxes:
    def test_swe_flux_hand_values(self):
        model = swe_model()
        # every face of a uniform state with copy walls carries f(q)
        for q, flux in (([1.0, 0.0], [0.0, 4.905]),
                        ([1.0, 2.0], [2.0, 4.0 + 4.905])):
            assert_allclose(llf_flux(uniform(q), model),
                            uniform(flux, 4), rtol=1e-15)

    def test_manning_speed_golden(self):
        model = kinematic_model()
        assert_allclose(model.manning_speed(0.01), 0.005226036332105808,
                        rtol=1e-12)

    def test_manning_speed_is_numpy_sqrt_bitwise(self):
        h = np.array([-0.02, 0.0, 1e-300, 0.013, 0.2, 3.0])
        for slope in (5e-4, 0.02, 1.0 / 3.0):
            model = SurfaceModel(flavor="kinematic", manning_n=0.037,
                                 friction_slope=slope)
            want = (np.sqrt(slope) / 0.037
                    * np.maximum(h, 0.0) ** (2.0 / 3.0))
            assert model.manning_speed(h).tobytes() == want.tobytes()

    def test_kinematic_flux_follows_fall_line(self):
        faces = llf_flux(uniform([0.01]), kinematic_model())
        assert_allclose(faces, -0.01 * 0.005226036332105808, rtol=1e-12)

    def test_wave_speeds(self):
        # LLF dissipates with the larger speed: |u| + sqrt(g h) of the
        # moving state here, (5/3) u against a dry neighbour
        speed = 2.0 + np.sqrt(9.81 * 4.0)
        faces = llf_flux(np.array([[4.0, 4.0], [8.0, 0.0]]), swe_model())
        assert_allclose(faces[1, 1], 8.0 + 0.5 * 9.81 * 16.0 + 4.0 * speed,
                        rtol=1e-14)
        u = 0.005226036332105808
        faces = llf_flux(np.array([[0.01, 0.0]]), kinematic_model())
        assert_allclose(faces[0, 1], -0.005 * u + 0.005 * 5.0 / 3.0 * u,
                        rtol=1e-12)

    def test_llf_consistency(self):
        swe, kin = swe_model(), kinematic_model()
        for model, q, flux in (
                (swe, [0.7, 0.21], [0.21, 0.21 * 0.3 + 0.5 * 9.81 * 0.49]),
                (kin, [0.04], [-0.04 * kin.manning_speed(0.04)])):
            assert_allclose(llf_flux(uniform(q), model),
                            uniform(flux, 4), rtol=1e-15)

    def test_llf_hand_value(self):
        # the middle face of a two-cell state
        faces = llf_flux(np.array([[1.0, 0.5], [0.0, 0.1]]), swe_model())
        # the still deep state carries the larger speed sqrt(g)
        assert_allclose(faces[0, 1], 0.05 + 0.25 * np.sqrt(9.81), rtol=1e-14)
        assert_allclose(faces[1, 1], 3.075625 - 0.05 * np.sqrt(9.81),
                        rtol=1e-14)


class TestStates:
    @pytest.mark.parametrize("model, q_old", [
        (kinematic_model(**WALLS), np.array([0.1, 0.2])),
        (swe_model(**WALLS), np.array([[0.1, 0.2]])),
        (kinematic_model(**WALLS), np.array([[0.1, 0.2], [0.0, 0.0]])),
    ], ids=["one-dimensional", "swe-one-row", "kinematic-two-rows"])
    def test_shape_must_fit_flavor(self, model, q_old):
        with pytest.raises(ValueError, match="shaped"):
            StepStart(q_old, 1.0, 1.0, model)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SurfaceModel(flavor="dg")
        with pytest.raises(ValueError):
            SurfaceModel(flavor="kinematic", manning_n=0.1986)
        with pytest.raises(ValueError):
            SurfaceModel(flavor="swe", flow_sign=0.5)
        with pytest.raises(ValueError, match="gravity"):
            SurfaceModel(flavor="swe", gravity=np.nan)
        for manning_n, friction_slope in ((np.nan, 5e-4), (np.inf, 5e-4),
                                          (0.1986, np.nan)):
            with pytest.raises(ValueError, match="positive and finite"):
                SurfaceModel(flavor="kinematic", manning_n=manning_n,
                             friction_slope=friction_slope)
        with pytest.raises(ValueError, match="unknown boundary kind 'open'"):
            SurfaceModel(flavor="swe", boundary_left="open")
        with pytest.raises(ValueError, match="unknown boundary kind 'open'"):
            SurfaceModel(flavor="swe", boundary_right="open")

    @pytest.mark.parametrize("left, right", list(WALL_ENDS))
    @pytest.mark.parametrize("make", [swe_model, kinematic_model])
    def test_walls_are_the_reflect_ends(self, make, left, right):
        model = make(boundary_left=left, boundary_right=right)
        assert model.walls == WALL_ENDS[left, right]
        # replace builds a new model, whose walls follow its kinds
        other = {"copy": "reflect", "reflect": "copy"}[left]
        assert (dataclasses.replace(model, boundary_left=other).walls
                == WALL_ENDS[other, right])


class TestImplicitStep:
    def test_lake_at_rest_is_exact(self):
        model = swe_model(**WALLS)
        q = np.array([np.full(6, 0.3), np.zeros(6)])
        new, newton, _ = implicit_fv_step(StepStart(q, 0.5, 0.1, model), 0.0)
        assert newton.iterations == 0
        assert np.array_equal(new, q)
        assert new is not q

    def test_uniform_rain_raises_uniformly(self):
        model = swe_model(**WALLS)
        q = np.array([np.full(5, 0.2), np.zeros(5)])
        new, _, _ = implicit_fv_step(StepStart(q, 2.0, 0.5, model), 1e-3)
        assert not np.any(new[0] == H_FLOOR)
        assert_allclose(new[0], 0.2 + 2e-3, rtol=1e-12)
        assert_allclose(new[1], 0.0, atol=1e-13)

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_walls_conserve_mass(self, flavor):
        rng = np.random.default_rng(31)
        model = swe_model(**WALLS) if flavor == "swe" \
            else kinematic_model(**WALLS)
        h = rng.uniform(0.05, 0.3, size=8)
        q = np.array([h, rng.normal(scale=0.01, size=8)]) \
            if flavor == "swe" else h[None]
        dx = 0.25
        for _ in range(3):
            q, _, _ = implicit_fv_step(StepStart(q, 0.1, dx, model), 0.0)
            assert not np.any(q[0] == H_FLOOR)
        assert abs(np.sum(q[0]) - np.sum(h)) * dx <= 1e-12

    def test_source_balance(self):
        model = kinematic_model(**WALLS)
        exchange = np.array([1e-4, -2e-4, 3e-4, 0.0])
        q = np.full((1, 4), 0.05)
        new, _, _ = implicit_fv_step(StepStart(q, 10.0, 2.0, model),
                                     exchange + 1e-4)
        assert not np.any(new[0] == H_FLOOR)
        gained = (np.sum(new) - np.sum(q)) * 2.0
        expected = 10.0 * 2.0 * np.sum(exchange + 1e-4)
        assert_allclose(gained, expected, rtol=1e-10)

    def test_floor_clamp_reports_added_volume(self):
        model = kinematic_model(**WALLS)
        q = np.full((1, 3), 1e-6)
        new, _, clamped_volume = implicit_fv_step(
            StepStart(q, 1.0, 0.5, model), -1e-3)
        assert np.count_nonzero(new[0] == H_FLOOR) == 3
        assert np.all(new == H_FLOOR)
        # clamping injects exactly the reported volume
        balance = (np.sum(new) - np.sum(q)) * 0.5 \
            - (-1e-3 * 1.0 * 0.5 * 3) - clamped_volume
        assert abs(balance) <= 1e-15

    def test_outflow_through_copy_boundary(self):
        # kinematic flow toward x = 0 with an open left edge loses mass
        model = kinematic_model(boundary_right="reflect")
        q = np.full((1, 4), 0.02)
        new, _, _ = implicit_fv_step(StepStart(q, 5.0, 1.0, model), 0.0)
        assert np.sum(new) < np.sum(q)

    def test_rejects_bad_input(self):
        model = kinematic_model(**WALLS)
        with pytest.raises(ValueError):
            StepStart(np.array([[0.01, np.nan]]), 1.0, 1.0, model)
        good = np.full((1, 2), 0.01)
        with pytest.raises(ValueError):
            StepStart(good, 0.0, 1.0, model)
        with pytest.raises(ValueError):
            StepStart(good, 1.0, 0.0, model)
        for dt, dx in ((np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="dt and dx must be positive"):
                StepStart(good, dt, dx, model)
        with pytest.raises(ValueError):
            implicit_fv_step(StepStart(good, 1.0, 1.0, model), np.inf)

    def test_singular_jacobian_is_a_newton_error(self):
        # bump residuals equal to the start residual: a zero Jacobian
        model, q, source = rainy_state("swe", 5, **WALLS)

        class FlatBumps(StepStart):
            def bumps(self, point):
                eps = 1e-8 * np.maximum(1.0, np.abs(point))
                return eps, np.tile(self.free_residual(point),
                                    (point.size, 1))

        start = FlatBumps(q, 5.0, 0.5, model)
        with pytest.raises(NewtonError,
                           match="singular Newton system") as info:
            implicit_fv_step(start, source)
        assert info.value.iterations == 0
        assert info.value.residual_norm > 0.0

    def test_newton_failure_carries_diagnostics(self, monkeypatch):
        # one Newton iteration cannot solve this step
        newton = surface1d.damped_newton

        def one_iteration(residual, direction, x, target, max_iters, *rest,
                          **kwargs):
            return newton(residual, direction, x, target, 1, *rest, **kwargs)

        monkeypatch.setattr(surface1d, "damped_newton", one_iteration)
        model = swe_model(**WALLS)
        q = np.array([[1.0, 1e-8], [5.0, 0.0]])
        with pytest.raises(NewtonError) as info:
            implicit_fv_step(StepStart(q, 50.0, 1e-3, model), 0.0)
        assert info.value.iterations >= 1
        assert info.value.residual_norm > 0.0

    def test_non_finite_residual_is_a_newton_error(self):
        # hu^2 / h overflows, so the very first residual is not finite
        q = np.array([[1e-200, 1.0], [1e200, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NewtonError) as info:
            implicit_fv_step(StepStart(q, 1.0, 1.0, swe_model()), 0.0)
        assert info.value.iterations == 0
        assert not np.isfinite(info.value.residual_norm)


def reference_llf(q_left, q_right, model):
    """The pairwise LLF flux between two sets of states, with the physical
    flux and wave speed of each side evaluated on their own."""
    def flux_and_speed(q):
        h = np.maximum(q[0], 0.0)
        if model.flavor == "swe":
            hu = q[1]
            u = np.where(h > 0.0, hu / np.maximum(h, 1e-300), 0.0)
            return (np.stack([hu, hu * u + 0.5 * model.gravity * h * h]),
                    np.abs(u) + np.sqrt(model.gravity * h))
        speed = model.manning_speed(h)
        return (model.flow_sign * h * speed)[None], 5.0 / 3.0 * speed

    flux_left, speed_left = flux_and_speed(q_left)
    flux_right, speed_right = flux_and_speed(q_right)
    speed = np.maximum(speed_left, speed_right)
    return 0.5 * (flux_left + flux_right) - 0.5 * speed * (q_right - q_left)


def reference_boundary_flux(q_edge, kind, model, is_left):
    # one LLF call per boundary face, as before the ghost-cell padding
    if kind == "reflect":
        if model.flavor == "kinematic":
            return np.zeros(1)
        ghost = q_edge.copy()
        ghost[1] = -ghost[1]
        inner, outer = q_edge[:, None], ghost[:, None]
    else:
        inner = outer = q_edge[:, None]
    if is_left:
        return reference_llf(outer, inner, model)[:, 0]
    return reference_llf(inner, outer, model)[:, 0]


def reference_residual(flat, q_old, source, dt, dx, model):
    q = flat.reshape(q_old.shape)
    faces = np.empty((q.shape[0], q.shape[1] + 1))
    faces[:, 1:-1] = reference_llf(q[:, :-1], q[:, 1:], model)
    faces[:, 0] = reference_boundary_flux(q[:, 0], model.boundary_left,
                                          model, is_left=True)
    faces[:, -1] = reference_boundary_flux(q[:, -1], model.boundary_right,
                                           model, is_left=False)
    residual = q - q_old + dt / dx * (faces[:, 1:] - faces[:, :-1])
    residual[0] -= dt * source
    return residual.ravel()


def reference_jacobian(flat, residual, *args):
    # the column-by-column finite difference loop the batch replaces
    size = flat.size
    jacobian = np.empty((size, size))
    for j in range(size):
        eps = 1e-8 * max(1.0, abs(flat[j]))
        bumped = flat.copy()
        bumped[j] += eps
        jacobian[:, j] = (reference_residual(bumped, *args) - residual) / eps
    return jacobian


def recorded_solves(monkeypatch, reverse_first=False):
    """Record every dense solve; optionally flip the first Newton step."""
    solves = []
    solve = np.linalg.solve

    def recording_solve(matrix, rhs):
        solves.append((matrix.copy(), rhs.copy()))
        delta = solve(matrix, rhs)
        return -delta if reverse_first and len(solves) == 1 else delta

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    return solves


def rainy_state(flavor, num_x, seed=7, **boundary):
    rng = np.random.default_rng(seed)
    model = swe_model(**boundary) if flavor == "swe" \
        else kinematic_model(**boundary)
    h = rng.uniform(0.05, 0.3, size=num_x)
    q = np.array([h, rng.normal(scale=0.05, size=num_x)]) \
        if flavor == "swe" else h[None]
    source = rng.normal(scale=1e-4, size=num_x) + 2e-4
    return model, q, source


class TestBatchedNewton:
    @pytest.mark.parametrize("num_x", [1, 2, 5, 23])
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_jacobian_matches_column_loop_bitwise(self, monkeypatch, flavor,
                                                  left, right, num_x):
        model, q_old, source = rainy_state(flavor, num_x, boundary_left=left,
                                           boundary_right=right)
        solves = recorded_solves(monkeypatch)
        implicit_fv_step(StepStart(q_old, 0.5, 0.5, model), source)
        args = (q_old, source, 0.5, 0.5, model)
        flat = q_old.ravel().copy()
        residual = reference_residual(flat, *args)
        jacobian, rhs = solves[0]
        assert np.array_equal(rhs, -residual)
        assert np.array_equal(jacobian, reference_jacobian(flat, residual,
                                                           *args))

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_one_residual_call_per_jacobian(self, monkeypatch, flavor):
        model, q, source = rainy_state(flavor, 5, **WALLS)
        size = q.size
        batches, cell_calls = [], []
        flux = surface1d.llf_flux
        flux_and_speed = surface1d._flux_and_speed

        def counting_flux(states, model):
            batches.append(states.shape[1])
            return flux(states, model)

        def counting_flux_and_speed(*args):
            cell_calls.append(1)
            return flux_and_speed(*args)

        monkeypatch.setattr(surface1d, "llf_flux", counting_flux)
        monkeypatch.setattr(surface1d, "_flux_and_speed",
                            counting_flux_and_speed)
        start = StepStart(q, 5.0, 0.5, model)
        # construction evaluates the residuals at the start and its bumps,
        # f and lambda once per cell of each padded state
        assert batches == [1, size] and len(cell_calls) == 2
        for factor in (1.0, 2.0):
            batches.clear()
            cell_calls.clear()
            _, newton, _ = implicit_fv_step(start, factor * source)
            assert newton.iterations >= 2
            # per iteration one step, and one batch after the first
            assert batches.count(1) == newton.iterations
            assert batches.count(size) == newton.iterations - 1
            assert len(batches) == 2 * newton.iterations - 1
            assert len(cell_calls) == len(batches)

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_line_search_failures_are_counted(self, monkeypatch,
                                              reverse_first):
        # an uphill first direction fails all 20 halvings; Newton recovers
        model, q, source = rainy_state("swe", 5, **WALLS)
        recorded_solves(monkeypatch, reverse_first=reverse_first)
        _, newton, _ = implicit_fv_step(StepStart(q, 5.0, 0.5, model), source)
        assert newton.line_search_failures == int(reverse_first)
        assert newton.residual_norm <= 1e-12


class TestStepStart:
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_shared_start_solves_as_fresh_bitwise(self, monkeypatch, flavor,
                                                  left, right):
        model, q_old, source = rainy_state(flavor, 6, boundary_left=left,
                                           boundary_right=right)
        solves = recorded_solves(monkeypatch)
        shared = StepStart(q_old, 0.5, 0.5, model)
        # the last source drains every cell below H_FLOOR
        for rate in (source, 3.0 * source - 1e-4, np.full(6, -1.0)):
            solves.clear()
            got = implicit_fv_step(shared, rate)
            got_solves = list(solves)
            solves.clear()
            want = implicit_fv_step(StepStart(q_old.copy(), 0.5, 0.5, model),
                                    rate)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]
            assert len(got_solves) == len(solves) >= 1
            for (matrix, rhs), (want_matrix, want_rhs) in zip(got_solves,
                                                              solves):
                assert np.array_equal(matrix, want_matrix)
                assert np.array_equal(rhs, want_rhs)
        assert got[2] > 0.0
        assert np.array_equal(shared.q_old, q_old)

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_bumps_equal_the_tiled_batch_bitwise(self, flavor):
        model, q, _ = rainy_state(flavor, 6, **WALLS)
        # Newton trials: negative and zero depths next to wet cells
        q[0, ::3] = -0.02
        q[0, 1::3] = 0.0
        start = StepStart(q, 5.0, 0.5, model)
        free_residual = start.free_residual
        batches = []

        def recording(flat):
            batches.append(flat.copy())
            return free_residual(flat)

        start.free_residual = recording
        for point in (start.flat, 1.5 * start.flat - 0.01):
            eps = 1e-8 * np.maximum(1.0, np.abs(point))
            want = np.tile(point, (point.size, 1))
            want[np.diag_indices(point.size)] += eps
            batches.clear()
            got_eps, got = start.bumps(point)
            assert len(batches) == 1
            assert_same_bytes(batches[0], want)
            assert_same_bytes(got_eps, eps)
            assert_same_bytes(got, free_residual(want))

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_start_fluxes_are_evaluated_once(self, monkeypatch, flavor):
        model, q_old, source = rainy_state(flavor, 5, **WALLS)
        flat = q_old.ravel()
        bumps = np.tile(flat, (flat.size, 1))
        bumps[np.diag_indices(flat.size)] += 1e-8 * np.maximum(1.0,
                                                               np.abs(flat))
        seen = []
        flux = surface1d.llf_flux

        def recording_flux(states, model):
            seen.append(states.swapaxes(0, 1).reshape(states.shape[1], -1))
            return flux(states, model)

        monkeypatch.setattr(surface1d, "llf_flux", recording_flux)
        start = StepStart(q_old, 5.0, 0.5, model)
        for factor in (1.0, 2.0, 0.5):
            _, newton, _ = implicit_fv_step(start, factor * source)
            assert newton.iterations >= 1
        assert sum(np.array_equal(states, flat[None]) for states in seen) == 1
        assert sum(np.array_equal(states, bumps) for states in seen) == 1


def reference_flux_and_speed(q, model):
    """_flux_and_speed with np.stack: the oracle of the preallocated
    flux rows."""
    # Newton trial states may dip below zero; clamping h keeps f defined
    h = np.maximum(q[0], 0.0)
    if model.flavor == "swe":
        hu = q[1]
        u = np.where(h > 0.0, hu / np.maximum(h, 1e-300), 0.0)
        return (np.stack([hu, hu * u + 0.5 * model.gravity * h * h]),
                np.abs(u) + np.sqrt(model.gravity * h))
    speed = model.manning_speed(h)
    return (model.flow_sign * h * speed)[None], 5.0 / 3.0 * speed


def reference_llf_flux(q, model):
    """llf_flux with np.concatenate and per-call wall ends: the oracle of
    the preallocated padding."""
    padded = np.concatenate([q[..., :1], q, q[..., -1:]], axis=-1)
    kinds = (model.boundary_left, model.boundary_right)
    walls = [end for kind, end in zip(kinds, (0, -1)) if kind == "reflect"]
    if model.flavor == "swe":
        padded[1, ..., walls] = -padded[1, ..., walls]
    flux, speed = reference_flux_and_speed(padded, model)
    faces = (0.5 * (flux[..., :-1] + flux[..., 1:])
             - 0.5 * np.maximum(speed[..., :-1], speed[..., 1:])
             * (padded[..., 1:] - padded[..., :-1]))
    if model.flavor == "kinematic":
        faces[..., walls] = 0.0
    return faces


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestFluxOracle:
    @pytest.mark.parametrize("num_x", [1, 2, 6])
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_matches_concatenate_and_stack_bitwise(self, flavor, left, right,
                                                   num_x):
        model, q, _ = rainy_state(flavor, num_x, boundary_left=left,
                                  boundary_right=right)
        # Newton trials: negative and zero depths next to wet cells
        q[0, ::3] = -0.02
        q[0, 1::3] = 0.0
        flat = q.ravel()
        bumps = np.tile(flat, (flat.size, 1))
        bumps[np.diag_indices(flat.size)] -= 0.1
        # (n_comp, cells), (n_comp, B, cells) as StepStart passes the bumps
        # (a strided view) and the same batch contiguous
        batch = bumps.reshape(-1, *q.shape).swapaxes(0, 1)
        for states in (q, batch, np.ascontiguousarray(batch)):
            assert_same_bytes(llf_flux(states, model),
                              reference_llf_flux(states, model))
            padded = np.concatenate(
                [states[..., :1], states, states[..., -1:]], axis=-1)
            for got, want in zip(surface1d._flux_and_speed(padded, model),
                                 reference_flux_and_speed(padded, model)):
                assert_same_bytes(got, want)

    def test_leaves_its_input_alone(self):
        model, q, _ = rainy_state("swe", 4, **WALLS)
        before = q.copy()
        llf_flux(q, model)
        assert np.array_equal(q, before)


class TestProbe:
    def test_kinematic_probe(self):
        model = kinematic_model()
        probe = outflow_probe(np.array([[0.01, 0.05]]), 42.0, model)
        assert tuple(probe) == PROBE_COLUMNS
        assert probe["t"] == 42.0
        assert_allclose(probe["u0"], 0.005226036332105808, rtol=1e-12)
        assert_allclose(probe["q_out"], 0.01 * 0.005226036332105808,
                        rtol=1e-12)

    def test_kinematic_probe_reads_downstream_end(self):
        # flow toward growing x leaves through the last cell
        model = SurfaceModel(flavor="kinematic",
                             manning_n=manning_minutes_to_si(3.31e-3),
                             friction_slope=5e-4, flow_sign=1.0)
        probe = outflow_probe(np.array([[0.01, 0.05]]), 0.0, model)
        assert probe["h0"] == 0.05
        assert probe["u0"] == float(model.manning_speed(0.05))
        assert probe["q_out"] == 0.05 * probe["u0"]

    def test_swe_probe_handles_dry_edge(self):
        model = swe_model()
        wet = outflow_probe(np.array([[0.2], [-0.04]]), 0.0, model)
        assert_allclose(wet["u0"], 0.2, rtol=1e-14)
        assert_allclose(wet["q_out"], 0.04, rtol=1e-14)
        dry = outflow_probe(np.zeros((2, 1)), 0.0, model)
        assert dry["u0"] == 0.0 and dry["q_out"] == 0.0

    @pytest.mark.parametrize("outlet", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_discharge_is_the_outlet_face_flux(self, flavor, outlet):
        # a wall at the outlet passes no water, whatever the cell's speed
        if flavor == "swe":  # flow toward x = 0 leaves through the left end
            model, end = swe_model(boundary_left=outlet), 0
            q = uniform([0.1, -0.02], 5)
        else:
            model = SurfaceModel(flavor="kinematic", manning_n=0.2,
                                 friction_slope=5e-4, flow_sign=1.0,
                                 boundary_right=outlet)
            q, end = uniform([0.01], 5), -1
        probe = outflow_probe(q, 0.0, model)
        assert probe["h0"] == q[0, end] and probe["u0"] > 0.0
        outflow = abs(llf_flux(q, model)[0, end])
        assert (outflow == 0.0) == (outlet == "reflect")
        assert_allclose(probe["q_out"], outflow, rtol=1e-15, atol=0.0)
