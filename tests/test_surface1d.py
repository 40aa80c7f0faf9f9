"""Tests for the implicit finite volume surface solver."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow import surface1d
from coupledflow.iteration import NewtonError, damped_newton
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


def faces_of(q, model):
    """llf_flux's face fluxes of q, shaped (n_comp, cells + 1)."""
    return np.array(llf_flux(q, model)[1]).T


class TestFluxes:
    def test_swe_flux_hand_values(self):
        model = swe_model()
        # every face of a uniform state with copy walls carries f(q)
        for q, flux in (([1.0, 0.0], [0.0, 4.905]),
                        ([1.0, 2.0], [2.0, 4.0 + 4.905])):
            assert_allclose(faces_of(uniform(q), model),
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
        faces = faces_of(uniform([0.01]), kinematic_model())
        assert_allclose(faces, -0.01 * 0.005226036332105808, rtol=1e-12)

    def test_wave_speeds(self):
        # LLF dissipates with the larger speed: |u| + sqrt(g h) of the
        # moving state here, (5/3) u against a dry neighbour
        speed = 2.0 + np.sqrt(9.81 * 4.0)
        faces = faces_of(np.array([[4.0, 4.0], [8.0, 0.0]]), swe_model())
        assert_allclose(faces[1, 1], 8.0 + 0.5 * 9.81 * 16.0 + 4.0 * speed,
                        rtol=1e-14)
        u = 0.005226036332105808
        faces = faces_of(np.array([[0.01, 0.0]]), kinematic_model())
        assert_allclose(faces[0, 1], -0.005 * u + 0.005 * 5.0 / 3.0 * u,
                        rtol=1e-12)

    def test_llf_consistency(self):
        swe, kin = swe_model(), kinematic_model()
        for model, q, flux in (
                (swe, [0.7, 0.21], [0.21, 0.21 * 0.3 + 0.5 * 9.81 * 0.49]),
                (kin, [0.04], [-0.04 * kin.manning_speed(0.04)])):
            assert_allclose(faces_of(uniform(q), model),
                            uniform(flux, 4), rtol=1e-15)

    def test_llf_hand_value(self):
        # the middle face of a two-cell state
        faces = faces_of(np.array([[1.0, 0.5], [0.0, 0.1]]), swe_model())
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
        model, q, source = rainy_state("swe", 5, **WALLS)

        class ZeroJacobian(StepStart):
            def jacobian(self, bumps, shift, res):
                return np.zeros((res.size, res.size))

        start = ZeroJacobian(q, 5.0, 0.5, model)
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
    # the column-by-column finite difference loop on whole states
    size = flat.size
    jacobian = np.empty((size, size))
    for j in range(size):
        eps = 1e-8 * max(1.0, abs(flat[j]))
        bumped = flat.copy()
        bumped[j] += eps
        jacobian[:, j] = (reference_residual(bumped, *args) - residual) / eps
    return jacobian


def reference_fv_step(start, source):
    """implicit_fv_step in numpy from start's q_old, dt, dx and model:
    reference_residual, the reference_jacobian column loop and
    np.linalg.solve in the shared damped Newton, then the H_FLOOR clamp."""
    q_old, dt, dx, model = start.q_old, start.dt, start.dx, start.model
    args = (q_old, np.asarray(source, dtype=float), dt, dx, model)
    scale = max(1.0, np.abs(q_old).max())
    flat, newton = damped_newton(
        lambda x: reference_residual(x, *args),
        lambda x, r: np.linalg.solve(reference_jacobian(x, r, *args), -r),
        q_old.ravel(), lambda norm0: 1e-13 * scale, 30, 20,
        accept=1e-12 * scale)
    q_new = flat.reshape(q_old.shape).copy()
    low = q_new[0] < H_FLOOR
    clamped_volume = float(((H_FLOOR - q_new[0][low]) * dx).sum())
    q_new[0][low] = H_FLOOR
    return q_new, newton, clamped_volume


def recorded_solves(monkeypatch, reverse_first=False):
    """Record every dense solve; optionally flip the first Newton step."""
    solves = []
    solve = surface1d.solve1

    def recording_solve(matrix, rhs, **kwargs):
        solves.append((matrix.copy(), rhs.copy()))
        delta = solve(matrix, rhs, **kwargs)
        return -delta if reverse_first and len(solves) == 1 else delta

    monkeypatch.setattr(surface1d, "solve1", recording_solve)
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


# (flavor, flow_sign): both kinematic flow directions
FLAVORS = [("swe", 1.0), ("kinematic", -1.0), ("kinematic", 1.0)]


class TestLocalJacobian:
    @pytest.mark.parametrize("num_x", [1, 2, 5, 23])
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor, flow_sign", FLAVORS)
    def test_jacobian_matches_column_loop_bitwise(self, monkeypatch, flavor,
                                                  flow_sign, left, right,
                                                  num_x):
        model, q_old, source = rainy_state(flavor, num_x, boundary_left=left,
                                           boundary_right=right)
        model = dataclasses.replace(model, flow_sign=flow_sign)
        solves = recorded_solves(monkeypatch)
        implicit_fv_step(StepStart(q_old, 0.5, 0.5, model), source)
        args = (q_old, source, 0.5, 0.5, model)
        flat = q_old.ravel().copy()
        residual = reference_residual(flat, *args)
        jacobian, rhs = solves[0]
        assert np.array_equal(rhs, -residual)
        assert np.array_equal(jacobian, reference_jacobian(flat, residual,
                                                           *args))

    @pytest.mark.parametrize("num_x", [1, 2, 5, 23])
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor, flow_sign", FLAVORS)
    def test_trial_state_kernels_match_column_loop_bitwise(
            self, flavor, flow_sign, left, right, num_x):
        model, q_old, source = rainy_state(flavor, num_x, boundary_left=left,
                                           boundary_right=right)
        model = dataclasses.replace(model, flow_sign=flow_sign)
        # a Newton trial: negative, zero and floor depths next to wet cells
        q = q_old.copy()
        q[0, ::4] = -0.02
        q[0, 1::4] = 0.0
        q[0, 2::4] = H_FLOOR
        start = StepStart(q_old, 0.5, 0.5, model)
        shift = np.zeros(q.size)
        shift[:num_x] = 0.5 * source
        state = start.evaluate(q)
        residual = np.subtract(state[2], shift)
        args = (q_old, source, 0.5, 0.5, model)
        want = reference_residual(q.ravel(), *args)
        assert_same_bytes(residual, want)
        assert_same_bytes(start.jacobian(start.bumps(state), shift, residual),
                          reference_jacobian(q.ravel(), want, *args))

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_one_face_pass_per_state_one_face_pair_per_bump(self, monkeypatch,
                                                            flavor):
        # copy ends, so that each end face also comes from the face function
        model, q, source = rainy_state(flavor, 5)
        size, faces_per_pass = q.size, q.shape[1] + 1
        passes, faces = [], []
        flux = surface1d.llf_flux
        name = f"_{flavor}_face"
        face = getattr(surface1d, name)

        def counting_flux(states, model):
            passes.append(states.shape)
            return flux(states, model)

        def counting_face(left, right):
            faces.append(1)
            return face(left, right)

        monkeypatch.setattr(surface1d, "llf_flux", counting_flux)
        monkeypatch.setattr(surface1d, name, counting_face)
        start = StepStart(q, 5.0, 0.5, model)
        # construction: one pass at q_old, then two faces per column bump
        assert passes == [q.shape]
        assert len(faces) == faces_per_pass + 2 * size
        for factor in (1.0, 2.0):
            passes.clear()
            faces.clear()
            _, newton, _ = implicit_fv_step(start, factor * source)
            assert newton.iterations >= 2
            # per iteration one trial state, and its bumps after the first
            assert passes == [q.shape] * newton.iterations
            assert len(faces) == (faces_per_pass * newton.iterations
                                  + 2 * size * (newton.iterations - 1))

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
    def test_bumps_are_the_bumped_states_residuals_bitwise(self, flavor):
        model, q, _ = rainy_state(flavor, 6, **WALLS)
        # Newton trials: negative and zero depths next to wet cells
        q[0, ::3] = -0.02
        q[0, 1::3] = 0.0
        start = StepStart(q, 5.0, 0.5, model)
        for point in (q, 1.5 * q - 0.01):
            flat = point.ravel()
            eps = 1e-8 * np.maximum(1.0, np.abs(flat))
            bumped = np.tile(flat, (flat.size, 1))
            bumped[np.diag_indices(flat.size)] += eps
            got_eps, got = start.bumps(start.evaluate(point))
            assert_same_bytes(got_eps, eps)
            assert_same_bytes(got, np.array([
                reference_residual(state, q, 0.0, 5.0, 0.5, model)
                for state in bumped]))

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_start_fluxes_are_evaluated_once(self, monkeypatch, flavor):
        model, q_old, source = rainy_state(flavor, 5, **WALLS)
        seen, bumped = [], []
        flux = surface1d.llf_flux

        def recording_flux(states, model):
            seen.append(states.copy())
            return flux(states, model)

        class Recording(StepStart):
            def bumps(self, state):
                bumped.append(state)
                return super().bumps(state)

        monkeypatch.setattr(surface1d, "llf_flux", recording_flux)
        start = Recording(q_old, 5.0, 0.5, model)
        for factor in (1.0, 2.0, 0.5):
            _, newton, _ = implicit_fv_step(start, factor * source)
            assert newton.iterations >= 1
        assert sum(np.array_equal(states, q_old) for states in seen) == 1
        assert sum(state is start.at_start for state in bumped) == 1


def reference_flux_and_speed(q, model):
    """The flux rows, by np.stack, and wave speeds of the states q."""
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
    """llf_flux's faces by np.concatenate of the ghost cells and array
    arithmetic: the oracle of the scalar face pass."""
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
        # Newton trials: negative, zero and floor depths next to wet cells
        q[0, ::4] = -0.02
        q[0, 1::4] = 0.0
        q[0, 2::4] = H_FLOOR
        assert_same_bytes(faces_of(q, model), reference_llf_flux(q, model))

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
        outflow = abs(faces_of(q, model)[0, end])
        assert (outflow == 0.0) == (outlet == "reflect")
        assert_allclose(probe["q_out"], outflow, rtol=1e-15, atol=0.0)
