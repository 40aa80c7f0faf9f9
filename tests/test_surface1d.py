"""Tests for the implicit finite volume surface solver."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coupledflow import surface1d
from coupledflow.iteration import NewtonError
from coupledflow.scenarios import manning_minutes_to_si
from coupledflow.surface1d import (
    PROBE_COLUMNS,
    BoundarySpec,
    SurfaceModel,
    SurfaceState,
    implicit_fv_step,
    llf_flux,
    outflow_probe,
    state_from_vector,
)

WALLS = BoundarySpec(left="reflect", right="reflect")
COPY = BoundarySpec()


def swe_model() -> SurfaceModel:
    return SurfaceModel(flavor="swe", gravity=9.81)


def kinematic_model() -> SurfaceModel:
    return SurfaceModel(flavor="kinematic",
                        manning_n=manning_minutes_to_si(3.31e-3),
                        friction_slope=5e-4, flow_sign=-1.0)


def uniform(q, num_cells=3):
    """num_cells copies of the single state q, shaped (n_comp, cells)."""
    return np.tile(np.array(q, dtype=float)[:, None], num_cells)


class TestFluxes:
    def test_swe_flux_hand_values(self):
        model = swe_model()
        # every face of a uniform state with copy walls carries f(q)
        for q, flux in (([1.0, 0.0], [0.0, 4.905]),
                        ([1.0, 2.0], [2.0, 4.0 + 4.905])):
            assert_allclose(llf_flux(uniform(q), COPY, model),
                            uniform(flux, 4), rtol=1e-15)

    def test_manning_speed_golden(self):
        model = kinematic_model()
        assert_allclose(model.manning_speed(0.01), 0.005226036332105808,
                        rtol=1e-12)

    def test_kinematic_flux_follows_fall_line(self):
        faces = llf_flux(uniform([0.01]), COPY, kinematic_model())
        assert_allclose(faces, -0.01 * 0.005226036332105808, rtol=1e-12)

    def test_wave_speeds(self):
        # LLF dissipates with the larger speed: |u| + sqrt(g h) of the
        # moving state here, (5/3) u against a dry neighbour
        speed = 2.0 + np.sqrt(9.81 * 4.0)
        faces = llf_flux(np.array([[4.0, 4.0], [8.0, 0.0]]), COPY,
                         swe_model())
        assert_allclose(faces[1, 1], 8.0 + 0.5 * 9.81 * 16.0 + 4.0 * speed,
                        rtol=1e-14)
        u = 0.005226036332105808
        faces = llf_flux(np.array([[0.01, 0.0]]), COPY, kinematic_model())
        assert_allclose(faces[0, 1], -0.005 * u + 0.005 * 5.0 / 3.0 * u,
                        rtol=1e-12)

    def test_llf_consistency(self):
        swe, kin = swe_model(), kinematic_model()
        for model, q, flux in (
                (swe, [0.7, 0.21], [0.21, 0.21 * 0.3 + 0.5 * 9.81 * 0.49]),
                (kin, [0.04], [-0.04 * kin.manning_speed(0.04)])):
            assert_allclose(llf_flux(uniform(q), COPY, model),
                            uniform(flux, 4), rtol=1e-15)

    def test_llf_hand_value(self):
        # the middle face of a two-cell state
        faces = llf_flux(np.array([[1.0, 0.5], [0.0, 0.1]]), COPY,
                         swe_model())
        # the still deep state carries the larger speed sqrt(g)
        assert_allclose(faces[0, 1], 0.05 + 0.25 * np.sqrt(9.81), rtol=1e-14)
        assert_allclose(faces[1, 1], 3.075625 - 0.05 * np.sqrt(9.81),
                        rtol=1e-14)


class TestStates:
    def test_round_trip(self):
        model = swe_model()
        state = SurfaceState(h=np.array([0.2, 0.4]),
                             hu=np.array([0.01, -0.02]), time=3.0)
        again = state_from_vector(state.as_vector(model), model, time=3.0)
        assert np.array_equal(again.h, state.h)
        assert np.array_equal(again.hu, state.hu)
        assert again.time == 3.0

    def test_swe_vector_needs_momentum(self):
        with pytest.raises(ValueError):
            SurfaceState(h=np.array([0.1])).as_vector(swe_model())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SurfaceState(h=np.array([0.1, 0.2]), hu=np.array([0.0]))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            SurfaceModel(flavor="dg")
        with pytest.raises(ValueError):
            SurfaceModel(flavor="kinematic", manning_n=0.1986)
        with pytest.raises(ValueError):
            SurfaceModel(flavor="swe", flow_sign=0.5)
        with pytest.raises(ValueError):
            BoundarySpec(left="open")


class TestImplicitStep:
    def test_lake_at_rest_is_exact(self):
        model = swe_model()
        state = SurfaceState(h=np.full(6, 0.3), hu=np.zeros(6))
        new, report = implicit_fv_step(state, 0.0, dt=0.5,
                                       dx=0.1, model=model, boundary=WALLS)
        assert report.iterations == 0
        assert np.array_equal(new.h, state.h)
        assert np.array_equal(new.hu, state.hu)

    def test_uniform_rain_raises_uniformly(self):
        model = swe_model()
        state = SurfaceState(h=np.full(5, 0.2), hu=np.zeros(5))
        new, report = implicit_fv_step(state, 1e-3,
                                       dt=2.0, dx=0.5, model=model,
                                       boundary=WALLS)
        assert report.clamped_cells == 0
        assert_allclose(new.h, 0.2 + 2e-3, rtol=1e-12)
        assert_allclose(new.hu, 0.0, atol=1e-13)

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_walls_conserve_mass(self, flavor):
        rng = np.random.default_rng(31)
        model = swe_model() if flavor == "swe" else kinematic_model()
        h = rng.uniform(0.05, 0.3, size=8)
        hu = rng.normal(scale=0.01, size=8) if flavor == "swe" else None
        state = SurfaceState(h=h, hu=hu)
        dx = 0.25
        for _ in range(3):
            state, report = implicit_fv_step(state, 0.0,
                                             dt=0.1, dx=dx, model=model,
                                             boundary=WALLS)
            assert report.clamped_cells == 0
        assert abs(np.sum(state.h) - np.sum(h)) * dx <= 1e-12

    def test_source_balance(self):
        model = kinematic_model()
        exchange = np.array([1e-4, -2e-4, 3e-4, 0.0])
        state = SurfaceState(h=np.full(4, 0.05))
        new, report = implicit_fv_step(state, exchange + 1e-4, dt=10.0,
                                       dx=2.0, model=model, boundary=WALLS)
        assert report.clamped_cells == 0
        gained = (np.sum(new.h) - np.sum(state.h)) * 2.0
        expected = 10.0 * 2.0 * np.sum(exchange + 1e-4)
        assert_allclose(gained, expected, rtol=1e-10)

    def test_floor_clamp_reports_added_volume(self):
        model = kinematic_model()
        state = SurfaceState(h=np.full(3, 1e-6))
        new, report = implicit_fv_step(state, -1e-3, dt=1.0,
                                       dx=0.5, model=model, boundary=WALLS)
        assert report.clamped_cells == 3
        assert np.all(new.h == surface1d.H_FLOOR)
        # clamping injects exactly the reported volume
        balance = (np.sum(new.h) - np.sum(state.h)) * 0.5 \
            - (-1e-3 * 1.0 * 0.5 * 3) - report.clamped_volume
        assert abs(balance) <= 1e-15

    def test_outflow_through_copy_boundary(self):
        # kinematic flow toward x = 0 with an open left edge loses mass
        model = kinematic_model()
        state = SurfaceState(h=np.full(4, 0.02))
        boundary = BoundarySpec(left="copy", right="reflect")
        new, _ = implicit_fv_step(state, 0.0, dt=5.0, dx=1.0,
                                  model=model, boundary=boundary)
        assert np.sum(new.h) < np.sum(state.h)

    def test_time_advances(self):
        model = kinematic_model()
        state = SurfaceState(h=np.full(3, 0.01), time=7.0)
        new, _ = implicit_fv_step(state, 0.0, dt=2.5, dx=1.0,
                                  model=model, boundary=WALLS)
        assert new.time == 9.5

    def test_rejects_bad_input(self):
        model = kinematic_model()
        state = SurfaceState(h=np.array([0.01, np.nan]))
        with pytest.raises(ValueError):
            implicit_fv_step(state, 0.0, dt=1.0, dx=1.0,
                             model=model, boundary=WALLS)
        good = SurfaceState(h=np.array([0.01, 0.01]))
        with pytest.raises(ValueError):
            implicit_fv_step(good, 0.0, dt=0.0, dx=1.0,
                             model=model, boundary=WALLS)
        with pytest.raises(ValueError):
            implicit_fv_step(good, np.inf, dt=1.0, dx=1.0,
                             model=model, boundary=WALLS)

    def test_newton_failure_carries_diagnostics(self, monkeypatch):
        # one Newton iteration cannot solve this step
        newton = surface1d.damped_newton

        def one_iteration(residual, direction, x, target, max_iters, *rest,
                          **kwargs):
            return newton(residual, direction, x, target, 1, *rest, **kwargs)

        monkeypatch.setattr(surface1d, "damped_newton", one_iteration)
        model = swe_model()
        state = SurfaceState(h=np.array([1.0, 1e-8]),
                             hu=np.array([5.0, 0.0]))
        with pytest.raises(NewtonError) as info:
            implicit_fv_step(state, 0.0, dt=50.0, dx=1e-3,
                             model=model, boundary=WALLS)
        assert info.value.iterations >= 1
        assert info.value.residual_norm > 0.0

    def test_non_finite_residual_is_a_newton_error(self):
        # hu^2 / h overflows, so the very first residual is not finite
        state = SurfaceState(h=np.array([1e-200, 1.0]),
                             hu=np.array([1e200, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NewtonError) as info:
            implicit_fv_step(state, 0.0, dt=1.0, dx=1.0,
                             model=swe_model(), boundary=BoundarySpec())
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


def reference_residual(flat, q_old, source, dt, dx, boundary, model):
    q = flat.reshape(q_old.shape)
    faces = np.empty((q.shape[0], q.shape[1] + 1))
    faces[:, 1:-1] = reference_llf(q[:, :-1], q[:, 1:], model)
    faces[:, 0] = reference_boundary_flux(q[:, 0], boundary.left, model,
                                          is_left=True)
    faces[:, -1] = reference_boundary_flux(q[:, -1], boundary.right, model,
                                           is_left=False)
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


def rainy_state(flavor, num_x, seed=7):
    rng = np.random.default_rng(seed)
    model = swe_model() if flavor == "swe" else kinematic_model()
    h = rng.uniform(0.05, 0.3, size=num_x)
    hu = rng.normal(scale=0.05, size=num_x) if flavor == "swe" else None
    source = rng.normal(scale=1e-4, size=num_x) + 2e-4
    return model, SurfaceState(h=h, hu=hu), source


class TestBatchedNewton:
    @pytest.mark.parametrize("num_x", [1, 2, 5, 23])
    @pytest.mark.parametrize("right", ["copy", "reflect"])
    @pytest.mark.parametrize("left", ["copy", "reflect"])
    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_jacobian_matches_column_loop_bitwise(self, monkeypatch, flavor,
                                                  left, right, num_x):
        model, state, source = rainy_state(flavor, num_x)
        boundary = BoundarySpec(left=left, right=right)
        solves = recorded_solves(monkeypatch)
        implicit_fv_step(state, source, dt=0.5, dx=0.5, model=model,
                         boundary=boundary)
        q_old = state.as_vector(model)
        args = (q_old, source, 0.5, 0.5, boundary, model)
        flat = q_old.ravel().copy()
        residual = reference_residual(flat, *args)
        jacobian, rhs = solves[0]
        assert np.array_equal(rhs, -residual)
        assert np.array_equal(jacobian, reference_jacobian(flat, residual,
                                                           *args))

    @pytest.mark.parametrize("flavor", ["swe", "kinematic"])
    def test_one_residual_call_per_jacobian(self, monkeypatch, flavor):
        model, state, source = rainy_state(flavor, 5)
        size = state.as_vector(model).size
        shapes, llf_calls, cell_calls = [], [], []
        step_residual = surface1d._step_residual
        flux = surface1d.llf_flux
        flux_and_speed = surface1d._flux_and_speed

        def counting_residual(flat, *args):
            shapes.append(flat.shape)
            return step_residual(flat, *args)

        def counting_flux(*args):
            llf_calls.append(1)
            return flux(*args)

        def counting_flux_and_speed(*args):
            cell_calls.append(1)
            return flux_and_speed(*args)

        monkeypatch.setattr(surface1d, "_step_residual", counting_residual)
        monkeypatch.setattr(surface1d, "llf_flux", counting_flux)
        monkeypatch.setattr(surface1d, "_flux_and_speed",
                            counting_flux_and_speed)
        _, report = implicit_fv_step(state, source, dt=5.0, dx=0.5,
                                     model=model, boundary=WALLS)
        assert report.iterations >= 2
        # initial residual, then per iteration one batch and one full step
        assert shapes.count((size, size)) == report.iterations
        assert shapes.count((size,)) == 1 + report.iterations
        assert len(shapes) == 1 + 2 * report.iterations
        assert len(llf_calls) == len(shapes)
        # f and lambda once per cell of the padded state, not per face side
        assert len(cell_calls) == len(shapes)

    @pytest.mark.parametrize("reverse_first", [False, True])
    def test_line_search_failures_are_counted(self, monkeypatch,
                                              reverse_first):
        # an uphill first direction fails all 20 halvings; Newton recovers
        model, state, source = rainy_state("swe", 5)
        recorded_solves(monkeypatch, reverse_first=reverse_first)
        _, report = implicit_fv_step(state, source, dt=5.0, dx=0.5,
                                     model=model, boundary=WALLS)
        assert report.line_search_failures == int(reverse_first)
        assert report.residual_norm <= 1e-12


class TestProbe:
    def test_kinematic_probe(self):
        model = kinematic_model()
        state = SurfaceState(h=np.array([0.01, 0.05]), time=42.0)
        probe = outflow_probe(state, model)
        assert tuple(probe) == PROBE_COLUMNS
        assert probe["t"] == 42.0
        assert_allclose(probe["u0"], 0.005226036332105808, rtol=1e-12)
        assert_allclose(probe["q_out"], 0.01 * 0.005226036332105808,
                        rtol=1e-12)

    def test_swe_probe_handles_dry_edge(self):
        model = swe_model()
        wet = outflow_probe(SurfaceState(h=np.array([0.2]),
                                         hu=np.array([-0.04])), model)
        assert_allclose(wet["u0"], 0.2, rtol=1e-14)
        assert_allclose(wet["q_out"], 0.04, rtol=1e-14)
        dry = outflow_probe(SurfaceState(h=np.array([0.0]),
                                         hu=np.array([0.0])), model)
        assert dry["u0"] == 0.0 and dry["q_out"] == 0.0
