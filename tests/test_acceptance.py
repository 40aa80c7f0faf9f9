"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test prints a single line with the measured quantities on success.  Two
clauses that the printed raw-theta closure cannot attain are kept as strict
xfails so the gap stays visible instead of silently relaxed; the measured
values are in the assertion messages.
"""

import dataclasses
import time

import numpy as np
import pytest
from test_richards2d import natural_csc

from coupledflow.analysis import (
    LinearModelParams,
    alpha_sum,
    default_log_grid,
    discrete_S,
    laplace_height,
    omega_opt_continuous,
    rho_continuous,
    sigma,
    toeplitz_coeffs,
)
from coupledflow.coupling import run_simulation, time_averaged_cr
from coupledflow.linear1d import build_system, run_time_step
from coupledflow.material import SOIL_PRESETS, MaterialField
from coupledflow.richards2d import Grid2D, RichardsWorkspace
from coupledflow.scenarios import build_all, preset
from coupledflow.surface1d import (
    StepStart,
    SurfaceModel,
    implicit_fv_step,
    outflow_probe,
)

TRENCH_SOILS = ("trench-loam", "trench-clay", "trench-mixed")


def timed_simulation(name: str, **changes):
    config = dataclasses.replace(preset(name), **changes)
    problem, state = build_all(config)
    start = time.perf_counter()
    result = run_simulation(problem, state)
    return result, problem, time.perf_counter() - start


@pytest.fixture(scope="module")
def trench_results():
    return {name: timed_simulation(name, tol=1e-10) for name in TRENCH_SOILS}


@pytest.fixture(scope="module")
def hillslope_result():
    return timed_simulation("hillslope-silt")


class TestLinearVerification:
    def test_observed_rate_matches_s(self):
        start = time.perf_counter()
        worst = 0.0
        for num_elements in (20, 500):
            for dt in np.geomspace(1e-3, 1.0, 7):
                p = LinearModelParams(c=1.0, k=1.0, length=1.0,
                                      dt=float(dt),
                                      num_elements=num_elements, omega=1.0)
                predicted = abs(discrete_S(p).S)
                # ponded interface start: the default profile is already the
                # step's fixed point up to exp(-L sqrt(c/(K dt))), which at
                # small dt leaves nothing measurable above rounding.  Fixed
                # iteration budget so divergent points are measured the same
                # way as contracting ones.
                system = build_system(p, psi_gamma_old=1.0)
                step = run_time_step(system, omega=1.0,
                                     tol=1e-300, max_iters=5)
                worst = max(worst, abs(step.cr - predicted))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-8
        assert elapsed < 5.0
        print(f"\nlinear verification: max |CR_1 - |S|| = {worst:.3e} "
              f"over 14 (dz, dt) points ({elapsed:.2f} s)")

    def test_relaxation_sweep(self):
        start = time.perf_counter()
        p = LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                              num_elements=10)
        analysis = discrete_S(p)
        worst = 0.0
        for omega in np.arange(1, 11) / 10.0:
            predicted = abs(sigma(float(omega), analysis.S))
            step = run_time_step(build_system(p), float(omega), tol=1e-10,
                                 max_iters=400)
            assert step.converged
            worst = max(worst, abs(step.cr - predicted))
        assert worst <= 1e-8
        optimal = run_time_step(build_system(p), analysis.omega_opt,
                                tol=1e-8)
        assert optimal.converged
        assert optimal.iterations == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        print(f"\nrelaxation sweep: max |CR_1 - |Sigma(omega)|| = "
              f"{worst:.3e}; omega_opt converges in 2 iterations "
              f"({elapsed:.2f} s)")


def dense_interior(a: float, b: float, size: int) -> np.ndarray:
    matrix = np.zeros((size, size))
    np.fill_diagonal(matrix, a)
    idx = np.arange(size - 1)
    matrix[idx, idx + 1] = b
    matrix[idx + 1, idx] = b
    return matrix


class TestDiscreteOracles:
    def test_schur_complement_and_corner(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_s = 0.0
        worst_alpha = 0.0
        for _ in range(200):
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            k = 10.0 ** rng.uniform(-3.0, 3.0)
            length = 10.0 ** rng.uniform(-1.0, 1.0)
            dt = 10.0 ** rng.uniform(-3.0, 0.0)
            num_elements = int(rng.integers(2, 40))
            p = LinearModelParams(c=c, k=k, length=length, dt=dt,
                                  num_elements=num_elements)
            a, b = toeplitz_coeffs(p)
            size = num_elements - 1
            inverse = np.linalg.inv(dense_interior(a, b, size))
            corner = inverse[-1, -1]
            s_dense = b * b * corner - 0.5 * a
            result = discrete_S(p)
            worst_s = max(worst_s, abs(result.S - s_dense) / abs(s_dense))
            alpha = alpha_sum(a, b, num_elements, p.dz, length)
            worst_alpha = max(worst_alpha,
                              abs(alpha - corner) / abs(corner))
        elapsed = time.perf_counter() - start
        assert worst_s <= 1e-11
        assert worst_alpha <= 1e-12
        assert elapsed < 10.0
        print(f"\ndiscrete oracles: 200 random tuples, S rel err "
              f"{worst_s:.3e}, alpha rel err {worst_alpha:.3e} "
              f"({elapsed:.2f} s)")

    def test_material_sweep_band(self):
        start = time.perf_counter()
        grid = default_log_grid()
        s_values = np.empty((grid.size, grid.size))
        for i, c in enumerate(grid):
            for j, k in enumerate(grid):
                p = LinearModelParams(c=float(c), k=float(k), length=1.0,
                                      dt=0.1, num_elements=20)
                result = discrete_S(p)
                s_values[i, j] = result.S
                assert 0.0 < result.omega_opt < 1.0
        magnitudes = np.abs(s_values)
        assert np.all(s_values < 0.0)
        assert magnitudes.min() <= 1e-3
        assert magnitudes.max() >= 1e2
        crossing = np.sign(magnitudes - 1.0)
        has_level_set = (np.any(crossing[:-1, :] * crossing[1:, :] <= 0.0)
                         or np.any(crossing[:, :-1] * crossing[:, 1:] <= 0.0))
        assert has_level_set
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        print(f"\nmaterial sweep: 25x25 grid, |S| in [{magnitudes.min():.3e},"
              f" {magnitudes.max():.3e}], S < 0 and omega_opt in (0,1) "
              f"everywhere, |S| = 1 level set present ({elapsed:.2f} s)")

    def test_continuous_identities(self):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        c, k, length = 1.0, 1.0, 1.0
        worst_rho = 0.0
        worst_height = 0.0
        for draw in range(50):
            s = 10.0 ** rng.uniform(-3.0, 3.0)
            if draw % 2:
                s = s + 1j * s * rng.uniform(-1.0, 1.0)
            omega = omega_opt_continuous(s, c, k, length)
            worst_rho = max(worst_rho,
                            abs(rho_continuous(s, omega, c, k, length)))
            height = laplace_height(s, c, k, length)
            feedback = (np.sqrt(c * k / s)
                        / np.tanh(np.sqrt(c * s / k) * length))
            worst_height = max(worst_height,
                               abs((s + feedback) * height + k) / k)
        elapsed = time.perf_counter() - start
        assert worst_rho <= 1e-13
        assert worst_height <= 1e-13
        assert elapsed < 1.0
        print(f"\ncontinuous identities: 50 draws, |rho(s, omega_opt)| <= "
              f"{worst_rho:.3e}, height identity residual <= "
              f"{worst_height:.3e} ({elapsed:.2f} s)")


class TestTrench:
    def test_convergence_bands(self, trench_results):
        means = {}
        lines = []
        for name in TRENCH_SOILS:
            result, _, elapsed = trench_results[name]
            assert elapsed < 120.0
            defined = [r.cr for r in result.records if r.cr is not None]
            assert defined, f"{name}: no step produced a defined CR_n"
            assert min(defined) >= 1e-7
            assert max(defined) <= 1e-2
            above = sum(1 for r in result.records
                        if r.cr is not None and r.predicted.abs_s >= r.cr)
            share = above / len(defined)
            assert share >= 0.90
            means[name], _ = time_averaged_cr(result.records)
            lines.append(f"{name}: CR in [{min(defined):.3e}, "
                         f"{max(defined):.3e}], mean {means[name]:.3e}, "
                         f"|S| >= CR at {100 * share:.0f}% of steps "
                         f"({elapsed:.1f} s)")
        assert means["trench-clay"] < means["trench-loam"]
        print("\n" + "\n".join(lines))

    @pytest.mark.xfail(
        strict=True,
        reason="nodal-mean predictor: trench loam c_bar stays near 1.6e-2, "
               "so omega_opt = 1/(1+|S|) tops out near 0.9982")
    def test_omega_opt_band(self, trench_results):
        minima = {
            name: min(r.predicted.omega_opt
                      for r in trench_results[name][0].records)
            for name in TRENCH_SOILS}
        assert all(value > 0.999 for value in minima.values()), (
            f"measured omega_opt minima: {minima}")


class TestResolutionScalings:
    def test_halving_studies(self, trench_results):
        start = time.perf_counter()
        base_mean, _ = time_averaged_cr(trench_results["trench-loam"][0]
                                        .records)
        base_elapsed = trench_results["trench-loam"][2]

        half_dt, _, t1 = timed_simulation("trench-loam", tol=1e-10,
                                          dt=18.0, num_steps=600)
        half_dx, _, t2 = timed_simulation("trench-loam", tol=1e-10,
                                          num_x=10)
        half_dz, _, t3 = timed_simulation("trench-loam", tol=1e-10,
                                          num_z=16)
        dt_ratio = base_mean / time_averaged_cr(half_dt.records)[0]
        dx_mean, _ = time_averaged_cr(half_dx.records)
        dx_change = abs(dx_mean - base_mean) / base_mean
        dz_mean, _ = time_averaged_cr(half_dz.records)

        assert 1.6 <= dt_ratio <= 2.4
        assert dx_change < 0.10
        assert dz_mean > base_mean
        elapsed = time.perf_counter() - start + base_elapsed
        assert elapsed < 600.0
        print(f"\nresolution scalings: dt halving ratio {dt_ratio:.4f}, "
              f"dx halving change {100 * dx_change:.4f}%, dz halving "
              f"ratio {dz_mean / base_mean:.4f} ({elapsed:.1f} s)")


class TestHillslope:
    def test_outflow_peak_at_rain_cutoff(self, hillslope_result):
        result, problem, elapsed = hillslope_result
        assert elapsed < 600.0
        config = preset("hillslope-silt")
        times = np.array([step * config.dt for step, _ in result.snapshots])
        q_out = np.array([outflow_probe(state.q, state.time,
                                        problem.surface_model)["q_out"]
                          for _, state in result.snapshots])
        peak_time = times[int(np.argmax(np.abs(q_out)))]
        output_step = config.output_every * config.dt
        assert abs(peak_time - config.rain_cutoff) <= output_step
        print(f"\nhillslope: completed {config.num_steps} steps in "
              f"{elapsed:.1f} s; |q_out| peak {np.max(np.abs(q_out)):.4e} "
              f"at t = {peak_time:.0f} s (rain cutoff "
              f"{config.rain_cutoff:.0f} s, output step "
              f"{output_step:.0f} s)")

    @pytest.mark.xfail(
        strict=True,
        reason="the printed closure evaluates K through raw theta, which "
               "caps unsaturated conductivity near 0.005 K_s; the wetting "
               "front stalls and the predictor stays constant instead of "
               "decaying")
    def test_predictor_decays_early(self, hillslope_result):
        result, _, _ = hillslope_result
        window = [r.predicted.abs_s for r in result.records
                  if r.time <= 90.0 * 60.0]
        ratio = max(window) / min(window)
        assert ratio >= 10.0, (
            f"|S| spans only a factor {ratio:.4f} over the first 90 min "
            f"(range [{min(window):.3e}, {max(window):.3e}])")


class TestConservationSuite:
    def test_surface_mass_capacity_and_jacobian(self):
        start = time.perf_counter()

        # closed basin: total volume is invariant under the implicit step
        walls = {"boundary_left": "reflect", "boundary_right": "reflect"}
        rng = np.random.default_rng(404)
        worst_mass = 0.0
        for flavor in ("swe", "kinematic"):
            if flavor == "swe":
                model = SurfaceModel("swe", gravity=9.81, **walls)
            else:
                model = SurfaceModel("kinematic", manning_n=0.1986,
                                     friction_slope=5e-4, **walls)
            h = 0.5 + 0.3 * rng.random(8)
            q = np.array([h, 0.05 * rng.standard_normal(8)]) \
                if flavor == "swe" else h[None]
            dx = 0.25
            volume = np.sum(h) * dx
            for _ in range(3):
                q, _, _ = implicit_fv_step(StepStart(q, 0.05, dx, model),
                                           np.zeros(8))
            drift = abs(np.sum(q[0]) * dx - volume)
            worst_mass = max(worst_mass, drift / volume)
        assert worst_mass <= 1e-12

        # capacity must be the psi derivative of the water content
        worst_capacity = 0.0
        psi = np.linspace(-3.0, -0.05, 40)
        step = 1e-6 * np.maximum(np.abs(psi), 1.0)
        for params in SOIL_PRESETS.values():
            bound = MaterialField(params).at(0.0)
            derivative = (bound.at_heads(psi + step).theta
                          - bound.at_heads(psi - step).theta) / (2.0 * step)
            capacity = bound.at_heads(psi).capacity
            scale = np.max(np.abs(capacity))
            worst_capacity = max(worst_capacity,
                                 float(np.max(np.abs(capacity - derivative))
                                       / scale))
        assert worst_capacity <= 1e-6

        # assembled Jacobian against directional finite differences
        grid = Grid2D(1.5, 1.0, 3, 4)
        workspace = RichardsWorkspace(
            grid, MaterialField(SOIL_PRESETS["silt-loam"]))
        rng = np.random.default_rng(405)
        psi_old = rng.uniform(-3.0, -0.5, grid.num_nodes)
        psi_new = rng.uniform(-3.0, -0.5, grid.num_nodes)
        jacobian = natural_csc(
            workspace.jacobian(workspace.at_qp(psi_new), 1e5)).toarray()
        worst_jacobian = 0.0
        theta_old = workspace.at_qp(psi_old).soil.theta
        for _ in range(3):
            direction = rng.standard_normal(grid.num_nodes)
            direction /= np.linalg.norm(direction)
            h = 1e-6
            plus = workspace.residual(
                workspace.at_qp(psi_new + h * direction), theta_old, 1e5)
            minus = workspace.residual(
                workspace.at_qp(psi_new - h * direction), theta_old, 1e5)
            fd = (plus - minus) / (2.0 * h)
            exact = jacobian @ direction
            worst_jacobian = max(worst_jacobian,
                                 float(np.max(np.abs(fd - exact))
                                       / np.max(np.abs(exact))))
        assert worst_jacobian <= 1e-5

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        print(f"\nconservation suite: surface mass drift {worst_mass:.3e}, "
              f"capacity FD error {worst_capacity:.3e}, Jacobian FD error "
              f"{worst_jacobian:.3e} ({elapsed:.2f} s)")


class TestSandyMonotonicity:
    def test_rate_grows_with_conductivity(self):
        start = time.perf_counter()
        means = []
        # storm grade rain: below ~7e-5 m/s the largest K_s swallows the
        # whole supply through the saturated boundary, the surface stays at
        # the height floor and the loop converges in one iteration, leaving
        # no rate to measure
        for k_s in (1.16e-7, 1.16e-6, 1.16e-5):
            result, _, _ = timed_simulation("hillslope-sandy", tol=1e-10,
                                            k_s=k_s, num_steps=60,
                                            rain_rate=1.2e-4)
            mean, _ = time_averaged_cr(result.records)
            assert mean is not None
            means.append(mean)
        assert means[0] < means[1] < means[2]
        elapsed = time.perf_counter() - start
        print(f"\nsandy monotonicity: mean CR {means[0]:.3e} < "
              f"{means[1]:.3e} < {means[2]:.3e} for K_s = 1.16e-7, "
              f"1.16e-6, 1.16e-5 ({elapsed:.1f} s)")
