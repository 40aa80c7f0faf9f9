"""Tests for the linearized column testbench.

The single step solve is checked against a dense assembly of the same
system and, bit for bit, against the unfactored banded solve it replaced;
the sweep's interface row, bit for bit, against the last entry of the full
solve, and whole runs against the per-sweep full solves it replaced; the
step's batched residual check against the per-solve check it replaced;
the iteration behaviour against the affine interface map
psi -> S psi + tail, whose slope the analysis module predicts.
"""

import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from coupledflow import cli, linear1d
from coupledflow.analysis import LinearModelParams, discrete_S, sigma
from coupledflow.iteration import fixed_point, observed_cr
from coupledflow.linear1d import (
    Linear1DSystem,
    NonFiniteError,
    StepResult,
    build_system,
    check_solves,
    initial_state,
    run_simulation,
    run_time_step,
    subsurface_solve,
    summary_rows,
    surface_update,
    trace_rows,
)


def affine_tail(sys) -> float:
    """Constant term of the interface map: psi_tilde = S psi_prev + tail."""
    return surface_update(sys, sys.last_unknown(0.0), 0.0)


def standard_params(**overrides) -> LinearModelParams:
    base = dict(c=1.0, k=1.0, length=1.0, dt=0.1, num_elements=10)
    base.update(overrides)
    return LinearModelParams(**base)


def dense_solve_oracle(p: LinearModelParams, psi_old: np.ndarray,
                       gamma_old: float, gamma_frozen: float) -> np.ndarray:
    """Assemble the interior system densely and solve with numpy."""
    size = p.num_elements - 1
    c_dz = p.c * p.dz
    a = 2.0 / 3.0 * c_dz + 2.0 * p.k * p.dt / p.dz
    b = c_dz / 6.0 - p.k * p.dt / p.dz
    matrix = np.diag(np.full(size, a))
    idx = np.arange(size - 1)
    matrix[idx, idx + 1] = b
    matrix[idx + 1, idx] = b
    mass = np.diag(np.full(size, 2.0 / 3.0 * c_dz))
    mass[idx, idx + 1] = c_dz / 6.0
    mass[idx + 1, idx] = c_dz / 6.0
    rhs = mass @ psi_old
    rhs[-1] += c_dz / 6.0 * gamma_old
    rhs[-1] -= b * gamma_frozen
    return np.linalg.solve(matrix, rhs)


def banded_solve_oracle(sys, psi_gamma_prev_iter: float) -> np.ndarray:
    """The solve before the factor was kept: the whole right-hand side and
    the band array built per call, then scipy's solveh_banded (dptsv)."""
    c_dz = sys.params.c * sys.params.dz
    vector = sys.psi_interior_old
    rhs = 2.0 / 3.0 * c_dz * vector
    rhs[1:] += c_dz / 6.0 * vector[:-1]
    rhs[:-1] += c_dz / 6.0 * vector[1:]
    rhs[-1] += c_dz / 6.0 * sys.psi_gamma_old
    rhs[-1] -= sys.off_diag * psi_gamma_prev_iter
    if sys.num_interior == 1:
        return rhs / sys.diag
    bands = np.zeros((2, sys.num_interior))
    bands[0, 1:] = sys.off_diag
    bands[1, :] = sys.diag
    return solveh_banded(bands, rhs)


def checked_solve_oracle(sys, psi_gamma_prev_iter: float) -> np.ndarray:
    """The solve before the residual check was batched per step: each
    sweep tests its whole right-hand side and checks its own residual."""
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


def per_sweep_step(solve):
    """run_time_step before the interface row: each sweep solves the whole
    interior system with solve and updates the surface from the last entry
    of that solution."""
    def run_time_step(sys, omega, tol=1e-8, max_iters=200):
        solutions = []

        def sweep(psi_gamma):
            solutions.append(solve(sys, psi_gamma))
            return surface_update(sys, solutions[-1][-1], psi_gamma)

        psi_gamma, iterates, residuals = fixed_point(
            sweep, sys.psi_gamma_old, omega, tol, max_iters, abs)
        return StepResult(psi_gamma=psi_gamma, psi_interior=solutions[-1],
                          iterates=np.asarray(iterates),
                          iterations=len(residuals),
                          residuals=np.asarray(residuals),
                          converged=residuals[-1] < tol,
                          cr=observed_cr(residuals))
    return run_time_step


def with_wrong_factor(sys, relative: float):
    """sys with the factor of its matrix's diagonal scaled by 1 + relative,
    so each solve leaves a residual of about relative |A| |x|."""
    n = sys.num_interior
    return replace(sys, factor=dpttrf(np.full(n, sys.diag * (1.0 + relative)),
                                      np.full(n - 1, sys.off_diag)))


def perfbench_unit():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "unit.py"
    spec = importlib.util.spec_from_file_location("perfbench_unit", path)
    unit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unit)
    return unit


# parameters where S = -1000: the relaxed iterate overflows in step 1
OVERFLOW = dict(c=1e-3, k=1e3, dt=1.0, num_elements=20)

FACTOR_CASES = [(num_elements, c, k, dt)
                for num_elements in (2, 3, 7, 40)
                for c, k, dt in ((1.0, 1.0, 0.05), (0.7, 0.25, 0.3),
                                 (0.2, 2.0, 0.5), (3.0, 1e-3, 0.01))]


class TestInitialState:
    def test_linear_profile(self):
        p = LinearModelParams(c=1.0, k=1.0, length=2.0, dt=0.1,
                              num_elements=4)
        interior, gamma = initial_state(p)
        assert_allclose(interior, [0.75, 0.5, 0.25], rtol=1e-15)
        assert gamma == 0.0

    def test_wrong_length_rejected(self):
        p = standard_params()
        with pytest.raises(ValueError):
            build_system(p, psi_interior_old=np.zeros(3), psi_gamma_old=0.0)


class TestSubsurfaceSolve:
    @pytest.mark.parametrize("num_elements", [2, 3, 7, 40])
    def test_matches_dense_oracle(self, num_elements):
        rng = np.random.default_rng(num_elements)
        p = standard_params(num_elements=num_elements, c=0.7, k=0.25,
                            dt=0.05)
        psi_old = rng.normal(size=num_elements - 1)
        gamma_old = rng.normal()
        gamma_frozen = rng.normal()
        sys = build_system(p, psi_old, gamma_old)
        assert_allclose(subsurface_solve(sys, gamma_frozen),
                        dense_solve_oracle(p, psi_old, gamma_old,
                                           gamma_frozen),
                        rtol=1e-12, atol=1e-14)

    def test_single_interior_closed_form(self):
        p = standard_params(num_elements=2, c=2.0, k=0.5, dt=0.2)
        sys = build_system(p, np.array([0.3]), 0.1)
        c_dz = 2.0 * 0.5
        a = 2.0 / 3.0 * c_dz + 2.0 * 0.5 * 0.2 / 0.5
        b = c_dz / 6.0 - 0.5 * 0.2 / 0.5
        rhs = 2.0 / 3.0 * c_dz * 0.3 + c_dz / 6.0 * 0.1 - b * 0.7
        assert_allclose(subsurface_solve(sys, 0.7), [rhs / a], rtol=1e-14)


class TestFactoredSolve:
    @pytest.mark.parametrize("num_elements,c,k,dt", FACTOR_CASES)
    def test_bitwise_equal_to_banded_solve(self, num_elements, c, k, dt):
        rng = np.random.default_rng(num_elements)
        p = standard_params(num_elements=num_elements, c=c, k=k, dt=dt)
        sys = build_system(p, rng.normal(size=num_elements - 1), rng.normal())
        for gamma in (0.0, *rng.normal(size=5, scale=3.0)):
            assert np.array_equal(subsurface_solve(sys, gamma),
                                  banded_solve_oracle(sys, gamma))

    @staticmethod
    def assert_run_bitwise_equal_to_banded_run(monkeypatch, p):
        factored = run_simulation(p, num_steps=6, tol=1e-12)
        monkeypatch.setattr(linear1d, "run_time_step",
                            per_sweep_step(banded_solve_oracle))
        banded = run_simulation(p, num_steps=6, tol=1e-12)
        assert list(trace_rows(factored)) == list(trace_rows(banded))
        assert summary_rows(factored) == summary_rows(banded)
        for left, right in zip(factored.steps, banded.steps):
            assert np.array_equal(left.psi_interior, right.psi_interior)
        return factored

    @pytest.mark.parametrize("num_elements,c,k,dt", FACTOR_CASES)
    def test_run_bitwise_equal_to_banded_run(self, monkeypatch, num_elements,
                                             c, k, dt):
        p = standard_params(num_elements=num_elements, c=c, k=k, dt=dt,
                            omega=0.6)
        self.assert_run_bitwise_equal_to_banded_run(monkeypatch, p)

    def test_multi_block_run_bitwise_equal_to_banded_run(self, monkeypatch):
        # 399 unknowns: blocks of 41 solves under the real SWEEP_CHUNK, so
        # every step's solves span a block boundary
        trace = self.assert_run_bitwise_equal_to_banded_run(
            monkeypatch, standard_params(num_elements=400, dt=0.05,
                                         omega=0.3))
        block = linear1d.SWEEP_CHUNK // 399
        assert all(block < step.iterations <= 2 * block
                   for step in trace.steps)

    def test_factors_once_per_build_and_solves_once_per_checked_block(
            self, monkeypatch):
        calls = {"dpttrf": 0, "dpttrs": 0, "subsurface_solve": 0,
                 "check_solves": 0}

        def counting(name):
            original = getattr(linear1d, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(linear1d, name, counting(name))
        # blocks of 3 sweeps at 9 unknowns; one more dpttrs per system
        # (each step's, and the build's) eliminates the rows above the last
        monkeypatch.setattr(linear1d, "SWEEP_CHUNK", 3 * 9 + 2)
        trace = run_simulation(standard_params(omega=0.5), num_steps=5,
                               tol=1e-12)
        assert calls["dpttrf"] == 1
        blocks = sum(-(-step.iterations // 3) for step in trace.steps)
        assert blocks > len(trace.steps)
        assert calls["subsurface_solve"] == calls["check_solves"] == blocks
        assert calls["dpttrs"] == blocks + len(trace.steps) + 1
        build_system(standard_params())
        assert calls["dpttrf"] == 2

    @pytest.mark.parametrize("num_elements", [2, 7])
    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    def test_non_finite_interface_value_rejected(self, num_elements, gamma):
        sys = build_system(standard_params(num_elements=num_elements))
        with pytest.raises(NonFiniteError, match="finite"):
            sys.last_unknown(gamma)

    def test_build_rejects_a_failed_factorization(self, monkeypatch):
        def failing(d, e):
            d, e, _ = dpttrf(d, e)
            return d, e, 1

        monkeypatch.setattr(linear1d, "dpttrf", failing)
        with pytest.raises(ValueError,
                           match="interior matrix is not positive definite"):
            build_system(standard_params(num_elements=5))

    @pytest.mark.parametrize("diag", [0.0, -1.0])
    def test_build_rejects_a_non_positive_single_diagonal(self, monkeypatch,
                                                          diag):
        monkeypatch.setattr(linear1d, "toeplitz_coeffs",
                            lambda p: (diag, 0.1))
        with pytest.raises(ValueError,
                           match="interior matrix is not positive definite"):
            build_system(standard_params(num_elements=2))

    def test_residual_check_catches_a_wrong_factor(self):
        sys = build_system(standard_params(num_elements=5))
        other = replace(sys, factor=dpttrf(np.full(4, 2.0 * sys.diag),
                                           np.full(3, sys.off_diag)))
        with pytest.raises(RuntimeError, match="residual check"):
            check_solves(other, [0.5], [subsurface_solve(other, 0.5)])

    def test_next_step_keeps_the_factor(self):
        sys = build_system(standard_params(num_elements=7))
        later = sys.with_previous_state(np.ones(6), 0.25)
        assert later.factor is sys.factor
        assert np.array_equal(later.rhs_old, build_system(
            standard_params(num_elements=7), np.ones(6), 0.25).rhs_old)


class TestInterfaceRow:
    @pytest.mark.parametrize("num_interior", [1, 2, 3, 39, 1000])
    def test_equals_the_last_entry_of_the_full_solve(self, num_interior):
        """Bit for bit, against scipy's dpttrs on the whole right-hand side
        (the division for one unknown), on random systems and values."""
        rng = np.random.default_rng(num_interior)
        for _ in range(600 if num_interior < 1000 else 60):
            c, k, dt = 10.0 ** rng.uniform(-3, 3, size=3)
            p = standard_params(num_elements=num_interior + 1, c=c, k=k,
                                dt=dt)
            scale = 10.0 ** rng.uniform(-6, 6)
            sys = build_system(p, rng.normal(size=num_interior, scale=scale),
                               rng.normal(scale=scale))
            gammas = rng.normal(size=5, scale=scale * 10.0 ** rng.uniform(
                -3, 3, size=5))
            for gamma in gammas:
                rhs = sys.rhs_old.copy()
                rhs[-1] -= sys.off_diag * gamma
                if num_interior == 1:
                    expected = rhs[-1] / sys.diag
                else:
                    expected = dpttrs(*sys.factor[:2], rhs)[0][-1]
                assert sys.last_unknown(gamma) == expected
            block = subsurface_solve(sys, gammas)
            assert block.shape == (5, num_interior)
            for gamma, solution in zip(gammas, block):
                assert np.array_equal(solution, subsurface_solve(sys, gamma))
            assert np.array_equal(block[:, -1],
                                  [sys.last_unknown(g) for g in gammas])

    def test_empty_block(self):
        # a step that raises before its first sweep recovers no solve
        sys = build_system(standard_params(num_elements=5))
        assert subsurface_solve(sys, []).shape == (0, 4)


class TestBatchedCheck:
    def test_run_time_step_catches_a_wrong_factor(self):
        sys = build_system(standard_params(num_elements=5))
        other = replace(sys, factor=dpttrf(np.full(4, 2.0 * sys.diag),
                                           np.full(3, sys.off_diag)))
        with pytest.raises(RuntimeError,
                           match="banded solve failed its residual check"):
            run_time_step(other, omega=0.5)

    def test_residual_failure_before_an_overflow_decides(self):
        sys = build_system(standard_params(**OVERFLOW))
        with pytest.raises(NonFiniteError, match="finite"):
            run_time_step(sys, omega=1.0)
        with pytest.raises(RuntimeError, match="residual check") as info:
            run_time_step(with_wrong_factor(sys, 1.0), omega=1.0)
        # the step went on to overflow; the earlier failed solve decides
        assert isinstance(info.value.__context__, NonFiniteError)

    def test_non_finite_previous_state_rejected(self):
        p = standard_params(num_elements=7)
        psi = np.ones(6)
        psi[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_system(p, psi, 0.0)
        sys = build_system(p)
        with pytest.raises(ValueError, match="finite"):
            sys.with_previous_state(psi, 0.0)
        with pytest.raises(ValueError, match="finite"):
            sys.with_previous_state(np.ones(6), np.inf)

    @pytest.mark.parametrize("num_elements", [3, 7, 40])
    def test_same_bound_as_each_solve(self, num_elements):
        """A batch fails exactly when one of its solves fails the per-solve
        check; factors wrong by a relative 1e-15 to 1e-10 straddle it."""
        rng = np.random.default_rng(num_elements)
        sys = build_system(standard_params(num_elements=num_elements),
                           rng.normal(size=num_elements - 1), rng.normal())
        gammas = [0.0, *rng.normal(size=5, scale=10.0 ** rng.integers(
            -3, 4, size=5))]
        outcomes = set()
        for relative in (1e-15, 1e-13, 3e-13, 1e-12, 3e-12, 1e-11, 1e-10):
            wrong = with_wrong_factor(sys, relative)
            solutions, passes = [], []
            for gamma in gammas:
                solutions.append(subsurface_solve(wrong, gamma))
                try:
                    expected = checked_solve_oracle(wrong, gamma)
                except RuntimeError:
                    passes.append(False)
                else:
                    passes.append(True)
                    assert np.array_equal(expected, solutions[-1])
                    check_solves(wrong, [gamma], solutions[-1:])
            outcomes.update(passes)
            if all(passes):
                check_solves(wrong, gammas, solutions)
            else:
                with pytest.raises(RuntimeError, match="residual check"):
                    check_solves(wrong, gammas, solutions)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("num_elements", [3, 40])
    def test_every_solve_of_a_batch_is_checked(self, num_elements):
        sys = build_system(standard_params(num_elements=num_elements))
        gammas = [0.1 * k for k in range(7)]
        good = [subsurface_solve(sys, gamma) for gamma in gammas]
        wrong = with_wrong_factor(sys, 1e-10)
        check_solves(sys, gammas, good)
        for row, gamma in enumerate(gammas):
            batch = list(good)
            batch[row] = subsurface_solve(wrong, gamma)
            with pytest.raises(RuntimeError, match="residual check"):
                check_solves(sys, gammas, batch)

    @pytest.mark.parametrize("bad", ["all_nan", "one_nan", "all_inf"])
    def test_non_finite_solutions_fail(self, bad):
        sys = build_system(standard_params(num_elements=5))
        x = subsurface_solve(sys, 0.3)
        check_solves(sys, [0.3], [x])
        if bad == "one_nan":
            x[2] = np.nan
        else:
            x[:] = np.nan if bad == "all_nan" else np.inf
        with pytest.raises(RuntimeError, match="residual check"):
            check_solves(sys, [0.3], [x])
        with pytest.raises(RuntimeError, match="residual check"):
            check_solves(sys, [0.3, 0.3], [subsurface_solve(sys, 0.3), x])

    def test_empty_batch_passes(self):
        # a step that raises before its first solve checks an empty batch
        check_solves(build_system(standard_params(num_elements=5)), [], [])

    def test_non_finite_interface_value_fails(self):
        sys = build_system(standard_params(num_elements=5))
        with pytest.raises(RuntimeError, match="residual check"):
            check_solves(sys, [np.nan], [subsurface_solve(sys, 0.3)])

    def test_zero_pivot_fails_the_check_not_the_input(self):
        sys = build_system(standard_params(num_elements=5))
        _, e, _ = sys.factor
        zero_pivot = replace(sys, factor=(np.zeros(4), e, 0))
        with pytest.raises(RuntimeError, match="residual check") as info:
            run_time_step(zero_pivot, omega=0.5)
        # the sweep after the failed solve saw a non-finite interface value
        assert isinstance(info.value.__context__, NonFiniteError)

    @pytest.mark.parametrize("chunk", [1, 3 * 39, 1 << 14])
    def test_blocks_of_any_size_check_every_solve(self, monkeypatch, chunk):
        sys = build_system(standard_params(num_elements=40))
        expected = run_time_step(sys, omega=0.6, tol=1e-12, max_iters=16)
        monkeypatch.setattr(linear1d, "SWEEP_CHUNK", chunk)
        step = run_time_step(sys, omega=0.6, tol=1e-12, max_iters=16)
        assert np.array_equal(step.psi_interior, expected.psi_interior)
        assert np.array_equal(step.residuals, expected.residuals)
        row = Linear1DSystem.last_unknown
        for bad in range(step.iterations):
            calls = []

            def one_wrong(sys, psi_gamma):
                calls.append(psi_gamma)
                value = row(sys, psi_gamma)
                return value + 1e-9 if len(calls) == bad + 1 else value

            monkeypatch.setattr(Linear1DSystem, "last_unknown", one_wrong)
            with pytest.raises(RuntimeError, match="residual check"):
                run_time_step(sys, omega=0.6, tol=1e-12, max_iters=16)
            assert len(calls) > bad
            monkeypatch.setattr(Linear1DSystem, "last_unknown", row)
        with pytest.raises(RuntimeError, match="residual check"):
            run_time_step(with_wrong_factor(
                build_system(standard_params(**OVERFLOW)), 1.0), omega=1.0)

    def test_a_failing_block_is_checked_once(self, monkeypatch):
        blocks = []
        check = linear1d.check_solves

        def recording(sys, psi_gammas, solutions):
            blocks.append(len(psi_gammas))
            check(sys, psi_gammas, solutions)

        monkeypatch.setattr(linear1d, "check_solves", recording)
        # blocks of 3 sweeps at 9 unknowns; the first block fails
        monkeypatch.setattr(linear1d, "SWEEP_CHUNK", 3 * 9 + 2)
        sys = with_wrong_factor(build_system(standard_params(omega=0.5)), 1e-7)
        with pytest.raises(RuntimeError, match="residual check"):
            run_time_step(sys, omega=0.5, tol=1e-12)
        assert blocks == [3]

    def test_solutions_of_a_long_step_are_not_held(self, tmp_path, capsys):
        # one step of 30 sweeps at 99,999 unknowns hits --max-iters; its
        # solutions are 24 MB and checking them as one batch peaks near
        # 150 MB, one solve at a time about 8 MB
        num_interior = 99_999
        tracemalloc.start()
        try:
            code = cli.main(["linrun", "--num-elements",
                             str(num_interior + 1), "--dt", "1",
                             "--max-iters", "30", "--steps", "1",
                             "--out", str(tmp_path / "lin")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "warning: at least one step hit max_iters" \
            in capsys.readouterr().out
        assert peak < 20 * 8 * num_interior

    def test_linrun_with_perfbench_arguments_equals_checked_sweeps(
            self, monkeypatch, tmp_path):
        (argv,) = [argv for argv in perfbench_unit().linear_commands(
            0, str(tmp_path / "batched")) if argv[0] == "linrun"]
        assert cli.main(argv) == 0
        calls = []

        def checked(sys, psi_gamma_prev_iter):
            calls.append(psi_gamma_prev_iter)
            return checked_solve_oracle(sys, psi_gamma_prev_iter)

        monkeypatch.setattr(linear1d, "run_time_step",
                            per_sweep_step(checked))
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / "checked")
        assert cli.main(argv) == 0
        assert len(calls) > 8000
        for name in ("trace.csv", "steps.csv"):
            assert (tmp_path / "checked" / name).read_bytes() \
                == (tmp_path / "batched" / "linrun" / name).read_bytes()


class TestInterfaceMap:
    def test_affine_with_predicted_slope(self):
        """map(psi) - map(psi') = S (psi - psi') for the analysis S."""
        rng = np.random.default_rng(5)
        for num_elements in (2, 5, 20):
            p = standard_params(num_elements=num_elements, c=0.4, k=1.5,
                                dt=0.02)
            sys = build_system(p)
            values = rng.normal(size=4, scale=3.0)
            images = [surface_update(sys, sys.last_unknown(v), v)
                      for v in values]
            S = discrete_S(p).S
            for v, image in zip(values[1:], images[1:]):
                slope = (image - images[0]) / (v - values[0])
                assert_allclose(slope, S, rtol=1e-10)

    def test_tail_completes_the_map(self):
        p = standard_params()
        sys = build_system(p)
        S = discrete_S(p).S
        tail = affine_tail(sys)
        for v in (-1.0, 0.0, 2.5):
            image = surface_update(sys, sys.last_unknown(v), v)
            assert_allclose(image, S * v + tail, rtol=1e-12, atol=1e-14)

    def test_fixed_point_is_invariant(self):
        p = standard_params()
        sys = build_system(p)
        S = discrete_S(p).S
        star = affine_tail(sys) / (1.0 - S)
        image = surface_update(sys, sys.last_unknown(star), star)
        assert abs(image - star) <= 1e-14 * max(1.0, abs(star))


class TestRunTimeStep:
    def test_converges_to_fixed_point(self):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=1.0, tol=1e-12)
        star = affine_tail(sys) / (1.0 - discrete_S(p).S)
        assert step.converged
        assert abs(step.psi_gamma - star) <= 1e-11

    def test_omega_opt_needs_two_iterations(self):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=discrete_S(p).omega_opt, tol=1e-8)
        assert step.converged
        assert step.iterations == 2

    @pytest.mark.parametrize("omega", [0.3, 0.6, 1.0])
    def test_cr_matches_relaxed_factor(self, omega):
        p = standard_params()
        sys = build_system(p)
        step = run_time_step(sys, omega=omega, tol=1e-10)
        expected = abs(sigma(omega, discrete_S(p).S))
        assert step.cr is not None
        assert abs(step.cr - expected) <= 1e-8
        # the affine map makes every consecutive ratio equal, not just
        # their mean; ratios near the stopping tolerance carry rounding
        # noise of the iterate difference, hence the looser bound
        ratios = step.residuals[1:] / step.residuals[:-1]
        assert np.max(np.abs(ratios[:-1] - expected)) <= 1e-6

    def test_divergent_regime_reports_honestly(self):
        p = standard_params(num_elements=500, dt=1.0)
        sys = build_system(p)
        step = run_time_step(sys, omega=1.0, tol=1e-8, max_iters=5)
        assert not step.converged
        assert step.iterations == 5
        assert step.residuals[-1] > step.residuals[0]
        # the ratio law holds regardless of convergence
        assert_allclose(step.cr, abs(discrete_S(p).S), rtol=1e-8)

    def test_rejects_bad_iteration_settings(self):
        sys = build_system(standard_params())
        with pytest.raises(ValueError):
            run_time_step(sys, omega=0.0)
        with pytest.raises(ValueError):
            run_time_step(sys, omega=1.0, tol=0.0)
        with pytest.raises(ValueError):
            run_time_step(sys, omega=1.0, max_iters=0)


class TestRunSimulation:
    def test_marches_and_records(self):
        p = standard_params(omega=1.0)
        trace = run_simulation(p, num_steps=4, tol=1e-10)
        assert len(trace.steps) == 4
        assert not trace.diverged
        assert all(step.converged for step in trace.steps)
        # every step contracts at the same predicted rate
        for step in trace.steps:
            assert abs(step.cr - abs(trace.analysis.S)) <= 1e-7

    def test_divergence_flag(self):
        p = standard_params(num_elements=500, dt=1.0)
        trace = run_simulation(p, num_steps=2, max_iters=5)
        assert trace.diverged

    def test_deterministic(self):
        p = standard_params(omega=0.7)
        first = run_simulation(p, num_steps=3, tol=1e-11)
        second = run_simulation(p, num_steps=3, tol=1e-11)
        for left, right in zip(first.steps, second.steps):
            assert np.array_equal(left.residuals, right.residuals)
            assert left.psi_gamma == right.psi_gamma

    def test_overflow_names_its_step(self):
        with pytest.raises(NonFiniteError,
                           match="the iterate overflowed in step 1 "):
            run_simulation(standard_params(**OVERFLOW), num_steps=2)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            run_simulation(standard_params(), num_steps=0)


class TestObservedCr:
    def test_hand_values(self):
        assert_allclose(observed_cr([1.0, 0.1, 0.01, 1e-9]), 0.1,
                        rtol=1e-15)
        assert_allclose(observed_cr([4.0, 1.0, 0.25]), 0.25, rtol=1e-15)

    def test_short_histories_undefined(self):
        assert observed_cr([]) is None
        assert observed_cr([1.0]) is None
        assert observed_cr([1.0, 0.5]) is None

    def test_final_residual_excluded(self):
        # the last entry may be converged-noise; it must not enter
        assert_allclose(observed_cr([1.0, 0.5, 0.25, 1e-300]), 0.5,
                        rtol=1e-15)


class TestRows:
    def test_trace_rows_cover_every_iterate(self):
        trace = run_simulation(standard_params(omega=1.0), num_steps=3,
                               tol=1e-10)
        rows = list(trace_rows(trace))
        assert len(rows) == sum(step.iterations for step in trace.steps)
        assert rows[0]["n"] == 1 and rows[0]["k"] == 1
        assert set(rows[0]) == {"n", "k", "psi_gamma", "residual"}

    def test_summary_marks_undefined_cr(self):
        p = standard_params()
        omega = discrete_S(p).omega_opt
        trace = run_simulation(
            LinearModelParams(c=1.0, k=1.0, length=1.0, dt=0.1,
                              num_elements=10, omega=omega),
            num_steps=1, tol=1e-8)
        rows = summary_rows(trace)
        assert rows[0]["K_n"] == 2
        assert rows[0]["CR_n"] == ""
