"""Tests for scenario configuration, builders, CSV output and the CLI."""

import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import MatrixRankWarning

import coupledflow
from coupledflow import analysis, cli, scenarios
from coupledflow.coupling import TRACE_COLUMNS, CoupledProblem
from coupledflow.iteration import NewtonError
from coupledflow.material import SOIL_PRESETS
from coupledflow.richards2d import Grid2D
from coupledflow.scenarios import (
    ConfigError,
    PRESETS,
    ScenarioConfig,
    build_all,
    build_material,
    format_value,
    load_config,
    manning_minutes_to_si,
    parse_overrides,
    per_hour_to_si,
    per_minute_to_si,
    preset,
    side_dirichlet,
    write_csv,
)


class TestUnits:
    def test_direction_of_conversion(self):
        assert_allclose(per_hour_to_si(0.1), 0.1 / 3600.0, rtol=1e-15)
        assert_allclose(per_minute_to_si(3.3e-4), 3.3e-4 / 60.0, rtol=1e-15)
        # Manning n carries time units in the numerator
        assert_allclose(manning_minutes_to_si(3.31e-3), 0.1986, rtol=1e-12)


class TestPresets:
    def test_all_presets_build(self):
        assert len(PRESETS) == 6
        for name, config in PRESETS.items():
            assert config.name == name
            problem, state = build_all(config)
            assert problem.grid.num_nodes \
                == (config.num_x + 1) * (config.num_z + 1)
            assert state.q.shape \
                == (2 if config.flavor == "swe" else 1, config.num_x)
            assert problem.num_steps == config.num_steps

    def test_build_all_copies_every_run_setting(self):
        # each value differs from both the preset's and the problem's
        # default, so a setting dropped on the way leaves a different value
        settings = dict(rain_rate=3e-5, rain_cutoff=5000.0, omega=0.7,
                        tol=1e-9, max_iters=42, dt=12.0, num_steps=17,
                        output_every=3)
        base = preset("trench-loam")
        defaults = {item.name: item.default
                    for item in dataclasses.fields(CoupledProblem)}
        problem, _ = build_all(dataclasses.replace(base, **settings))
        for name, value in settings.items():
            assert getattr(base, name) != value != defaults[name]
            assert getattr(problem, name) == value

    def test_build_all_builds_the_grid_once(self, monkeypatch):
        built = []
        check = Grid2D.__post_init__

        def counting(grid):
            built.append(grid)
            check(grid)

        monkeypatch.setattr(Grid2D, "__post_init__", counting)
        problem, _ = build_all(preset("trench-loam"))
        assert built == [problem.grid]

    def test_simulate_with_overrides_builds_the_grid_once(self, monkeypatch,
                                                          tmp_path, capsys):
        # load_config only parses; build_all is the one place that builds
        built = []
        check = Grid2D.__post_init__

        def counting(grid):
            built.append(grid)
            check(grid)

        monkeypatch.setattr(Grid2D, "__post_init__", counting)
        assert cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "coupling.num_steps=1",
                         "--out", str(tmp_path / "once")]) == 0
        assert len(built) == 1

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as info:
            preset("trench-sand")
        assert "trench-loam" in str(info.value)

    def test_trench_initial_profile(self):
        config = preset("trench-loam")
        assert config.psi0_at(0.3, 0.5) == pytest.approx(0.5)
        assert config.psi0_at(2.0, 3.0) == pytest.approx(-2.0)

    def test_hillslope_initial_profile_tilts(self):
        config = preset("hillslope-sandy")
        assert config.psi0_at(0.0, 0.0) == pytest.approx(4.0)
        assert config.psi0_at(400.0, 0.0) == pytest.approx(4.2)

    def test_surface_flavors(self):
        assert preset("trench-clay").flavor == "swe"
        assert preset("hillslope-silt").flavor == "kinematic"
        assert preset("hillslope-silt-lowrain").rain_rate \
            == pytest.approx(per_minute_to_si(3.3e-5))


class TestSideDirichlet:
    def test_trench_wall_nodes(self):
        config = preset("trench-loam")
        problem, _ = build_all(config)
        data = problem.static_dirichlet
        # walls are pinned strictly below 1 m: rows z = 0, 0.375, 0.75
        assert data.nodes.size == 6
        x, z = problem.grid.node_coords()
        assert set(np.round(z[data.nodes], 6)) == {0.0, 0.375, 0.75}
        assert np.all((x[data.nodes] == 0.0) | (x[data.nodes] == 2.0))
        assert_allclose(data.values, 1.0 - z[data.nodes], rtol=1e-15)

    def test_disabled_when_none(self):
        config = dataclasses.replace(preset("trench-loam"),
                                     side_dirichlet_below=None)
        problem, _ = build_all(config)
        assert problem.static_dirichlet is None
        assert side_dirichlet(config, problem.grid) is None

    def test_never_selects_the_top_row(self):
        # 3 * (0.9 / 3) rounds below 0.9, so a float test on z would let
        # the two top corners through
        config = dataclasses.replace(preset("trench-loam"), length_z=0.9,
                                     num_z=3, side_dirichlet_below=0.9)
        grid = Grid2D(length_x=config.length_x, length_z=config.length_z,
                      num_x=config.num_x, num_z=config.num_z)
        data = side_dirichlet(config, grid)
        assert data.nodes.size == 6
        assert not set(data.nodes) & set(grid.top_node_indices())


class TestValidation:
    def test_bad_values_rejected(self):
        base = preset("trench-loam")
        for field, value in [("dt", 0.0), ("num_x", 0), ("tol", -1.0),
                             ("omega", 1.5), ("boundary_left", "open"),
                             ("flavor", "dg"), ("k_s", -1.0)]:
            with pytest.raises(ConfigError):
                build_all(dataclasses.replace(base, **{field: value}))

    def test_k_s_override_applies(self):
        config = dataclasses.replace(preset("hillslope-sandy"), k_s=1.16e-6)
        build_all(config)
        field = build_material(config)
        bound = field.at(np.array([0.0]))
        assert_allclose(
            bound.at_heads(np.array([1.0])).hydraulic_conductivity[0], 1.16e-6,
            rtol=1e-15)

    def test_k_s_override_rejected_for_blends(self):
        config = dataclasses.replace(preset("trench-mixed"), k_s=1e-6)
        with pytest.raises(ConfigError):
            build_material(config)


class TestLoadConfig:
    def write(self, tmp_path, text, name="case.ini"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_file_with_base_and_units(self, tmp_path):
        path = self.write(tmp_path, """
[scenario]
base = trench-clay

[grid]
num_x = 4

[rain]
rate = 0.2
units = per_hour

[coupling]
num_steps = 5
""")
        config = load_config(path)
        assert config.name == "case"
        assert config.soil == "beit-netofa-clay"
        assert config.num_x == 4
        assert config.rain_rate == pytest.approx(0.2 / 3600.0)
        assert config.num_steps == 5

    def test_explicit_name_wins_over_stem(self, tmp_path):
        path = self.write(tmp_path, "[scenario]\nname = custom\n")
        assert load_config(path).name == "custom"

    def test_units_keys_are_order_independent(self, tmp_path):
        first = load_config(self.write(
            tmp_path, "[rain]\nrate = 1.2\nunits = per_minute\n", "a.ini"))
        second = load_config(self.write(
            tmp_path, "[rain]\nunits = per_minute\nrate = 1.2\n", "b.ini"))
        assert first.rain_rate == second.rain_rate \
            == pytest.approx(1.2 / 60.0)

    def test_manning_units(self, tmp_path):
        path = self.write(tmp_path, """
[scenario]
base = hillslope-sandy

[surface]
manning_n = 3.31e-3
manning_units = per_minute
""")
        assert load_config(path).manning_n == pytest.approx(0.1986)

    @pytest.mark.parametrize("text, known", [
        ("[rain]\nrate = 1.2\nunits = per_day\n",
         "per_hour, per_minute, si"),
        ("[rain]\nunits = per_day\n", "per_hour, per_minute, si"),
        ("[scenario]\nbase = hillslope-sandy\n[surface]\n"
         "manning_n = 3.31e-3\nmanning_units = per_hour\n", "per_minute, si"),
        ("[surface]\nmanning_units = per_hour\n", "per_minute, si"),
    ])
    def test_unknown_units(self, tmp_path, text, known):
        with pytest.raises(ConfigError, match=f"known: {known}"):
            load_config(self.write(tmp_path, text))

    def test_unknown_section_and_key(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(self.write(tmp_path, "[weather]\nrate = 1\n"))
        assert "weather" in str(info.value)
        with pytest.raises(ConfigError) as info:
            load_config(self.write(tmp_path, "[grid]\nn_x = 3\n", "k.ini"))
        assert "num_x" in str(info.value)

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write(tmp_path, "[grid]\nnum_x = many\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/config.ini")

    def test_overrides_and_base_argument(self):
        config = load_config(base="hillslope-silt",
                             overrides=["coupling.num_steps=7",
                                        "grid.num_z=30"])
        assert config.soil == "silt-loam"
        assert config.num_steps == 7
        assert config.num_z == 30

    def test_override_format_errors(self):
        with pytest.raises(ConfigError):
            parse_overrides(["grid.num_x"])
        with pytest.raises(ConfigError):
            parse_overrides(["numx=3"])


class TestCsv:
    def test_format_value(self):
        assert format_value(True) == "true"
        assert format_value(np.int64(7)) == "7"
        assert format_value(0.1) == "0.10000000000000001"
        assert format_value("trench") == "trench"

    def test_floats_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(41)
        values = list(rng.normal(size=20)) + [1e-300, 1e300, 3.5]
        path = str(tmp_path / "roundtrip.csv")
        write_csv(path, ("v",), [{"v": value} for value in values])
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            back = [float(row["v"]) for row in reader]
        assert back == values

    def test_single_header(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        lines = open(path).read().splitlines()
        assert lines == ["a,b", "1,2", "3,4"]


class TestCli:
    def test_presets_listing(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0].rstrip(":")
                 for line in out.strip().splitlines()]
        assert names == sorted(PRESETS)

    def test_analyze_material_mode(self, tmp_path, capsys):
        out_dir = str(tmp_path / "sweep")
        code = cli.main(["analyze", "--mode", "material", "--c", "1:100:3",
                         "--k", "2.0", "--out", out_dir])
        assert code == 0
        with open(os.path.join(out_dir, "sweep.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert [float(row["c"]) for row in rows] \
            == pytest.approx([1.0, 10.0, 100.0])
        assert all(float(row["K"]) == 2.0 for row in rows)
        assert all(float(row["S"]) < 0.0 for row in rows)

    def test_analyze_resolution_matches_library_sweep(self, tmp_path):
        out_dir = str(tmp_path / "cli")
        assert cli.main(["analyze", "--mode", "resolution",
                         "--dt", "0.01:1:4", "--dz", "0.1:0.5:3",
                         "--c", "1.0", "--k", "1.0", "--out", out_dir]) == 0
        library = str(tmp_path / "library.csv")
        write_csv(library, analysis.SWEEP_COLUMNS, analysis.sweep(
            1.0, 1.0, analysis.default_log_grid(0.01, 1.0, 4),
            analysis.default_log_grid(0.1, 0.5, 3), 1.0))
        with open(os.path.join(out_dir, "sweep.csv"), "rb") as handle:
            cli_bytes = handle.read()
        with open(library, "rb") as handle:
            assert cli_bytes == handle.read()
        assert cli_bytes.count(b"\n") == 13

    def test_analyze_rejects_bad_axis(self, tmp_path, capsys):
        assert cli.main(["analyze", "--c", "1:2", "--out",
                         str(tmp_path)]) == 2
        assert "axis" in capsys.readouterr().err
        assert cli.main(["analyze", "--c", "1:10:0", "--out",
                         str(tmp_path)]) == 2
        assert "needs positive finite bounds and count >= 1" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["linrun", "--steps", "0"],
        ["linrun", "--num-elements", "1"],
        ["linrun", "--num-elements", "0"],
        ["linrun", "--tol", "0"],
        ["linrun", "--max-iters", "0"],
        ["linrun", "--c=-1"],
        ["linrun", "--c", "inf"],
        ["analyze", "--length", "-1"],
        ["analyze", "--length", "inf"],
        ["analyze", "--mode", "resolution", "--c", "-1"],
        ["analyze", "--c", "inf", "--k", "1"],
        ["analyze", "--dz", "1e-320"],
        ["analyze", "--mode", "resolution", "--c", "1e-320", "--k", "1e-320"],
        ["analyze", "--mode", "resolution", "--c", "1e-320", "--k", "1e-320",
         "--dt", "1", "--dz", "0.5"],
        ["analyze", "--c", "1e300", "--k", "1"],
        ["linrun", "--c", "1e-320", "--k", "1e-320"],
        ["analyze", "--c", "1", "--k", "1", "--dz", "5e-7"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "rain.rate=nan"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "coupling.dt=nan"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "coupling.tol=inf"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "surface.gravity=nan"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "rain.cutoff=nan"],
        ["simulate", "--scenario", "hillslope-sandy",
         "--override", "surface.manning_n=nan"],
        ["simulate", "--scenario", "hillslope-sandy",
         "--override", "surface.manning_n=-1"],
        ["simulate", "--scenario", "hillslope-sandy",
         "--override", "surface.friction_slope=0"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "surface.gravity=-1"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "rain.rate=-1"],
        ["simulate", "--scenario", "trench-loam",
         "--cr-exclude-threshold", "nan"],
        ["simulate", "--scenario", "trench-loam",
         "--cr-exclude-threshold", "inf"],
        ["simulate", "--scenario", "trench-loam",
         "--cr-exclude-threshold", "0"],
        ["simulate", "--scenario", "trench-loam",
         "--cr-exclude-threshold", "-1"],
        ["linrun", "--tol", "inf"],
    ])
    def test_out_of_range_numeric_flag_is_a_config_error(self, argv,
                                                         tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "out"))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -1.0])
    def test_run_scenario_rejects_bad_threshold(self, threshold, tmp_path):
        config = dataclasses.replace(preset("trench-loam"), num_steps=5)
        out = str(tmp_path / "out")
        with pytest.raises(ConfigError, match="cr_exclude_threshold"):
            scenarios.run_scenario(config, out,
                                   cr_exclude_threshold=threshold)
        assert not os.path.exists(out)

    def test_simulate_single_element_column_is_a_config_error(self, tmp_path,
                                                              capsys):
        # the contraction predictor's linear column needs two elements
        out = str(tmp_path / "flat")
        assert cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "grid.num_z=1",
                         "--override", "coupling.num_steps=1",
                         "--out", out]) == 2
        assert "num_z" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_simulate_side_wall_up_to_the_top_row(self, tmp_path):
        assert cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "grid.length_z=0.9",
                         "--override", "grid.num_z=3",
                         "--override", "subsurface.side_dirichlet_below=0.9",
                         "--override", "coupling.num_steps=2",
                         "--out", str(tmp_path / "top")]) == 0

    def test_import_leaves_out_optimize_and_multiprocessing(self):
        src = os.path.dirname(os.path.dirname(coupledflow.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import coupledflow.cli, sys; print(sorted(name for name in "
                "('scipy.optimize', 'multiprocessing') if name in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_linrun_reports_rate(self, tmp_path, capsys):
        code = cli.main(["linrun", "--omega", "0.5", "--tol", "1e-10",
                         "--out", str(tmp_path / "lin")])
        assert code == 0
        out = capsys.readouterr().out
        assert "CR_1 = " in out
        assert "|CR_1 - |Sigma|| = " in out
        assert os.path.exists(str(tmp_path / "lin" / "trace.csv"))
        assert os.path.exists(str(tmp_path / "lin" / "steps.csv"))

    def test_linrun_opt_converges_too_fast_for_a_rate(self, tmp_path,
                                                      capsys):
        code = cli.main(["linrun", "--omega", "opt",
                         "--out", str(tmp_path / "lin")])
        assert code == 0
        assert "CR_1 undefined" in capsys.readouterr().out

    def test_linrun_rejects_bad_omega(self, tmp_path, capsys):
        assert cli.main(["linrun", "--omega", "1.5",
                         "--out", str(tmp_path / "l1")]) == 2
        assert cli.main(["linrun", "--omega", "fast",
                         "--out", str(tmp_path / "l2")]) == 2

    def test_simulate_needs_a_scenario(self, capsys):
        assert cli.main(["simulate"]) == 2
        assert capsys.readouterr().err != ""

    def test_simulate_unknown_preset(self, capsys):
        assert cli.main(["simulate", "--scenario", "trench-sand"]) == 2

    def test_simulate_trench_smoke(self, tmp_path, capsys):
        out_dir = str(tmp_path / "trench")
        code = cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "coupling.num_steps=2",
                         "--override", "coupling.output_every=1",
                         "--out", out_dir])
        assert code == 0
        assert "trench-loam: 2 steps" in capsys.readouterr().out
        with open(os.path.join(out_dir, "trace.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert tuple(rows[0]) == TRACE_COLUMNS
        for step in (0, 1, 2):
            assert os.path.exists(
                os.path.join(out_dir, f"field_{step:05d}.csv"))
        assert not os.path.exists(os.path.join(out_dir, "probe.csv"))
        with open(os.path.join(out_dir, "summary.csv"), newline="") as handle:
            summary = list(csv.DictReader(handle))
        assert summary[0]["scenario"] == "trench-loam"

    def test_simulate_hillslope_writes_probe(self, tmp_path):
        out_dir = str(tmp_path / "slope")
        code = cli.main(["simulate", "--scenario", "hillslope-sandy",
                         "--override", "coupling.num_steps=2",
                         "--override", "coupling.output_every=1",
                         "--out", out_dir])
        assert code == 0
        with open(os.path.join(out_dir, "probe.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert [float(row["t"]) for row in rows] == [0.0, 60.0, 120.0]

    def test_simulate_divergence_exit_code(self, tmp_path, capsys):
        code = cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "coupling.omega=1e-4",
                         "--override", "coupling.max_iters=3",
                         "--override", "coupling.num_steps=1",
                         "--out", str(tmp_path / "div")])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_simulate_newton_failure_exit_code(self, tmp_path, monkeypatch,
                                               capsys):
        def explode(config, out_dir, cr_exclude_threshold=None):
            raise NewtonError("soil solve failed", residual_norm=1.0,
                              iterations=50)

        monkeypatch.setattr(cli.scenarios, "run_scenario", explode)
        code = cli.main(["simulate", "--scenario", "trench-loam",
                         "--out", str(tmp_path / "boom")])
        assert code == 4
        assert "soil solve failed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_simulate_non_finite_newton_trial_exit_code(self, tmp_path,
                                                        capsys):
        # the Jacobian overflows (its RuntimeWarnings are expected), spsolve
        # finds it singular and returns nan, and the trial's water content
        # is non-finite
        with pytest.warns(MatrixRankWarning, match="singular"):
            code = cli.main(["simulate", "--scenario", "trench-loam",
                             "--override", "soil.k_s=1e308",
                             "--override", "coupling.num_steps=2",
                             "--out", str(tmp_path / "ks")])
        assert code == 4
        assert "non-finite water content" in capsys.readouterr().err
