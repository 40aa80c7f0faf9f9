"""Tests for scenario configuration, builders, CSV output and the CLI."""

import csv
import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import MatrixRankWarning

import coupledflow
from coupledflow import analysis, cli, coupling, linear1d, scenarios
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


_oracle_format_float = "%.17g".__mod__
_ORACLE_CELL_FORMATS = {float: _oracle_format_float,
                        np.float64: _oracle_format_float, int: str, str: str}


def oracle_format_value(value) -> str:
    """format_value before rows of numbers were formatted in one call."""
    return _ORACLE_CELL_FORMATS[type(value)](value)


def oracle_write_csv(path, columns, rows) -> None:
    """write_csv before rows of numbers were formatted in one call: every
    cell through format_value, every row through the csv module."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([oracle_format_value(row[column])
                          for column in columns] for row in rows)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """python with args, in a new interpreter that finds this package."""
    src = os.path.dirname(os.path.dirname(coupledflow.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


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
        nodes, heads = problem.static_dirichlet
        # walls are pinned strictly below 1 m: rows z = 0, 0.375, 0.75
        assert nodes.size == 6
        x, z = problem.grid.node_coords()
        assert set(np.round(z[nodes], 6)) == {0.0, 0.375, 0.75}
        assert np.all((x[nodes] == 0.0) | (x[nodes] == 2.0))
        assert_allclose(heads, 1.0 - z[nodes], rtol=1e-15)

    def test_disabled_when_none(self):
        config = dataclasses.replace(preset("trench-loam"),
                                     side_dirichlet_below=None)
        problem, state = build_all(config)
        assert problem.static_dirichlet is None
        assert side_dirichlet(config, problem.grid, state.psi) is None

    def test_never_selects_the_top_row(self):
        # 3 * (0.9 / 3) rounds below 0.9, so a float test on z would let
        # the two top corners through
        config = dataclasses.replace(preset("trench-loam"), length_z=0.9,
                                     num_z=3, side_dirichlet_below=0.9)
        grid = Grid2D(length_x=config.length_x, length_z=config.length_z,
                      num_x=config.num_x, num_z=config.num_z)
        nodes, _ = side_dirichlet(config, grid,
                                  config.psi0_at(*grid.node_coords()))
        assert nodes.size == 6
        assert not set(nodes) & set(grid.top_node_indices())


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

    def test_contradicting_base_item_is_rejected(self, tmp_path):
        # the same name passes; another name than base is an error
        assert load_config(base="hillslope-silt", overrides=[
            "scenario.base=hillslope-silt"]).soil == "silt-loam"
        with pytest.raises(ConfigError, match="'hillslope-silt' contradicts"
                                              " the base preset 'trench-loam'"):
            load_config(base="trench-loam",
                        overrides=["scenario.base=hillslope-silt"])
        # without base, the last [scenario] base item wins
        path = self.write(tmp_path, "[scenario]\nbase = trench-clay\n")
        assert load_config(path, overrides=[
            "scenario.base=hillslope-sandy"]).soil == "sandy-loam"

    def test_whole_float_counts_parse_as_in_the_python_api(self):
        config = load_config(overrides=["grid.num_x=5.0",
                                        "coupling.num_steps=1e1"])
        problem, _ = build_all(config)
        assert (problem.grid.num_x, problem.num_steps) == (5, 10)
        assert type(problem.grid.num_x) is type(problem.num_steps) is int
        with pytest.raises(ConfigError, match="num_steps"):
            build_all(load_config(overrides=["coupling.num_steps=2.5"]))

    def test_override_format_errors(self):
        with pytest.raises(ConfigError):
            parse_overrides(["grid.num_x"])
        with pytest.raises(ConfigError):
            parse_overrides(["numx=3"])


class TestCsv:
    def test_format_value(self):
        assert format_value(7) == "7"
        assert format_value(0.1) == "0.10000000000000001"
        assert format_value("trench") == "trench"
        # one lookup per cell: a type the program never writes has no format
        for value in (np.float32(0.5), True, np.bool_(False), np.int64(7)):
            with pytest.raises(KeyError):
                format_value(value)

    def test_floats_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(41)
        values = list(rng.normal(size=20)) + [1e-300, 1e300, 3.5]
        path = str(tmp_path / "roundtrip.csv")
        write_csv(path, ("v",), [{"v": value} for value in values])
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            back = [float(row["v"]) for row in reader]
        assert back == values

    @pytest.mark.parametrize("columns,cells", [
        (("a", "b", "c"), [
            0.1, np.float64(-2.5e-300), 7, 2**53 + 1, -(2**62) - 3, 2**70,
            np.nan, np.inf, -np.inf, np.float64(np.nan), "", "x,y",
            'say "hi"', "two\nlines", "plain", 0, -0.0, 1e300]),
        (("v",), ["", 1.5, "", 3, "a,b"]),
        (("only",), []),
    ], ids=["mixed", "one-column", "header-only"])
    def test_bytes_equal_the_cell_by_cell_writer(self, tmp_path, columns,
                                                 cells):
        # a row of each cell, then random rows in runs of up to 70 of one
        # row, so numeric rows and quoted rows interleave
        rng = np.random.default_rng(7)
        rows = [dict.fromkeys(columns, cell) for cell in cells]
        while cells and len(rows) < 500:
            picks = rng.integers(len(cells), size=len(columns))
            row = {column: cells[pick]
                   for column, pick in zip(columns, picks)}
            rows.extend([row] * int(rng.integers(1, 71)))
        written, expected = tmp_path / "new.csv", tmp_path / "oracle.csv"
        write_csv(str(written), columns, iter(rows))
        oracle_write_csv(str(expected), columns, rows)
        assert written.read_bytes() == expected.read_bytes()
        if columns == ("v",):
            assert written.read_bytes().startswith(b'v\n""\n')

    def test_a_type_without_a_format_raises(self, tmp_path):
        for row in ({"a": np.float32(0.5), "b": 1.0},
                    {"a": np.float32(0.5), "b": "text"}):
            with pytest.raises(KeyError):
                write_csv(str(tmp_path / "t.csv"), ("a", "b"),
                          [{"a": 1.0, "b": 2.0}, row])

    def test_rows_are_not_held_in_memory(self, tmp_path):
        # 200,000 rows are 4.7 MB of text, written as they are read
        rows = ({"n": n, "x": n / 7.0} for n in range(200_000))
        tracemalloc.start()
        try:
            write_csv(str(tmp_path / "big.csv"), ("n", "x"), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 4e6
        assert peak < 1e6

    def test_single_header(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ("a", "b"), [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        with open(path) as handle:
            lines = handle.read().splitlines()
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
        # geomspace(1, 2, 1) is [1]: HIGH would be dropped silently
        assert cli.main(["analyze", "--c", "1:2:1", "--out",
                         str(tmp_path)]) == 2
        assert "of count 1 needs LOW == HIGH" in capsys.readouterr().err
        assert cli.main(["analyze", "--c", "2:2:1", "--out",
                         str(tmp_path)]) == 0

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
        ["simulate", "--scenario", "trench-loam",
         "--override", "initial.psi_z=1e308",
         "--override", "coupling.num_steps=2"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "initial.psi_x=1e308",
         "--override", "initial.psi_z=1e308",
         "--override", "coupling.num_steps=2"],
        ["simulate", "--scenario", "trench-loam",
         "--override", "initial.h=1e308",
         "--override", "coupling.num_steps=2"],
    ])
    def test_out_of_range_numeric_flag_is_a_config_error(self, argv,
                                                         tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "out"))

    # stderr of each analyze case above when every sweep point went through
    # discrete_S on its own, in row major order
    @pytest.mark.parametrize("argv, message", [
        (["--length", "-1"], "--length must be positive and finite"),
        (["--length", "inf"], "--length must be positive and finite"),
        (["--mode", "resolution", "--c", "-1"],
         "axis '-1' needs positive finite bounds and count >= 1"),
        (["--c", "inf", "--k", "1"],
         "axis 'inf' needs positive finite bounds and count >= 1"),
        (["--dz", "1e-320"], "dz = 9.99989e-321 is too small for length 1"),
        (["--mode", "resolution", "--c", "1e-320", "--k", "1e-320"],
         "S = b^2 alpha - a/2 is not finite (alpha = nan, S = nan); c, k, "
         "dt or dz is out of range"),
        (["--mode", "resolution", "--c", "1e-320", "--k", "1e-320",
          "--dt", "1", "--dz", "0.5"],
         "S = b^2 alpha - a/2 is not finite (alpha = nan, S = nan); c, k, "
         "dt or dz is out of range"),
        (["--c", "1e300", "--k", "1"],
         "S = b^2 alpha - a/2 is not finite (alpha = 0, S = -inf); c, k, "
         "dt or dz is out of range"),
        (["--c", "1", "--k", "1", "--dz", "5e-7"],
         "num_elements must be an integer in [2, 10**6]"),
    ])
    def test_analyze_error_is_the_first_failing_points(self, argv, message,
                                                        tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["analyze", *argv, "--out", out]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not os.path.exists(out)

    def test_analyze_checks_every_chunk_before_writing(self, tmp_path,
                                                       capsys):
        # q^2 = (c dz/2)(c dz/6 + 2 K dt/dz) overflows only at the last of
        # 16385 points, where a and b are still finite
        dt_axis = analysis.default_log_grid(1e-3, 1.83e298, 16385)
        assert dt_axis.size > analysis.SWEEP_CHUNK
        out = str(tmp_path / "out")
        assert cli.main(["analyze", "--mode", "resolution", "--c", "1e10",
                         "--k", "1", "--dt", "1e-3:1.83e298:16385",
                         "--dz", "0.5", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "configuration error: S = b^2 alpha - a/2 is not finite (alpha ="
            " 0, S = -inf); c, k, dt or dz is out of range\n")
        assert not os.path.exists(out)
        # every other point passes
        assert len(list(analysis.sweep(1e10, 1.0, dt_axis[:-1], 0.5,
                                       1.0))) == 16384

    def test_analyze_resolution_reaches_where_b_squared_overflows(
            self, tmp_path):
        # b^2 overflows at the last point; the closed form never squares b
        out = str(tmp_path / "out")
        assert cli.main(["analyze", "--mode", "resolution",
                         "--dt", "1e-3:1.37e152:8193", "--dz", "0.5:0.01:2",
                         "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16386
        assert all(np.isfinite(float(row["S"])) for row in rows)

    def test_analyze_memory_does_not_grow_with_the_grid(self, tmp_path):
        # 200 points at M = 10**6: the closed form holds a few arrays of one
        # double per point, never M - 1 doubles per point
        tracemalloc.start()
        try:
            assert cli.main(["analyze", "--dz", "1e-6", "--c", "1:10:8",
                             "--out", str(tmp_path / "fine")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -1.0])
    def test_run_scenario_rejects_bad_threshold(self, threshold, tmp_path):
        config = dataclasses.replace(preset("trench-loam"), num_steps=5)
        out = str(tmp_path / "out")
        with pytest.raises(ConfigError, match="cr_exclude_threshold"):
            scenarios.run_scenario(config, out,
                                   cr_exclude_threshold=threshold)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("nested", [False, True], ids=["file", "below"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["linrun"], ["simulate", "--scenario", "hillslope-silt"],
    ], ids=["analyze", "linrun", "simulate"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(
            self, argv, nested, tmp_path, monkeypatch, capsys):
        # rejected before any solve, so a long run never ends in a crash
        def never(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        for module, name in ((analysis, "sweep"), (linear1d, "run_simulation"),
                             (coupling, "run_simulation")):
            monkeypatch.setattr(module, name, never)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if nested else taken
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: output {str(out)!r}: ")
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["analyze", "linrun"])
    def test_empty_out_is_a_config_error(self, command, tmp_path,
                                         monkeypatch, capsys):
        # os.path.abspath("") is the working directory, but
        # os.makedirs("") fails: rejected before any solve
        def never(*args, **kwargs):
            raise AssertionError("solved before the output path was checked")

        monkeypatch.setattr(analysis, "sweep", never)
        monkeypatch.setattr(linear1d, "run_simulation", never)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "--out", ""]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: output '': ")
        assert os.listdir(tmp_path) == []

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
        """Nor does it run scipy's sparse or linalg packages: the solvers
        load only scipy's compiled SuperLU and LAPACK modules."""
        code = ("import coupledflow.cli, sys; print(sorted(name for name in "
                "('scipy.optimize', 'multiprocessing', 'scipy.sparse', "
                "'scipy.sparse.linalg', 'scipy.linalg', 'numpy.f2py') "
                "if name in sys.modules))")
        assert fresh_python("-c", code).stdout.strip() == "[]"

    def test_runs_leave_out_masked_arrays_and_configparser(self, tmp_path):
        """np.unique of a plain array imports numpy.ma, and only an INI file
        needs configparser: a fresh simulate, analyze and linrun load
        neither, while --config files still run or fail with exit 2."""
        good, bad = tmp_path / "short.ini", tmp_path / "bad.ini"
        good.write_text("[scenario]\nbase = trench-mixed\n\n[coupling]\n"
                        "num_steps = 2\n", encoding="utf-8")
        bad.write_text("num_steps = 2\n", encoding="utf-8")
        code = f"""
import os, sys
from coupledflow import cli
out = sys.argv[1]
def run(*argv):
    assert cli.main([*argv, "--out", os.path.join(out, argv[0])]) == 0
    print(sorted({{'numpy.ma', 'configparser'}} & set(sys.modules)))
run("simulate", "--scenario", "trench-mixed",
    "--override", "coupling.num_steps=20")
run("analyze")
run("linrun", "--steps", "20")
for path in ({str(tmp_path / "none.ini")!r}, {str(bad)!r}):
    assert cli.main(["simulate", "--config", path]) == 2
run("simulate", "--config", {str(good)!r})
"""
        run = fresh_python("-c", code, str(tmp_path / "out"))
        assert run.returncode == 0, run.stderr
        assert [line for line in run.stdout.splitlines()
                if line.startswith("[")] == ["[]"] * 3 + ["['configparser']"]
        assert "cannot read config" in run.stderr
        assert "malformed config" in run.stderr
        assert os.path.exists(tmp_path / "out" / "simulate" / "trace.csv")

    def test_solver_modules_loaded_before_scipy_match_bitwise(self,
                                                              tmp_path):
        """The suite's MatrixRankWarning filter imports scipy before any
        test, so only a fresh interpreter loads SuperLU and LAPACK on their
        own: its runs give the bytes of the same runs here, and scipy,
        imported afterwards, shares the modules and still solves."""
        runs = {"sim": ["simulate", "--scenario", "trench-mixed",
                        "--override", "coupling.num_steps=20",
                        "--override", "coupling.tol=1e-10"],
                "lin": ["linrun", "--omega", "0.5", "--steps", "20"]}
        code = f"""
import os, sys
from coupledflow import cli, linear1d, richards2d
assert not {{'scipy.sparse', 'scipy.linalg'}} & set(sys.modules)
for name, argv in {runs!r}.items():
    assert cli.main(argv + ["--out", os.path.join(sys.argv[1], name)]) == 0
import numpy as np
from scipy.linalg.lapack import dpttrf
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu, spsolve
from scipy.sparse.linalg._dsolve import _superlu
from scipy.linalg import _flapack
assert _superlu is richards2d._superlu and _flapack is linear1d._flapack
matrix = csc_matrix(np.diag([4.0] * 3) + np.diag([1.0] * 2, 1)
                    + np.diag([1.0] * 2, -1))
rhs = np.array([5.0, 6.0, 5.0])
assert np.allclose(spsolve(matrix, rhs), 1.0)
assert np.allclose(splu(matrix).solve(rhs), 1.0)
d, e, info = dpttrf(np.full(3, 4.0), np.full(2, 1.0))
assert info == 0 and np.allclose(d[0], 4.0)
print("shared")
"""
        fresh = fresh_python("-c", code, str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.split()[-1] == "shared"
        for name, argv in runs.items():
            here = tmp_path / "here" / name
            assert cli.main(argv + ["--out", str(here)]) == 0
            files = sorted(os.listdir(here))
            assert sorted(os.listdir(tmp_path / "fresh" / name)) == files
            for file in files:
                assert ((tmp_path / "fresh" / name / file).read_bytes()
                        == (here / file).read_bytes()), file

    def test_singular_solve_in_a_fresh_process_warns_and_exits_4(self,
                                                                 tmp_path):
        """The standalone SuperLU path still warns scipy's warning."""
        run = fresh_python("-m", "coupledflow.cli", "simulate",
                           "--scenario", "trench-loam",
                           "--override", "soil.k_s=1e308",
                           "--override", "coupling.num_steps=2",
                           "--out", str(tmp_path / "ks"))
        assert run.returncode == 4
        assert "MatrixRankWarning: Matrix is exactly singular" in run.stderr

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

    def test_linrun_overflow_exits_like_a_divergence(self, tmp_path,
                                                     capsys):
        # S = -1000: the unrelaxed iterate overflows within step 1
        out = tmp_path / "overflow"
        code = cli.main(["linrun", "--c", "1e-3", "--k", "1e3", "--dt", "1",
                         "--omega", "1", "--steps", "2", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "coupling iteration diverged: the iterate overflowed in step 1 "
            "(interior right-hand side must be finite)"]
        assert not out.exists()

    def test_linrun_finite_divergence_warns(self, tmp_path, capsys):
        code = cli.main(["linrun", "--num-elements", "500", "--dt", "1",
                         "--max-iters", "5", "--steps", "2",
                         "--out", str(tmp_path / "lin")])
        assert code == 0
        assert "warning: at least one step hit max_iters" \
            in capsys.readouterr().out
        assert (tmp_path / "lin" / "steps.csv").exists()

    def test_linrun_rejects_bad_omega(self, tmp_path, capsys):
        assert cli.main(["linrun", "--omega", "1.5",
                         "--out", str(tmp_path / "l1")]) == 2
        assert cli.main(["linrun", "--omega", "fast",
                         "--out", str(tmp_path / "l2")]) == 2

    def test_simulate_contradicting_base_is_a_config_error(self, tmp_path,
                                                           capsys):
        out = str(tmp_path / "out")
        assert cli.main(["simulate", "--scenario", "trench-loam",
                         "--override", "scenario.base=hillslope-silt",
                         "--out", out]) == 2
        assert "contradicts" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a/"])
    def test_simulate_name_that_is_no_file_name(self, name, tmp_path,
                                                monkeypatch, capsys):
        # runs/<name> would be runs/ itself, its parent or another folder
        with pytest.raises(ConfigError, match="not a file name"):
            build_all(dataclasses.replace(preset("trench-loam"), name=name))
        path = tmp_path / "case.ini"
        path.write_text(f"[scenario]\nname = {name}\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "not a file name" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["case.ini"]

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
