"""Scenario presets, INI configuration ingestion, and CSV output.

A scenario bundles everything a coupled run needs: grid geometry, the soil
field, initial conditions, the surface flow model, rainfall forcing, side
boundary conditions, and the coupling controls.  Six presets cover the two
benchmark families:

* ``trench-loam`` / ``trench-clay`` / ``trench-mixed``: a 2 m x 3 m drainage
  trench, 5 x 8 elements, shallow water surface, 10 cm/h rainfall for the
  first two hours of a three hour run, side head boundaries below 1 m.
* ``hillslope-sandy`` / ``hillslope-silt`` / ``hillslope-silt-lowrain``: a
  400 m x 5 m tilted water table, kinematic surface with Manning friction
  draining at x = 0, five hours of simulated time with rain shut off after
  200 minutes.

Configs are INI files with the same keys the presets use; a file starts from
a preset (``[scenario] base = ...``) and overrides fields.  Unknown sections
or keys are rejected rather than ignored.  All stored values are SI; inputs
quoted per minute or per hour are converted on ingestion (``_UNITS``).
``load_config`` only parses.  Each value is checked once, by the runtime
object that uses it (grid, material, surface model, coupled problem);
``build_all`` is the one place that builds those objects, once each, checks
only what none of them owns and assembles the run.  Any failure is a
``ConfigError``.

CSV writers emit a single header row and ``%.17g`` floats so repeated runs
of the same config are byte identical.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from collections.abc import Iterable, Mapping, Sequence
from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass

import numpy as np

from . import coupling, richards2d, surface1d
from .coupling import CoupledProblem, CoupledState, map_height_to_head
from .material import SOIL_PRESETS, MaterialField
from .richards2d import Grid2D
from .surface1d import SurfaceModel


class ConfigError(ValueError):
    """Raised for malformed configs: unknown keys, bad values, bad presets."""


# ---------------------------------------------------------------------------
# unit conversion


def per_minute_to_si(rate: float) -> float:
    """Velocity quoted in m/min to m/s."""
    return rate / 60.0


def per_hour_to_si(rate: float) -> float:
    """Velocity quoted in m/h to m/s."""
    return rate / 3600.0


def manning_minutes_to_si(n_manning: float) -> float:
    """Manning coefficient quoted in m^(1/3)*min to m^(1/3)*s.

    u = sqrt(S_f)/n * h^(2/3): scaling n by 60 turns a per minute speed
    into a per second one.
    """
    return n_manning * 60.0


# ---------------------------------------------------------------------------
# scenario description


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one coupled run (SI units); build_all checks
    it."""

    name: str
    # geometry
    length_x: float
    length_z: float
    num_x: int
    num_z: int
    # soil: single preset, or a left/right blend when soil_right is set
    soil: str
    soil_right: str | None = None
    blend_center: float = 0.0
    blend_steepness: float = 1.0
    # replaces K_s of the (homogeneous) soil, e.g. the slower sandy variants
    k_s: float | None = None
    # initial conditions: psi0(x, z) = psi0_const + psi0_z*z + psi0_x*x
    psi0_const: float = 0.0
    psi0_z: float = 0.0
    psi0_x: float = 0.0
    h0: float = 0.0
    # surface model
    flavor: str = "swe"
    gravity: float = 9.81
    manning_n: float | None = None
    friction_slope: float | None = None
    flow_sign: float = 1.0
    boundary_left: str = "copy"
    boundary_right: str = "copy"
    # rainfall
    rain_rate: float = 0.0
    rain_cutoff: float = float("inf")
    # side head boundary: nodes on both vertical walls with z strictly below
    # this height keep psi pinned to the initial profile (None: no-flux walls)
    side_dirichlet_below: float | None = None
    # coupling controls
    omega: float = 1.0
    tol: float = 1e-8
    max_iters: int = 100
    dt: float = 36.0
    num_steps: int = 300
    output_every: int = 10

    def psi0_at(self, x, z):
        return self.psi0_const + self.psi0_z * np.asarray(z) \
            + self.psi0_x * np.asarray(x)


# ---------------------------------------------------------------------------
# presets

_TRENCH_BASE = dict(
    length_x=2.0, length_z=3.0, num_x=5, num_z=8,
    psi0_const=1.0, psi0_z=-1.0, psi0_x=0.0, h0=1e-6,
    flavor="swe", gravity=9.81,
    boundary_left="copy", boundary_right="copy",
    rain_rate=per_hour_to_si(0.1), rain_cutoff=7200.0,
    side_dirichlet_below=1.0,
    omega=1.0, tol=1e-8, max_iters=100,
    dt=36.0, num_steps=300, output_every=10,
)

# Manning n printed as 3.31e-3 m^(1/3)*min, friction slope 0.05 %, rainfall
# 3.3e-4 m/min for the first 200 of 300 minutes.  The outlet sits at x = 0,
# hence flow_sign = -1 and a copy (outflow) boundary on the left.
_HILLSLOPE_BASE = dict(
    length_x=400.0, length_z=5.0, num_x=5, num_z=25,
    psi0_const=4.0, psi0_z=-1.0, psi0_x=0.2 / 400.0, h0=1e-12,
    flavor="kinematic",
    manning_n=manning_minutes_to_si(3.31e-3), friction_slope=5e-4,
    flow_sign=-1.0,
    boundary_left="copy", boundary_right="reflect",
    rain_rate=per_minute_to_si(3.3e-4), rain_cutoff=12000.0,
    side_dirichlet_below=None,
    omega=1.0, tol=1e-8, max_iters=100,
)

PRESETS: dict[str, ScenarioConfig] = {
    "trench-loam": ScenarioConfig(
        name="trench-loam", soil="silt-loam", **_TRENCH_BASE),
    "trench-clay": ScenarioConfig(
        name="trench-clay", soil="beit-netofa-clay", **_TRENCH_BASE),
    "trench-mixed": ScenarioConfig(
        name="trench-mixed", soil="silt-loam", soil_right="beit-netofa-clay",
        blend_center=1.0, blend_steepness=4.0, **_TRENCH_BASE),
    "hillslope-sandy": ScenarioConfig(
        name="hillslope-sandy", soil="sandy-loam",
        dt=60.0, num_steps=300, output_every=10, **_HILLSLOPE_BASE),
    "hillslope-silt": ScenarioConfig(
        name="hillslope-silt", soil="silt-loam",
        dt=1.0, num_steps=18000, output_every=60, **_HILLSLOPE_BASE),
    "hillslope-silt-lowrain": ScenarioConfig(
        name="hillslope-silt-lowrain", soil="silt-loam",
        dt=1.0, num_steps=18000, output_every=60,
        **{**_HILLSLOPE_BASE, "rain_rate": per_minute_to_si(3.3e-5)}),
}


def preset(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r} (known: {known})") from None


# ---------------------------------------------------------------------------
# INI ingestion

def _parse_word(text: str) -> str:
    return text.strip().lower()


def _optional(parse):
    """parse, except that "none" or an empty value means unset (None)."""
    return lambda text: None if text.strip().lower() in ("none", "") \
        else parse(text.strip())


# section -> key -> (ScenarioConfig field, parser).  Keys that set no field
# (the base preset and the units keys of _UNITS) have a None field.  Counts
# parse as floats: Grid2D and CoupledProblem check that they are whole.
_SCHEMA: dict[str, dict[str, tuple[str | None, object]]] = {
    "scenario": {"base": (None, str), "name": ("name", str)},
    "grid": {
        "length_x": ("length_x", float), "length_z": ("length_z", float),
        "num_x": ("num_x", float), "num_z": ("num_z", float),
    },
    "soil": {
        "preset": ("soil", str),
        "right": ("soil_right", _optional(str)),
        "blend_center": ("blend_center", float),
        "blend_steepness": ("blend_steepness", float),
        "k_s": ("k_s", _optional(float)),
    },
    "initial": {
        "psi_const": ("psi0_const", float), "psi_z": ("psi0_z", float),
        "psi_x": ("psi0_x", float), "h": ("h0", float),
    },
    "surface": {
        "flavor": ("flavor", _parse_word),
        "gravity": ("gravity", float),
        "manning_n": ("manning_n", float),
        "manning_units": (None, str),
        "friction_slope": ("friction_slope", float),
        "flow_sign": ("flow_sign", float),
        "boundary_left": ("boundary_left", _parse_word),
        "boundary_right": ("boundary_right", _parse_word),
    },
    "rain": {
        "rate": ("rain_rate", float),
        "units": (None, str),
        "cutoff": ("rain_cutoff", float),
    },
    "subsurface": {
        "side_dirichlet_below": ("side_dirichlet_below", _optional(float)),
    },
    "coupling": {
        "omega": ("omega", float), "tol": ("tol", float), "dt": ("dt", float),
        "max_iters": ("max_iters", float), "num_steps": ("num_steps", float),
        "output_every": ("output_every", float),
    },
}

# value field -> (its units key, converters by units name).  A units key
# applies wherever it sits in the file and is checked even without its value.
_UNITS = {
    "rain_rate": (("rain", "units"), {
        "si": lambda v: v, "per_minute": per_minute_to_si,
        "per_hour": per_hour_to_si}),
    "manning_n": (("surface", "manning_units"), {
        "si": lambda v: v, "per_minute": manning_minutes_to_si}),
}


def _check_known(section: str, key: str) -> tuple[str | None, object]:
    if section not in _SCHEMA:
        known = ", ".join(sorted(_SCHEMA))
        raise ConfigError(f"unknown config section [{section}] "
                          f"(known: {known})")
    try:
        return _SCHEMA[section][key]
    except KeyError:
        known = ", ".join(sorted(_SCHEMA[section]))
        raise ConfigError(f"unknown key {key!r} in section [{section}] "
                          f"(known: {known})") from None


def _apply_items(config: ScenarioConfig,
                 items: Iterable[tuple[str, str, str]]) -> ScenarioConfig:
    updates, qualifiers = {}, {}
    for section, key, value in items:
        field, parser = _check_known(section, key)
        if field is None:
            qualifiers[section, key] = value.strip().lower()
            continue
        try:
            updates[field] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {value!r} "
                              f"({exc})") from None
    for field, ((section, key), converters) in _UNITS.items():
        units = qualifiers.get((section, key), "si")
        if units not in converters:
            known = ", ".join(sorted(converters))
            raise ConfigError(f"unknown [{section}] {key} {units!r} "
                              f"(known: {known})")
        if field in updates:
            updates[field] = converters[units](updates[field])
    return dataclasses.replace(config, **updates)


def parse_overrides(pairs: Sequence[str]) -> list[tuple[str, str, str]]:
    """``section.key=value`` strings to (section, key, value) triples."""
    items = []
    for pair in pairs:
        head, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override {pair!r} is not section.key=value")
        items.append((section.strip(), key.strip(), value.strip()))
    return items


def load_config(path: str | None = None,
                overrides: Sequence[str] = (),
                base: str | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from an INI file and/or override pairs.

    Precedence: preset named by ``base`` (or by the last ``[scenario]
    base`` item, defaulting to trench-loam), then file keys, then overrides.
    A ``[scenario] base`` item that names another preset than ``base`` is a
    ConfigError.
    """
    items: list[tuple[str, str, str]] = []
    if path is not None:
        parser = ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except ConfigParserError as exc:
            raise ConfigError(f"malformed config {path!r}: {exc}") from None
        for section in parser.sections():
            for key, value in parser.items(section):
                items.append((section, key, value))
    items.extend(parse_overrides(overrides))

    bases = [value.strip() for section, key, value in items
             if (section, key) == ("scenario", "base")]
    if base is None:
        base = bases[-1] if bases else "trench-loam"
    else:
        for other in bases:
            if other != base:
                raise ConfigError(f"[scenario] base {other!r} contradicts "
                                  f"the base preset {base!r}")
    config = preset(base)
    if items:
        config = _apply_items(config, items)
    named = any((s, k) == ("scenario", "name") for s, k, _ in items)
    if path is not None and not named:
        stem = os.path.splitext(os.path.basename(path))[0]
        config = dataclasses.replace(config, name=stem)
    return config


# ---------------------------------------------------------------------------
# assembling runnable objects


def build_material(config: ScenarioConfig) -> MaterialField:
    if config.soil_right is None:
        params = SOIL_PRESETS[config.soil]
        if config.k_s is not None:
            params = dataclasses.replace(params, k_s=config.k_s)
        return MaterialField(params)
    if config.k_s is not None:
        raise ConfigError("k_s override only applies to homogeneous soils")
    return MaterialField(SOIL_PRESETS[config.soil],
                         SOIL_PRESETS[config.soil_right],
                         config.blend_center, config.blend_steepness)


def side_dirichlet(config: ScenarioConfig, grid: Grid2D,
                   psi0: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Head boundary (nodes, heads) on both vertical walls below the
    configured height.

    Pinned values are the initial heads psi0 there, so for the trench the
    walls hold psi = 1 - z for z < 1 m throughout the run.
    """
    if config.side_dirichlet_below is None:
        return None
    x, z = grid.node_coords()
    on_wall = np.isclose(x, 0.0) | np.isclose(x, grid.length_x)
    select = on_wall & (z < config.side_dirichlet_below)
    select[grid.top_node_indices()] = False  # never the coupled top row
    nodes = np.flatnonzero(select)
    return nodes, psi0[nodes]


def build_initial_state(config: ScenarioConfig, grid: Grid2D,
                        model: SurfaceModel) -> CoupledState:
    x, z = grid.node_coords()
    q = np.zeros((model.num_components, grid.num_x))
    q[0] = config.h0
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.asarray(config.psi0_at(x, z), dtype=float)
        if not np.isfinite(np.append(psi, map_height_to_head(q[0]))).all():
            raise ConfigError("initial soil and top heads must be finite")
    return CoupledState(psi=psi, q=q, time=0.0)


def build_all(config: ScenarioConfig) -> tuple[CoupledProblem, CoupledState]:
    """Check config and build each runtime object from it once.

    The runtime objects check their own values; this adds only the rules
    none of them owns.  Any failure is a ConfigError.
    """
    for item in dataclasses.fields(config):
        value = getattr(config, item.name)
        if isinstance(value, float) and not np.isfinite(value) and not (
                item.name == "rain_cutoff" and value == np.inf):
            raise ConfigError(f"{item.name} must be finite, got {value}")
    for soil in filter(None, (config.soil, config.soil_right)):
        if soil not in SOIL_PRESETS:
            known = ", ".join(sorted(SOIL_PRESETS))
            raise ConfigError(f"unknown soil {soil!r} (known: {known})")
    if config.name in ("", ".", "..") \
            or os.path.basename(config.name) != config.name:
        raise ConfigError(f"scenario name {config.name!r} is not a file "
                          "name")
    if config.h0 < 0:
        raise ConfigError("h0 must be nonnegative")
    if config.side_dirichlet_below is not None \
            and not 0 < config.side_dirichlet_below <= config.length_z:
        raise ConfigError("side_dirichlet_below must lie in (0, L_z]")
    try:
        grid = Grid2D(length_x=config.length_x, length_z=config.length_z,
                      num_x=config.num_x, num_z=config.num_z)
        model = SurfaceModel(flavor=config.flavor, gravity=config.gravity,
                             manning_n=config.manning_n,
                             friction_slope=config.friction_slope,
                             flow_sign=config.flow_sign,
                             boundary_left=config.boundary_left,
                             boundary_right=config.boundary_right)
        state = build_initial_state(config, grid, model)
        problem = CoupledProblem(
            grid=grid, material=build_material(config), surface_model=model,
            static_dirichlet=side_dirichlet(config, grid, state.psi),
            rain_rate=config.rain_rate, rain_cutoff=config.rain_cutoff,
            omega=config.omega, tol=config.tol, max_iters=config.max_iters,
            dt=config.dt, num_steps=config.num_steps,
            output_every=config.output_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return problem, state


# ---------------------------------------------------------------------------
# CSV output


# the % format of each cell type the program writes; only text cells can
# need csv quoting
_CELL_FORMATS = {float: "%.17g", np.float64: "%.17g", int: "%d", str: "%s"}


def format_value(value) -> str:
    """A CSV cell, by one lookup of its type: floats round-trip ("%.17g");
    a type without a format raises KeyError."""
    return _CELL_FORMATS[type(value)] % value


def _row_format(kinds: tuple[type, ...]) -> str | None:
    """The % format of a row with these cell types, None for a row with
    text cells; a type without a format raises KeyError."""
    specs = [_CELL_FORMATS[kind] for kind in kinds]
    return None if str in kinds else ",".join(specs) + "\n"


def write_csv(path: str, columns: Sequence[str],
              rows: Iterable[Mapping]) -> None:
    """Write the header and then each row as it is read from rows.  A row of
    numbers is one % format, built once per tuple of cell types; a row with
    text goes through the csv module's quoting."""
    formats: dict[tuple[type, ...], str | None] = {}
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            cells = tuple([row[column] for column in columns])
            kinds = tuple(map(type, cells))
            if kinds not in formats:
                formats[kinds] = _row_format(kinds)
            line_format = formats[kinds]
            if line_format is None:
                writer.writerow(map(format_value, cells))
            else:
                handle.write(line_format % cells)


def check_out_dir(path: str) -> None:
    """Raise ConfigError unless path is or can become a directory."""
    if not path:
        raise ConfigError(f"output {path!r}: an empty path names no "
                          "directory")
    ancestor = os.path.abspath(path)
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ConfigError(f"output {path!r}: {ancestor!r} is not a directory")


def run_scenario(config: ScenarioConfig, out_dir: str,
                 cr_exclude_threshold: float | None = None,
                 ) -> coupling.SimulationResult:
    """Run one scenario and write its CSV products into out_dir.

    Products: trace.csv (one row per step), summary.csv (time averaged CR),
    field_NNNNN.csv snapshots at the output cadence, and probe.csv with the
    outlet hydrograph for kinematic scenarios.
    """
    if cr_exclude_threshold is not None \
            and not 0 < cr_exclude_threshold < np.inf:
        raise ConfigError("cr_exclude_threshold must be positive and finite, "
                          f"got {cr_exclude_threshold}")
    check_out_dir(out_dir)
    problem, state = build_all(config)
    result = coupling.run_simulation(problem, state)

    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "trace.csv"), coupling.TRACE_COLUMNS,
              coupling.trace_rows(result.records))
    write_csv(os.path.join(out_dir, "summary.csv"), coupling.SUMMARY_COLUMNS,
              [coupling.summary_row(config.name, result.records,
                                    exclude_above=cr_exclude_threshold)])
    for step, snapshot in result.snapshots:
        write_csv(os.path.join(out_dir, f"field_{step:05d}.csv"),
                  richards2d.FIELD_COLUMNS,
                  richards2d.field_rows(snapshot.psi, problem.grid,
                                        problem.node_material))
    if problem.surface_model.flavor == "kinematic":
        write_csv(os.path.join(out_dir, "probe.csv"), surface1d.PROBE_COLUMNS,
                  [surface1d.outflow_probe(snapshot.q, snapshot.time,
                                           problem.surface_model)
                   for _, snapshot in result.snapshots])
    return result
