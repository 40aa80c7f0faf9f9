"""Command line front end.

Subcommands:

* ``analyze``: tabulate the linearized convergence analysis on a parameter
  grid (material sweep over c, K or resolution sweep over dt, dz) into
  sweep.csv.
* ``linrun``: run the linearized 1D-0D testbench and report the observed
  contraction rate next to the predicted factors.
* ``simulate``: run a full nonlinear scenario (preset or INI config) and
  write trace/summary/field/probe CSVs.
* ``presets``: list the built in scenarios.

Exit codes: 0 on success, 2 for configuration errors, 3 when the coupling
iteration diverges, 4 when the Richards or surface Newton raises NewtonError.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, coupling, linear1d, scenarios
from .analysis import LinearModelParams
from .coupling import CouplingDivergedError
from .iteration import NewtonError
from .scenarios import ConfigError


def _axis(text: str) -> np.ndarray:
    """Parse an axis flag: a positive float or a log spaced 'low:high:count'."""
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError(text)
        bounds = [float(part) for part in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise ConfigError(
            f"bad axis {text!r}: expected VALUE or LOW:HIGH:COUNT") from None
    if not (all(0 < bound < np.inf for bound in bounds) and count >= 1):
        raise ConfigError(
            f"axis {text!r} needs positive finite bounds and count >= 1")
    if len(parts) == 1:
        return np.array(bounds)
    return analysis.default_log_grid(bounds[0], bounds[1], count)


def cmd_analyze(args: argparse.Namespace) -> int:
    length = args.length
    if not 0 < length < np.inf:
        raise ConfigError("--length must be positive and finite")
    if args.mode == "material":
        c_axis = _axis(args.c) if args.c else analysis.default_log_grid()
        k_axis = _axis(args.k) if args.k else analysis.default_log_grid()
        dt_axis = _axis(args.dt) if args.dt else np.array([0.1])
        dz_axis = _axis(args.dz) if args.dz else np.array([length / 20.0])
        if dt_axis.size != 1 or dz_axis.size != 1:
            raise ConfigError("material mode sweeps c/K; give single dt, dz")
        sweep = analysis.sweep_material
        axes = (c_axis, k_axis, dt_axis[0], dz_axis[0])
    else:
        dt_axis = _axis(args.dt) if args.dt else analysis.default_log_grid()
        dz_axis = _axis(args.dz) if args.dz \
            else analysis.default_log_grid(length / 200, length / 2, 25)
        c_axis = _axis(args.c) if args.c else np.array([1.0])
        k_axis = _axis(args.k) if args.k else np.array([1.0])
        if c_axis.size != 1 or k_axis.size != 1:
            raise ConfigError("resolution mode sweeps dt/dz; give single c, K")
        sweep = analysis.sweep_resolution
        axes = (dt_axis, dz_axis, c_axis[0], k_axis[0])
    try:
        rows = sweep(*axes, length)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    scenarios.write_csv(path, analysis.SWEEP_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_linrun(args: argparse.Namespace) -> int:
    try:
        base = LinearModelParams(c=args.c, k=args.k, length=args.length,
                                 dt=args.dt, num_elements=args.num_elements)
        predicted = analysis.discrete_S(base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.steps < 1 or args.max_iters < 1 or not args.tol > 0:
        raise ConfigError(
            "--steps and --max-iters must be at least 1, --tol positive")
    try:
        omega = predicted.omega_opt if args.omega == "opt" \
            else float(args.omega)
        params = dataclasses.replace(base, omega=omega)
    except ValueError:
        raise ConfigError(f"--omega must be a float in (0, 1] or 'opt', "
                          f"got {args.omega!r}") from None
    trace = linear1d.run_simulation(params, num_steps=args.steps,
                                    tol=args.tol, max_iters=args.max_iters)
    os.makedirs(args.out, exist_ok=True)
    scenarios.write_csv(os.path.join(args.out, "trace.csv"),
                        linear1d.TRACE_COLUMNS, linear1d.trace_rows(trace))
    scenarios.write_csv(os.path.join(args.out, "steps.csv"),
                        linear1d.SUMMARY_COLUMNS, linear1d.summary_rows(trace))

    first = trace.steps[0]
    sigma_value = analysis.sigma(omega, predicted.S)
    lines = [f"omega = {omega:.17g}"]
    if first.cr is None:
        lines.append(f"CR_1 undefined: converged in {first.iterations} "
                     "iterations (need at least 3 for a rate)")
    else:
        lines.append(f"CR_1 = {first.cr:.17g}")
        lines.append(f"|CR_1 - |Sigma|| = {abs(first.cr - abs(sigma_value)):.3e}")
    lines.append(f"|S| = {abs(predicted.S):.17g}")
    lines.append(f"|Sigma(omega)| = {abs(sigma_value):.17g}")
    lines.append(f"||S| - |Sigma|| = "
                 f"{abs(abs(predicted.S) - abs(sigma_value)):.3e}")
    lines.append(f"omega_opt = {predicted.omega_opt:.17g}")
    if trace.diverged:
        lines.append("warning: at least one step hit max_iters")
    print("\n".join(lines))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.config is None and args.scenario is None:
        raise ConfigError("give --scenario NAME or --config PATH")
    config = scenarios.load_config(path=args.config,
                                   overrides=args.override or (),
                                   base=args.scenario)
    out_dir = args.out or os.path.join("runs", config.name)
    result = scenarios.run_scenario(
        config, out_dir, cr_exclude_threshold=args.cr_exclude_threshold)
    mean_cr, undefined = coupling.time_averaged_cr(
        result.records, exclude_above=args.cr_exclude_threshold)
    cr_text = "undefined" if mean_cr is None else f"{mean_cr:.6e}"
    print(f"{config.name}: {len(result.records)} steps, "
          f"time averaged CR = {cr_text} ({undefined} undefined), "
          f"outputs in {out_dir}")
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    for name in sorted(scenarios.PRESETS):
        config = scenarios.PRESETS[name]
        soil = config.soil if config.soil_right is None \
            else f"{config.soil}|{config.soil_right}"
        print(f"{name}: soil={soil} grid={config.num_x}x{config.num_z} "
              f"({config.length_x}m x {config.length_z}m) "
              f"surface={config.flavor} dt={config.dt}s "
              f"steps={config.num_steps}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledflow",
        description="Partitioned surface-subsurface flow toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="tabulate the linearized convergence analysis")
    analyze.add_argument("--mode", choices=("material", "resolution"),
                         default="material")
    analyze.add_argument("--c", help="capacity axis: VALUE or LOW:HIGH:COUNT")
    analyze.add_argument("--k", help="conductivity axis")
    analyze.add_argument("--dt", help="time step axis")
    analyze.add_argument("--dz", help="grid spacing axis")
    analyze.add_argument("--length", type=float, default=1.0)
    analyze.add_argument("--out", default="analysis-out")
    analyze.set_defaults(func=cmd_analyze)

    linrun = sub.add_parser(
        "linrun", help="run the linearized 1D-0D testbench")
    linrun.add_argument("--c", type=float, default=1.0)
    linrun.add_argument("--k", type=float, default=1.0)
    linrun.add_argument("--length", type=float, default=1.0)
    linrun.add_argument("--num-elements", type=int, default=20)
    linrun.add_argument("--dt", type=float, default=0.1)
    linrun.add_argument("--omega", default="1.0",
                        help="relaxation factor, or 'opt'")
    linrun.add_argument("--tol", type=float, default=1e-8)
    linrun.add_argument("--max-iters", type=int, default=200)
    linrun.add_argument("--steps", type=int, default=1)
    linrun.add_argument("--out", default="linrun-out")
    linrun.set_defaults(func=cmd_linrun)

    simulate = sub.add_parser(
        "simulate", help="run a nonlinear coupled scenario")
    which = simulate.add_mutually_exclusive_group()
    which.add_argument("--scenario", help="preset name (see presets)")
    which.add_argument("--config", help="INI config path")
    simulate.add_argument("--override", action="append", metavar="SEC.KEY=VAL",
                          help="override a config value (repeatable)")
    simulate.add_argument("--cr-exclude-threshold", type=float, default=None,
                          help="drop CR_n above this value from the average")
    simulate.add_argument("--out", help="output directory "
                          "(default runs/<scenario-name>)")
    simulate.set_defaults(func=cmd_simulate)

    presets = sub.add_parser("presets", help="list built in scenarios")
    presets.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CouplingDivergedError as exc:
        print(f"coupling iteration diverged: {exc}", file=sys.stderr)
        return 3
    except NewtonError as exc:
        print(f"nonlinear solver failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
