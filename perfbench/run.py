"""Benchmark of the coupled loop: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload trench-swe --seed 0 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --self-test           # counts, checks, wrappers
    python3 perfbench/run.py --write-reference     # store default-seed outputs

Each unit of work runs in a fresh single-threaded interpreter
(``unit.py``), one at a time (a closed loop), until ``--seconds`` would be
exceeded by one more unit.  ``--trace 0`` runs plain units and reports the
end-to-end metrics; ``--trace 1`` alternates traced and plain units and
reports the per-layer metrics plus the tracing overhead.  Outputs of the
default seed are compared with ``reference/``; other seeds perturb the
inputs and are judged by invariants.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types

import checks
import unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference")
RUNS = os.path.join(ROOT, ".perfbench-runs")

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
              "step_ms_p50": "ms", "step_ms_p95": "ms", "peak_rss_mb": "MB"}
# End-to-end times are in reference seconds: measured seconds times
# REFERENCE_KERNEL_S over the time unit.SpeedProbe's kernel took in the same
# process during the same phase.  The constant only fixes the unit; the
# kernel belongs to the benchmark, so a change to the program does not
# change it.  A step's factor uses the kernel samples taken within
# STEP_WINDOW steps of it.
REFERENCE_KERNEL_S = 1.2e-4
STEP_WINDOW = 10
# Set-up is sampled at least this often per run: from every unit, topped up
# with set-up-only probes.
SETUP_SAMPLES = 5
MIN_UNITS = 2
# A run must end within 180 s; children still running at this point are
# killed and counted as failed.
RUN_DEADLINE_S = 170.0

# Counts that must repeat exactly between traced units of one seed.
COUNTS = ("coupling.iterations", "coupling.cr_defined_steps",
          "richards2d.newton_iterations", "surface1d.newton_iterations",
          "scenarios.write_csv.bytes")
LAYERS = ("surface1d", "richards2d", "material", "coupling", "analysis",
          "linear1d", "scenarios")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def run_child(workload: str, seed: int, mode: str, scratch: str, tag: str,
              deadline: float) -> tuple[dict | None, str | None, str]:
    """Run one unit; returns (report, error, output directory)."""
    out = os.path.join(scratch, tag)
    result = os.path.join(scratch, tag + ".json")
    command = [sys.executable, os.path.join(HERE, "unit.py"),
               "--workload", workload, "--seed", str(seed), "--mode", mode,
               "--out", out, "--result", result]
    start = time.perf_counter()
    timeout = max(1.0, deadline - start)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"{mode} unit timed out after {timeout:.0f} s", out
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"{mode} unit exited {proc.returncode}: {tail}", out
    with open(result, encoding="utf-8") as handle:
        report = json.load(handle)
    report["setup_s"] = report["setup_end"] - start
    return report, None, out


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def check_outputs(report: dict, out: str, seed: int,
                  workload: str) -> tuple[list[str], int | None]:
    """Errors of one unit's outputs and its changed-cell count."""
    errors = [] if report["converged"] else ["a step did not converge"]
    errors += checks.invariants(out, report["max_iters"])
    changed = None
    if seed == unit.DEFAULT_SEED:
        changed, mismatches = checks.compare_reference(
            out, os.path.join(REFERENCE, workload))
        errors += mismatches
    return errors, changed


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    os.makedirs(RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=workload + "-", dir=RUNS)
    try:
        return _run_workload(workload, seed, seconds, trace, scratch,
                             time.perf_counter() + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool,
                  scratch: str, deadline: float) -> dict:
    problems: list[str] = []
    # warm-up: fills the file cache and the package's byte-code cache
    _, error, _ = run_child(workload, seed, "setup", scratch, "warmup",
                            deadline)
    if error:
        problems.append(f"warm-up: {error}")

    units: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    first_digest = first_error = changed_cells = None
    modes = itertools.cycle(("traced", "plain")) if trace \
        else itertools.repeat("plain")
    start = time.perf_counter()
    while True:
        mode = next(modes)
        began = time.perf_counter()
        report, error, out = run_child(workload, seed, mode, scratch,
                                       f"unit{attempted}", deadline)
        attempted += 1
        if report is not None:
            setups.append(report["setup_s"] * REFERENCE_KERNEL_S
                          / report["setup_kernel_s"])
            digest = checks.digest(out)
            if digest == first_digest:
                error = first_error
            else:
                errors, changed = check_outputs(report, out, seed, workload)
                if first_digest is not None:
                    errors.append("outputs differ from the run's first unit")
                error = "; ".join(errors[:3]) or None
                if first_digest is None:
                    first_digest, first_error = digest, error
                    changed_cells = changed
            units.append(report)
        shutil.rmtree(out, ignore_errors=True)
        if error:
            failed += 1
            problems.append(f"unit {attempted}: {error}")
        now = time.perf_counter()
        if attempted >= MIN_UNITS and \
                now - start + (now - began) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        report, error, _ = run_child(workload, seed, "setup", scratch,
                                     f"setup{len(setups)}", deadline)
        if error:
            problems.append(f"set-up probe: {error}")
            break
        setups.append(report["setup_s"] * REFERENCE_KERNEL_S
                      / report["setup_kernel_s"])

    plain = [r for r in units if r["mode"] == "plain"]
    traced = [r for r in units if r["mode"] == "traced"]
    if not plain or (trace and not traced):
        return {"problems": problems, "attempted": attempted,
                "failed": failed, "metrics": {}, "notes": []}
    if trace:
        metrics, notes = layer_metrics(traced, plain, problems)
    else:
        metrics, notes = end_to_end_metrics(plain, setups)
    notes.append(f"units: {len(plain)} plain, {len(traced)} traced; "
                 f"set-up samples: {len(setups)}")
    if seed == unit.DEFAULT_SEED:
        notes.append(f"reference: ref_cells_changed = {changed_cells}")
    else:
        notes.append("reference: not compared (seed perturbs the inputs); "
                     "invariants checked")
    versions = units[0].get("versions", {})
    notes.append("env: " + " ".join(f"{k}={v}" for k, v in versions.items())
                 + f" nproc={os.cpu_count()}")
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def step_scales(report: dict) -> list[float]:
    """Per-step speed factor: the kernel samples within STEP_WINDOW steps
    on either side of the step, by their median."""
    kernel = report["step_kernel_s"]
    return [REFERENCE_KERNEL_S / statistics.median(
        kernel[max(0, i - STEP_WINDOW):i + STEP_WINDOW + 1])
        for i in range(len(kernel))]


def end_to_end_metrics(plain: list[dict], setups: list[float],
                       ) -> tuple[dict, list[str]]:
    """Medians over the run's units, in reference seconds.  Whole-unit
    times use the unit's mean kernel time; each step uses its neighbours'."""
    scale = [REFERENCE_KERNEL_S / r["kernel_s"] for r in plain]
    steps = [d * f for r in plain
             for d, f in zip(r["step_s"], step_scales(r))]
    beyond = len(steps) - int(-(-len(steps) * 0.95 // 1))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] * f
                                    for r, f in zip(plain, scale)),
        "steps_per_s": statistics.median(r["steps"] / (r["stepping_s"] * f)
                                         for r, f in zip(plain, scale)),
        "step_ms_p50": 1e3 * percentile(steps, 0.50),
        "step_ms_p95": 1e3 * percentile(steps, 0.95),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    notes = [f"samples: wall_s n={len(plain)}, setup_s n={len(setups)}, "
             f"step latency n={len(steps)} ({beyond} beyond p95)",
             "speed factor per unit (reference / measured kernel): "
             + " ".join(f"{f:.3f}" for f in scale),
             "wall_s per unit, measured seconds: "
             + " ".join(f"{r['wall_s']:.3f}" for r in plain),
             "setup_s per sample, reference seconds: "
             + " ".join(f"{v:.3f}" for v in setups)]
    return ({name: {"value": value, "unit": END_TO_END[name]}
             for name, value in values.items()}, notes)


def layer_metrics(traced: list[dict], plain: list[dict],
                  problems: list[str]) -> tuple[dict, list[str]]:
    """Counts from the first traced unit; times are medians over the traced
    units, in reference seconds like the end-to-end times."""
    first = traced[0]
    for other in traced[1:]:
        if other["calls"] != first["calls"] or \
                other["counts"] != first["counts"]:
            problems.append("call counts differ between traced units")

    def scale(report: dict) -> float:
        return REFERENCE_KERNEL_S / report["kernel_s"]

    def median_time(seconds_of) -> float:
        return statistics.median(seconds_of(r) * scale(r) for r in traced)

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit_name: str) -> None:
        metrics[name] = {"value": value, "unit": unit_name}

    calls = first["calls"]
    for name in unit.LAYER_FUNCTIONS:
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.time_s",
            median_time(lambda r: r["time"].get(name, 0.0)), "s")
        put(f"{name}.self_s",
            median_time(lambda r: r["self_time"].get(name, 0.0)), "s")
    for name in COUNTS:
        put(name, first["counts"].get(name, 0),
            "B" if name.endswith("bytes") else "count")
    jacobians = calls.get("richards2d.jacobian", 0)
    trials = calls.get("richards2d.residual", 0) \
        - calls.get("richards2d.newton_step", 0)
    put("richards2d.trials_per_newton_iteration",
        trials / jacobians if jacobians else 0.0, "ratio")
    surface_iterations = first["counts"].get("surface1d.newton_iterations", 0)
    put("surface1d.llf_flux_per_newton_iteration",
        calls.get("surface1d.llf_flux", 0) / surface_iterations
        if surface_iterations else 0.0, "ratio")
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", median_time(
            lambda r: sum(value for name, value in r["self_time"].items()
                          if name.startswith(layer + "."))), "s")
    put("cli.import_s", statistics.median(
        r["import_s"] * REFERENCE_KERNEL_S / r["setup_kernel_s"]
        for r in traced + plain), "s")
    put("trace_overhead_s", median_time(lambda r: r["wall_s"])
        - statistics.median(r["wall_s"] * scale(r) for r in plain), "s")
    notes = [f"absent (reported as 0): {name}" for name in first["absent"]]
    leader = max(LAYERS, key=lambda layer:
                 metrics[f"layer.{layer}.self_s"]["value"])
    notes.append(f"largest layer self time: {leader}")
    return metrics, notes


def print_result(workload: str, outcome: dict) -> None:
    print(f"== {workload}: {unit.WORKLOADS[workload]}")
    for name, metric in outcome["metrics"].items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} "
          f"({failed} of {attempted} units)")
    for note in outcome["notes"]:
        print(f"  {note}")
    for problem in outcome["problems"]:
        print(f"  PROBLEM: {problem}")


def result_line(outcome: dict) -> str:
    return json.dumps({
        "correct": not outcome["problems"] and outcome["failed"] == 0,
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": outcome["metrics"]})


def write_reference() -> int:
    os.makedirs(RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=RUNS)
    try:
        for workload in unit.WORKLOADS:
            report, error, out = run_child(
                workload, unit.DEFAULT_SEED, "plain", scratch, workload,
                time.perf_counter() + RUN_DEADLINE_S)
            if error or not report["converged"]:
                print(f"{workload}: {error or 'did not converge'}",
                      file=sys.stderr)
                return 1
            target = os.path.join(REFERENCE, workload)
            shutil.rmtree(target, ignore_errors=True)
            count = checks.write_reference(out, target)
            print(f"{workload}: stored {count} files in {target}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def self_test() -> int:
    """Wrappers survive missing functions, checks catch changes, and counts
    repeat exactly between two traced units of every workload."""
    failures: list[str] = []

    package = types.ModuleType("fakepkg")
    module = types.ModuleType("fakepkg.mod")
    caller = types.ModuleType("fakepkg.caller")
    module.present = caller.present = lambda value: value + 1
    sys.modules.update({"fakepkg": package, "fakepkg.mod": module,
                        "fakepkg.caller": caller})
    tracer = unit.Tracer()
    wrapped = tracer.install("present", "mod", "present", package="fakepkg")
    missing = tracer.install("gone", "mod", "gone", package="fakepkg")
    gone_method = tracer.install("gone.method", "mod", "Gone.method",
                                 package="fakepkg")
    caller.present(1)
    module.present(1)
    if not wrapped or missing or gone_method or \
            tracer.calls.get("present") != 2 or \
            tracer.absent != ["gone", "gone.method"]:
        failures.append("wrapper install: call-site wrapping or absence")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out, ref = os.path.join(tmp, "out"), os.path.join(tmp, "ref")
        os.makedirs(out)
        table = "n,K_n,x,CR_n\n1,3,0.25,\n2,3,1.5,0.125\n"
        with open(os.path.join(out, "t.csv"), "w") as handle:
            handle.write(table)
        checks.write_reference(out, ref)
        cases = {"0.25": (0, True), "0.25000000000000006": (1, True),
                 "0.2501": (1, False)}
        for text, (want_changed, want_ok) in cases.items():
            with open(os.path.join(out, "t.csv"), "w") as handle:
                handle.write(table.replace("0.25", text)
                             .replace("n,K_n", "n,extra,K_n")
                             .replace("1,3,", "1,9,3,")
                             .replace("2,3,", "2,9,3,"))
            changed, errors = checks.compare_reference(out, ref)
            if changed != want_changed or (not errors) != want_ok:
                failures.append(f"reference compare of {text}: changed "
                                f"{changed}, errors {errors}")

    os.makedirs(RUNS, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=RUNS)
    try:
        for workload in unit.WORKLOADS:
            seen = []
            for index in range(2):
                report, error, out = run_child(
                    workload, unit.DEFAULT_SEED, "traced", scratch,
                    f"{workload}{index}",
                    time.perf_counter() + RUN_DEADLINE_S)
                if error:
                    failures.append(f"{workload}: {error}")
                    break
                errors, changed = check_outputs(report, out,
                                                unit.DEFAULT_SEED, workload)
                failures += [f"{workload}: {e}" for e in errors]
                if changed:
                    failures.append(f"{workload}: {changed} cells differ "
                                    "from the reference bytes")
                seen.append((report["calls"], report["counts"]))
            if len(seen) == 2 and seen[0] != seen[1]:
                failures.append(f"{workload}: counts differ between runs")
            elif seen:
                counts = {name: seen[0][1].get(name, 0) for name in COUNTS}
                counts["richards2d.jacobian.calls"] = seen[0][0].get(
                    "richards2d.jacobian", 0)
                counts["surface1d.llf_flux.calls"] = seen[0][0].get(
                    "surface1d.llf_flux", 0)
                print(f"{workload}: counts repeat: {counts}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*unit.WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=unit.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "coupledflow", "cli.py")):
        print(f"coupledflow sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()

    workloads = list(unit.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    outcomes = {}
    for workload in workloads:
        outcomes[workload] = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace))
        print_result(workload, outcomes[workload])
    if len(workloads) == 1:
        outcome = outcomes[workloads[0]]
        if not outcome["metrics"]:
            print("no unit completed", file=sys.stderr)
            return 1
        print(result_line(outcome))
        return 0
    for workload, outcome in outcomes.items():
        print(f"{workload}: {result_line(outcome)}")
    return 0 if all(not o["problems"] and not o["failed"]
                    for o in outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
