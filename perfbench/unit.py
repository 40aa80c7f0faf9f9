"""One unit of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/unit.py --workload NAME --seed N --mode MODE \
        --out DIR --result FILE

The unit imports ``coupledflow.cli`` (the package is found through
PYTHONPATH), sets the workload up, solves it once into DIR and writes its
measurements as JSON to FILE.  MODE is one of

* ``setup``: import and set up only, then exit (a cold-start probe),
* ``plain``: wrap only the step function, for the step latencies, and
  time a fixed kernel (SpeedProbe) after each step and each phase,
* ``traced``: wrap every layer function listed in LAYER_FUNCTIONS with a
  span stack, giving calls, inclusive time and self time per function, and
  time the kernel as in ``plain``.

Wrappers are installed from outside the package, at every module that binds
the wrapped function, so names imported into a caller (``coupling`` imports
``implicit_fv_step`` and ``discrete_S`` by name) are wrapped there too.  A
function that no longer exists is reported as absent.

Nothing here imports numpy or the package at module level: ``run.py``
imports this file for the workload table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

# The seed that reproduces the presets exactly and is checked against the
# stored reference outputs.  Other seeds perturb the inputs.
DEFAULT_SEED = 0
PERTURBATION = 0.05

TRENCH_STEPS = 300
HILLSLOPE_STEPS = 400
TIGHT_TOL = 1e-10

# linear-testbench sizes: a 50 x 50 material sweep, the default 25 x 25
# resolution sweep, and LINRUN_STEPS relaxed linrun steps.
LINEAR_MATERIAL_AXIS = "1e-3:1e3:50"
LINRUN_STEPS = 400
LINRUN_MAX_ITERS = 200

WORKLOADS = {
    "trench-swe": "trench-mixed preset, 300 steps at coupling.tol=1e-10: "
                  "shallow water Newton with a dense Jacobian, blended soil",
    "hillslope-kinematic": "first 400 steps of hillslope-silt: "
                           "Richards-dominated, cheap kinematic surface",
    "linear-testbench": "cli analyze (material and resolution sweeps) and a "
                        "multi-step linrun; no richards2d or surface1d",
}

NONLINEAR = {"trench-swe": ("trench-mixed", TRENCH_STEPS, TIGHT_TOL),
             "hillslope-kinematic": ("hillslope-silt", HILLSLOPE_STEPS, None)}

# metric prefix -> (defining module, attribute path)
LAYER_FUNCTIONS = {
    "surface1d.implicit_fv_step": ("surface1d", "implicit_fv_step"),
    "surface1d.llf_flux": ("surface1d", "llf_flux"),
    "richards2d.newton_step": ("richards2d", "RichardsWorkspace.newton_step"),
    "richards2d.residual": ("richards2d", "RichardsWorkspace.residual"),
    "richards2d.jacobian": ("richards2d", "RichardsWorkspace.jacobian"),
    "richards2d.interface_flux": ("richards2d",
                                  "RichardsWorkspace.interface_flux"),
    "richards2d.spsolve": ("richards2d", "spsolve"),
    "material.theta": ("material", "theta"),
    "material.capacity": ("material", "capacity"),
    "material.hydraulic_conductivity": ("material", "hydraulic_conductivity"),
    "material.conductivity_derivative": ("material",
                                         "conductivity_derivative"),
    "material.params_at": ("material", "params_at"),
    "coupling.run_coupled_step": ("coupling", "run_coupled_step"),
    "coupling.predict_S": ("coupling", "predict_S"),
    "analysis.sweep_point": ("analysis", "sweep_point"),
    "analysis.discrete_S": ("analysis", "discrete_S"),
    "linear1d.run_time_step": ("linear1d", "run_time_step"),
    "linear1d.subsurface_solve": ("linear1d", "subsurface_solve"),
    "scenarios.write_csv": ("scenarios", "write_csv"),
}

# The function whose calls are the workload's time steps.
STEP_FUNCTION = {"trench-swe": "coupling.run_coupled_step",
                 "hillslope-kinematic": "coupling.run_coupled_step",
                 "linear-testbench": "linear1d.run_time_step"}


def perturbation(seed: int) -> tuple[float, float]:
    """Two factors within 1 +- PERTURBATION drawn from the seed.

    Nonlinear workloads scale the rain rate and the initial surface head
    (ponded height); linear-testbench scales linrun's K and c.  The default
    seed gives exactly 1.0 twice, so the presets run unchanged.  The soil's
    initial pressure head is left alone: raising it by 1% (hillslope-silt) or
    5% (trench-mixed) makes the Richards Newton solve fail, so it is not an
    input on which every operation succeeds.
    """
    if seed == DEFAULT_SEED:
        return 1.0, 1.0
    rng = random.Random(seed)
    return (1.0 + rng.uniform(-PERTURBATION, PERTURBATION),
            1.0 + rng.uniform(-PERTURBATION, PERTURBATION))


class SpeedProbe:
    """Times a fixed kernel to track how fast the machine runs right now.

    On a shared machine other tenants slow every process down by up to half
    for tens of seconds at a time, one-sidedly.  Sampling the kernel in the
    same process, between the steps being timed, gives the slow-down that
    those steps saw; run.py divides it out.  The kernel mixes interpreter
    work and small numpy calls, as the solvers do.
    """

    def __init__(self, numpy):
        self._vector = numpy.linspace(0.1, 1.0, 64)
        self._sqrt = numpy.sqrt
        self.samples: list[float] = []

    def sample(self, *_ignored) -> None:
        start = time.perf_counter()
        total = 0.0
        for i in range(1500):
            total += i * i
        for _ in range(20):
            total += float(self._sqrt(self._vector) @ self._vector)
        self.samples.append(time.perf_counter() - start)

    def burst(self, count: int = 31) -> list[float]:
        first = len(self.samples)
        for _ in range(count):
            self.sample()
        return self.samples[first:]


class Tracer:
    """Calls, inclusive and self time per wrapped function.

    Self time is a span's duration minus the time of the wrapped spans it
    directly encloses; the enclosing span is the top of ``_stack``.
    """

    def __init__(self, keep_durations: set[str] = frozenset()):
        self.calls: dict[str, int] = {}
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {
            name: [] for name in keep_durations}
        self.extra: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.time.clear()
        self.self_time.clear()
        self.extra.clear()
        for values in self.durations.values():
            values.clear()

    def wrap(self, name: str, function, on_result=None):
        stack = self._stack
        durations = self.durations.get(name)

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.time[name] = self.time.get(name, 0.0) + elapsed
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + elapsed - children[0])
                if durations is not None:
                    durations.append(elapsed)
            if on_result is not None:
                on_result(self, result, args)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def install(self, name: str, module_name: str, path: str,
                package: str = "coupledflow", on_result=None) -> bool:
        """Wrap ``package.module_name.path`` wherever the package binds it.

        ``path`` is a function name or ``Class.method``.  Returns False, and
        records the name as absent, when the module or function is missing.
        """
        module = sys.modules.get(f"{package}.{module_name}")
        owner, _, attribute = path.rpartition(".")
        if owner:
            holder = getattr(module, owner, None)
            original = None if holder is None \
                else holder.__dict__.get(attribute)
            if not callable(original):
                self.absent.append(name)
                return False
            setattr(holder, attribute, self.wrap(name, original, on_result))
            return True
        original = getattr(module, attribute, None)
        if not callable(original):
            self.absent.append(name)
            return False
        wrapper = self.wrap(name, original, on_result)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == package or
                                      loaded_name.startswith(package + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
        return True


def _count_surface_newton(tracer: Tracer, result, args) -> None:
    tracer.add("surface1d.newton_iterations", result[1].iterations)


def _count_csv_bytes(tracer: Tracer, result, args) -> None:
    tracer.add("scenarios.write_csv.bytes", os.path.getsize(args[0]))


ON_RESULT = {"surface1d.implicit_fv_step": _count_surface_newton,
             "scenarios.write_csv": _count_csv_bytes}


def nonlinear_config(scenarios, workload: str, seed: int):
    base, steps, tol = NONLINEAR[workload]
    overrides = [f"coupling.num_steps={steps}"]
    if tol is not None:
        overrides.append(f"coupling.tol={tol!r}")
    rain_factor, head_factor = perturbation(seed)
    if seed != DEFAULT_SEED:
        preset = scenarios.preset(base)
        overrides.append(f"rain.rate={preset.rain_rate * rain_factor!r}")
        overrides.append(f"initial.h={preset.h0 * head_factor!r}")
    return scenarios.load_config(base=base, overrides=overrides)


def linear_commands(seed: int, out: str) -> list[list[str]]:
    k_factor, c_factor = perturbation(seed)
    return [
        ["analyze", "--mode", "material", "--c", LINEAR_MATERIAL_AXIS,
         "--k", LINEAR_MATERIAL_AXIS, "--out", os.path.join(out, "material")],
        ["analyze", "--mode", "resolution",
         "--out", os.path.join(out, "resolution")],
        ["linrun", "--num-elements", "40", "--dt", "0.05",
         "--c", repr(1.0 * c_factor), "--k", repr(1.0 * k_factor),
         "--omega", "0.5", "--tol", "1e-13",
         "--max-iters", str(LINRUN_MAX_ITERS),
         "--steps", str(LINRUN_STEPS), "--out", os.path.join(out, "linrun")],
    ]


def run_unit(workload: str, seed: int, mode: str, out: str) -> dict:
    report: dict = {"workload": workload, "seed": seed, "mode": mode}
    start = time.perf_counter()
    import coupledflow.cli as cli  # noqa: F401  (set-up includes this import)
    report["import_s"] = time.perf_counter() - start
    import numpy
    import scipy
    from coupledflow import scenarios
    report["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}

    step_name = STEP_FUNCTION[workload]
    tracer = Tracer(keep_durations={step_name})
    probe = SpeedProbe(numpy)
    # one kernel sample after every step, outside the step's own span
    if mode == "traced":
        for name, (module_name, path) in LAYER_FUNCTIONS.items():
            tracer.install(name, module_name, path,
                           on_result=probe.sample if name == step_name
                           else ON_RESULT.get(name))
    elif mode == "plain":
        tracer.install(step_name, *LAYER_FUNCTIONS[step_name],
                       on_result=probe.sample)

    config = None
    if workload in NONLINEAR:
        config = nonlinear_config(scenarios, workload, seed)
        scenarios.build_all(config)
    report["setup_end"] = time.perf_counter()
    report["setup_kernel_s"] = statistics.median(probe.burst())
    if mode == "setup":
        return report
    tracer.reset()
    probe.samples.clear()

    def timed(call, *args):
        """Result of call and its seconds, less the kernel samples in it."""
        sampled = sum(probe.samples)
        begin = time.perf_counter()
        result = call(*args)
        seconds = time.perf_counter() - begin
        return result, seconds - (sum(probe.samples) - sampled)

    if config is not None:
        result, report["wall_s"] = timed(scenarios.run_scenario, config, out)
        report["stepping_s"] = report["wall_s"]
        report["step_kernel_s"] = list(probe.samples)
        probe.burst()
        records = result.records
        report["steps"] = len(records)
        report["counts"] = {
            "coupling.iterations": sum(r.iterations for r in records),
            "coupling.cr_defined_steps": sum(r.cr is not None
                                             for r in records),
            "richards2d.newton_iterations": sum(r.newton_iterations
                                                for r in records),
        }
        report["converged"] = all(r.converged for r in records)
        report["max_iters"] = config.max_iters
    else:
        report["exit_codes"] = []
        report["wall_s"] = 0.0
        for argv in linear_commands(seed, out):
            code, seconds = timed(cli.main, argv)
            report["exit_codes"].append(code)
            burst = probe.burst()
            report["wall_s"] += seconds
            if argv[0] == "linrun":
                report["stepping_s"] = seconds
                report["step_kernel_s"] = probe.samples[
                    -LINRUN_STEPS - len(burst):-len(burst)]
        report["steps"] = LINRUN_STEPS
        report["counts"] = {}
        report["converged"] = report["exit_codes"] == [0, 0, 0]
        report["max_iters"] = LINRUN_MAX_ITERS

    report["kernel_s"] = statistics.fmean(probe.samples)
    report["step_s"] = tracer.durations[step_name]
    report["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced":
        report["calls"] = tracer.calls
        report["time"] = tracer.time
        report["self_time"] = tracer.self_time
        report["counts"].update({key: int(value) for key, value
                                 in tracer.extra.items()})
    report["absent"] = tracer.absent
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        default="plain")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    report = run_unit(args.workload, args.seed, args.mode, args.out)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
