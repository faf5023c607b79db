"""Layout benchmark: run one workload for a while and print one JSON result.

    python3 bench/run.py --workload one_parent --seed 0 --seconds 25 --trace 0

Run from the repository root; simmap is imported from src/. The workloads are
described in bench/workloads.py; without --workload all four run in turn,
each printing its own result. A run cycles through the workload's layouts
until --seconds have passed, and runs each at least twice, in one process.

--trace 0 reports the end-to-end metrics: ref_wall_s and ref_cpu_s are one
pass's wall and CPU time, each layout's median over the run summed over the
pass, scaled by a calibration loop run next to each layout (see
CALIBRATION_REF_S); setup_s is the median of several fresh interpreters
importing simmap, measured between the first layouts and scaled the same way;
peak_rss_mb is the process's peak resident memory. The raw times are printed
on the human-readable lines.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of bench/tracer.py plus the layouts' quality.

Every layout is checked: partition and containment (criterion 3's bounds), a
cell-<id> element in the SVG for every drawn leaf, and metrics identical to
the first run of the same input and seed. A layout that raises or fails a
check counts as failed. Human-readable lines come first on stdout; the last
line is {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracer as tracing
import workloads as wl

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ref_wall_s", "s", "lower"),
    ("ref_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("init_preserved_fraction", "ratio", "higher"),
)
PER_LAYER = tracing.PER_LAYER + wl.QUALITY
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
SETUP_RUNS = 5
MIN_PASSES = 2

# On a virtual machine whose cores other tenants share, the speed of the same
# code can drift by up to half over tens of seconds, so a layout's raw time
# says as much about the neighbours as about simmap. Each untraced layout is
# therefore bracketed by a fixed calibration loop in the style of simmap's
# inner loops (Python-level iteration over small numpy arrays), and its time
# is scaled to a machine on which one unit of that loop takes
# CALIBRATION_REF_S:
#   ref_wall_s = wall_s * CALIBRATION_REF_S / (mean unit time before and after).
# The loop is noisy over a few milliseconds, so each side runs it for
# CALIBRATION_SHARE of the layout's time so far, and at least
# CALIBRATION_MIN_S. The loop never calls simmap, so a change to simmap moves
# ref_wall_s as it would move wall_s on a machine of steady speed.
CALIBRATION_REF_S = 0.005
CALIBRATION_MIN_S = 0.04
CALIBRATION_SHARE = 0.05
_CALIBRATION_POINTS = np.linspace(0.0, 1.0, 80).reshape(40, 2)


def _calibration_unit() -> float:
    total = 0.0
    for k in range(500):
        d = _CALIBRATION_POINTS - _CALIBRATION_POINTS[k % 40]
        total += float((d * d).sum(axis=1).min())
        for i in range(40):
            total += i * 0.5
    return total


def calibration_s(budget: float) -> float:
    """Mean seconds of one calibration unit, run for about `budget` seconds."""
    units = 0
    start = time.perf_counter()
    while True:
        _calibration_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / units


def calibration_budget(times: list[float]) -> float:
    """Seconds to run the calibration loop on each side of a timed call."""
    return max(CALIBRATION_MIN_S, CALIBRATION_SHARE * statistics.median(times or [0.0]))


def measure_setup(previous: list[float]) -> tuple[float, float]:
    """Seconds from a fresh interpreter to `import simmap` done: raw, and
    scaled by the calibration loop run right before and after it. Import time
    drifts with the machine too, if less closely with the loop."""
    code = f"import sys; sys.path.insert(0, {str(wl.SRC)!r}); import simmap"
    budget = calibration_budget(previous)
    before = calibration_s(budget)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    raw = time.perf_counter() - start
    after = calibration_s(budget)
    return raw, raw * CALIBRATION_REF_S / ((before + after) / 2)


class Runner:
    """Runs a workload's layouts, checks every output and keeps each layout's times."""

    def __init__(self, layouts: list):
        self.layouts = layouts
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Untraced seconds per layout, raw and scaled to the calibration reference.
        self.walls: list[list[float]] = [[] for _ in layouts]
        self.cpus: list[list[float]] = [[] for _ in layouts]
        self.ref_walls: list[list[float]] = [[] for _ in layouts]
        self.ref_cpus: list[list[float]] = [[] for _ in layouts]
        self.calibrations: list[float] = []
        self.setups: list[float] = []       # raw and scaled set-up seconds
        self.setups_ref: list[float] = []
        self._first: dict[int, wl.Output] = {}   # first output per layout, for quality

    @property
    def quality(self) -> dict:
        """Quality of one pass: each layout's first output; later runs must match it."""
        return wl.quality([self._first[i] for i in sorted(self._first)])

    def run_layout(self, index: int, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """Run and check one layout; returns its (wall, cpu) seconds.

        Only the call into simmap is timed. Untraced times are kept per layout,
        raw and scaled by the calibration loop run right before and after."""
        layout = self.layouts[index]
        budget = calibration_budget(self.walls[index])
        before = calibration_s(budget) if tracer is None else 0.0
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            raw = tracer.root(layout.call) if tracer is not None else layout.call()
        except Exception as exc:  # a layout that raises counts as failed
            raw = exc
        wall = time.perf_counter() - start
        cpu = time.process_time() - start_cpu
        if tracer is None:
            after = calibration_s(budget)
            scale = CALIBRATION_REF_S / ((before + after) / 2)
            self.walls[index].append(wall)
            self.cpus[index].append(cpu)
            self.ref_walls[index].append(wall * scale)
            self.ref_cpus[index].append(cpu * scale)
            self.calibrations += [before, after]
        self._check(index, layout, raw)
        return wall, cpu

    def run_pass(self, tracer: tracing.Tracer | None = None) -> tuple[float, float]:
        """One pass over all layouts; returns its (wall, cpu) seconds.

        With a tracer, wall time is the summed duration of the root spans."""
        if tracer is not None:
            tracer.reset()
        wall = cpu = 0.0
        for index in range(len(self.layouts)):
            layout_wall, layout_cpu = self.run_layout(index, tracer)
            wall += layout_wall
            cpu += layout_cpu
        if tracer is not None:
            wall = tracer.root_s
        return wall, cpu

    def _check(self, index: int, layout, raw) -> None:
        self.attempted += 1
        if isinstance(raw, Exception):
            problems = [f"{type(raw).__name__}: {raw}"]
        else:
            output = layout.summarize(raw)
            problems = wl.check(output)
            first = self._first.setdefault(index, output.without_geometry())
            if output.fingerprint != first.fingerprint:
                problems.append("metrics differ from the first run of the same input and seed")
        if problems:
            self.fail(f"{layout.label}: " + "; ".join(problems))

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Cycle through the layouts while the next one fits in `seconds`,
    interleaving the set-up measurements with the first layouts.

    Each layout's time is the median of its runs, scaled to the calibration
    reference; ref_wall_s and ref_cpu_s are those medians summed over a pass."""
    start = time.perf_counter()
    setup, setup_ref = runner.setups, runner.setups_ref
    steps: list[list[float]] = [[] for _ in runner.layouts]  # seconds per layout, checks included
    n = len(runner.layouts)
    done = 0
    while True:
        index = done % n
        if done >= MIN_PASSES * n:
            # Stop when the next layout and the set-ups still owed, at their
            # median times so far, would end past `seconds`.
            expected = (statistics.median(steps[index])
                        + (SETUP_RUNS - len(setup)) * statistics.median(setup))
            if time.perf_counter() - start + expected > seconds:
                break
        if len(setup) < SETUP_RUNS:
            raw, ref = measure_setup(setup)
            setup.append(raw)
            setup_ref.append(ref)
        step_start = time.perf_counter()
        runner.run_layout(index)
        steps[index].append(time.perf_counter() - step_start)
        done += 1
    while len(setup) < SETUP_RUNS:
        raw, ref = measure_setup(setup)
        setup.append(raw)
        setup_ref.append(ref)
    return {
        "setup_s": statistics.median(setup_ref),
        "ref_wall_s": sum(statistics.median(w) for w in runner.ref_walls),
        "ref_cpu_s": sum(statistics.median(c) for c in runner.ref_cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "init_preserved_fraction": runner.quality["init_preserved_fraction"],
    }


def run_traced(runner: Runner, seconds: float, workload: str) -> dict:
    """Alternate untraced and traced passes while another pair fits in `seconds`."""
    tracer = tracing.Tracer()
    plain, traced, layers, counts = [], [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    while not traced or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        plain.append(runner.run_pass()[0])
        with tracer.installed():
            traced.append(runner.run_pass(tracer)[0])
        pair_s = time.perf_counter() - pair_start
        layers.append(tracer.layer_metrics())
        counts.append(tracer.work_counts())
        if counts[-1] != counts[0]:
            runner.fail("work counts differ between traced passes of the same input")
    for span in wl.WORKLOADS[workload]["loads"]:
        if span in tracer.wrapped and not counts[0].get(f"{span}.calls"):
            runner.fail(f"traced pass recorded no call of {span}")
    out = {
        name: statistics.median(run[name] for run in layers) if unit == "s" else layers[0][name]
        for name, unit, _ in tracing.PER_LAYER if name in layers[0]
    }
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name, _, _ in wl.QUALITY:
        out[name] = runner.quality[name.split(".", 1)[1]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *wl.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.workload == "all":
        # One workload at a time, each in its own interpreter, so that
        # peak_rss_mb and setup are measured per workload.
        for workload in wl.WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0

    wl.import_simmap()
    runner = Runner(wl.layouts(args.workload, args.seed))
    if args.trace:
        metrics = run_traced(runner, args.seconds, args.workload)
    else:
        metrics = run_untraced(runner, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} layouts attempted, {runner.failed} failed")
    print("  untraced runs and median raw seconds per layout: " + ", ".join(
        f"{layout.label} {len(w)}x {statistics.median(w):.3f}"
        for layout, w in zip(runner.layouts, runner.walls) if w))
    if runner.setups:
        print(f"  raw wall_s {sum(statistics.median(w) for w in runner.walls):.4f} s, "
              f"raw cpu_s {sum(statistics.median(c) for c in runner.cpus):.4f} s, "
              f"raw setup_s {statistics.median(runner.setups):.4f} s, "
              f"calibration unit median {statistics.median(runner.calibrations):.6f} s "
              f"(reference {CALIBRATION_REF_S} s)")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {UNITS[name]}")
    if not args.trace:
        for name, value in runner.quality.items():
            print(f"  quality.{name:<34} {value:>14.6g}")
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
