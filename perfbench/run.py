"""Benchmark of the freecumulants library, driven from outside through its
public functions.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload verify-matrix --seed 2024 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, untraced then traced

With ``--workload`` it measures one workload and prints, as its last line,
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
every workload both ways, prints every metric by name with its unit, the
report fingerprint and the environment, and ends with a JSON summary.

Every timed pass runs in a fresh interpreter (see workloads.py), one at a
time, and checks its outputs; a run with any failed operation exits 1.
``wall_s`` and ``setup_s`` are calibrated against the host's speed of
the moment (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # the benchmark leaves nothing behind in its checkout
import calibrate  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_PROBES = 11  # set-up-only interpreters per run
SETUP_SLICES = 6  # calibration slices run just before and just after each
MIN_PASSES = 2
# Pass k of a run uses seed + k * SEED_STRIDE.  A workload's cost depends
# on its seed by up to a fifth, so a run that spreads its passes over
# several seeds measures that cost with less spread than one seed does.
SEED_STRIDE = 7919
KILL_AFTER_S = 170  # a worker still running then is killed and counts as failed


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, workload: str, seed: int, timeout: float) -> dict:
    """Run one worker interpreter to completion and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), mode, workload, str(seed)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} {workload} worker killed after {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise WorkerError(f"{mode} {workload} worker exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-2000:]}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def op_count(workload: str) -> int:
    return len(workloads.CHECKS.get(workload, workloads.KAPPA_OPS))


class Run:
    """Outcome of one workload run: its passes, set-up samples and failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.setup_slices: list[float] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first_rows: dict[tuple, str] = {}  # (seed, check) -> report row

    def add_pass(self, result: dict, seed: int) -> None:
        self.passes.append(result)
        for op in result["ops"]:
            self.attempted += 1
            row = op.get("row")
            if row is not None:
                # a report must not change between passes with the same seed
                first = self.first_rows.setdefault((seed, op["op"]), row)
                if op["ok"] and row != first:
                    op["ok"], op["error"] = False, "report differs from the first pass"
            if not op["ok"]:
                self.failed += 1
                self.errors.append(f"{op['op']}: {op.get('error')}")

    def add_error(self, exc: WorkerError) -> None:
        self.attempted += op_count(self.workload)
        self.failed += op_count(self.workload)
        self.errors.append(str(exc))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and bool(self.passes)


def probe_setup(run: Run, seed: int, kill_at: float) -> None:
    """One set-up-only interpreter, with calibration slices run in this
    process just before and just after it."""
    run.setup_slices += calibrate.timed_slices(SETUP_SLICES)
    run.setups.append(spawn("setup", run.workload, seed, kill_at - time.monotonic())["setup_s"])
    run.setup_slices += calibrate.timed_slices(SETUP_SLICES)


def measure(workload: str, seed: int, seconds: float) -> Run:
    """Untraced run: set-up probes, then calibrated passes, one seed each,
    while the next one is expected to end within ``seconds`` (at least
    MIN_PASSES)."""
    run = Run(workload)
    kill_at = time.monotonic() + KILL_AFTER_S
    try:
        for _ in range(SETUP_PROBES):
            probe_setup(run, seed, kill_at)
        measuring = time.monotonic()
        while True:
            if len(run.passes) >= MIN_PASSES:
                per_pass = (time.monotonic() - measuring) / len(run.passes)
                if time.monotonic() + per_pass > measuring + seconds:
                    break
            pass_seed = seed + len(run.passes) * SEED_STRIDE
            run.add_pass(spawn("pass", workload, pass_seed, kill_at - time.monotonic()), pass_seed)
            if run.failed:
                break
    except WorkerError as exc:
        run.add_error(exc)
    return run


def measure_traced(workload: str, seed: int) -> tuple[Run, dict | None]:
    """One plain (uncalibrated) and one traced pass; returns the run and
    the traced result."""
    run = Run(workload)
    kill_at = time.monotonic() + KILL_AFTER_S
    traced = None
    try:
        run.add_pass(spawn("plain", workload, seed, kill_at - time.monotonic()), seed)
        traced = spawn("traced", workload, seed, kill_at - time.monotonic())
        run.add_pass(traced, seed)
    except WorkerError as exc:
        run.add_error(exc)
    return run, traced


def end_to_end(run: Run) -> dict:
    if not run.passes:
        return {}
    return {
        "wall_s": statistics.median(p["wall_s"] for p in run.passes),
        "setup_s": calibrate.calibrated(statistics.median(run.setups),
                                        statistics.median(run.setup_slices)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, traced: dict | None, names: list) -> dict:
    if traced is None or len(run.passes) < 2:
        return {}
    values = dict(traced["trace"])
    for identity in workloads.CHECKS["verify-matrix"] + workloads.CHECKS["verify-free"]:
        values[f"checks.{identity}.wall_s"], values[f"checks.{identity}.cases"] = 0.0, 0
    for op in run.passes[0]["ops"]:
        if "cases" in op:
            values[f"checks.{op['op']}.wall_s"] = op["wall_time"]
            values[f"checks.{op['op']}.cases"] = op["cases"]
    values["trace.overhead_s"] = traced["raw_wall_s"] - run.passes[0]["raw_wall_s"]
    return {name: values[name] for name in names}


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "seed": seed}


def show(workload: str, metrics: dict, units: dict, run: Run) -> None:
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        line = f"{workload} {name} = {shown} {units[name]}"
        if name == "wall_s":
            walls = [p["wall_s"] for p in run.passes]
            q1, q3 = quartiles(walls)
            raw = statistics.median(p["raw_wall_s"] for p in run.passes)
            slice_ms = 1000 * statistics.median(p["slice_s"] for p in run.passes)
            line += (f" (median of {len(walls)} passes; q1 {q1:.6g}, q3 {q3:.6g};"
                     f" uncalibrated {raw:.6g} s, slice {slice_ms:.4g} ms)")
        if name == "setup_s":
            raw = statistics.median(run.setups)
            slice_ms = 1000 * statistics.median(run.setup_slices)
            line += (f" (median of {len(run.setups)} interpreters; uncalibrated {raw:.6g} s,"
                     f" slice {slice_ms:.4g} ms)")
        if name == "ok_frac":
            line += f" (fail_frac {run.failed}/{run.attempted})"
        print(line)
    for err in run.errors:
        print(f"{workload} FAILED {err}", file=sys.stderr)


def result_line(run: Run, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    })


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    env = environment(seed)
    print(" ".join(f"{k}={v}" for k, v in {"workload": workload, "trace": int(trace), **env}.items()))
    if trace:
        declared = spec["per_layer"]
        run, traced = measure_traced(workload, seed)
        metrics = per_layer(run, traced, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        run = measure(workload, seed, seconds)
        metrics = end_to_end(run)
    units = {m["name"]: m["unit"] for m in declared}
    show(workload, metrics, units, run)
    print(result_line(run, metrics, units))
    return 0 if run.correct else 1


def run_all(spec: dict, seed: int, seconds: float) -> int:
    env = environment(seed)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {**env, "correct": True, "workloads": {}}
    rows = {}
    for workload in workloads.WORKLOADS:
        run = measure(workload, seed, seconds)
        e2e = end_to_end(run)
        show(workload, e2e, units, run)
        traced_run, traced = measure_traced(workload, seed)
        layers = per_layer(traced_run, traced, [m["name"] for m in spec["per_layer"]])
        show(workload, layers, units, traced_run)
        rows.update((check, row) for (s, check), row in run.first_rows.items() if s == seed)
        summary["correct"] &= run.correct and traced_run.correct
        summary["workloads"][workload] = {"end_to_end": e2e, "per_layer": layers}
    ref = workloads.load_reference()
    if all(identity in rows for identity in ref["check_all"]):
        # json.dumps of the list of rows, as check-all's fingerprint is taken
        fingerprint = workloads.digest("[" + ", ".join(rows[i] for i in ref["check_all"]) + "]")
        recorded = ref["fingerprint"].get(str(seed))
        print(f"check-all report fingerprint {fingerprint}"
              + ("" if recorded is None else f" (recorded {recorded[:16]}...)"))
        summary["fingerprint"] = fingerprint
        if recorded is not None and fingerprint != recorded:
            summary["correct"] = False
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "freecumulants", "__init__.py")):
        print(f"error: no library source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(spec, args.seed, seconds)
    return run_one(spec, args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
