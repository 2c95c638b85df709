"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py          # about a minute

They check that the output gate refuses a corrupted value or report,
that such a run exits non-zero with ``fail_frac`` above 0, that a
checkout without the library's source gets no result, that calibration
slices run during a pass and their time is taken out of it, and that
two traced runs count exactly the same work.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

import freecumulants as fc  # noqa: E402

SEED = workloads.DEFAULT_SEED


def checkout_copy(tmp: str, with_source: bool = True) -> str:
    """The files a benchmark checkout holds, copied under ``tmp``."""
    root = os.path.join(tmp, "checkout")
    shutil.copytree(HERE, os.path.join(root, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.SPEC, root)
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def run_benchmark(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=180)


class OutputGate(unittest.TestCase):
    ref = workloads.load_reference()

    def test_a_corrupted_report_fails(self):
        report = fc.run_check("lattice-counts", seed=SEED)
        self.assertTrue(workloads.verify_check("lattice-counts", report, SEED, self.ref)["ok"])
        params = dict(report.params, nc_max=report.params["nc_max"] - 1)
        for bad in (dataclasses.replace(report, status="fail"),
                    dataclasses.replace(report, cases=report.cases + 1),
                    dataclasses.replace(report, params=params),
                    RuntimeError("raised inside the check")):
            self.assertFalse(workloads.verify_check("lattice-counts", bad, SEED, self.ref)["ok"])

    def test_a_corrupted_kappa_value_fails(self):
        inputs = workloads.make_inputs(fc, "kappa-deep", SEED)
        (mname, mctx, *_), (sname, sctx, _, _, scalar), (wname, wctx, _, _, word) = inputs["ops"]
        recorded = self.ref["kappa_matrix"][inputs["pool"]]["value"]
        good = [
            (mname, mctx.model.embed_b(fc.Matrix([[Fraction(a) for a in row] for row in recorded]))),
            (sname, sctx.scale(scalar, sctx.unit())),
            (wname, wctx.scale(word, wctx.unit())),
        ]
        self.assertTrue(all(op["ok"] for op in workloads.verify(inputs, good, SEED, self.ref)))
        for k, (_, ctx, *_) in enumerate(inputs["ops"]):
            corrupted = list(good)
            corrupted[k] = (good[k][0], ctx.add(good[k][1], ctx.unit()))
            verdicts = [op["ok"] for op in workloads.verify(inputs, corrupted, SEED, self.ref)]
            self.assertEqual(verdicts, [j != k for j in range(3)])

    def test_every_declared_layer_metric_is_measured(self):
        with open(bench.SPEC) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        checks = workloads.CHECKS["verify-matrix"] + workloads.CHECKS["verify-free"]
        measured = set(layertrace.metric_names()) | {"trace.overhead_s"}
        measured |= {f"checks.{c}.{m}" for c in checks for m in ("wall_s", "cases")}
        self.assertLessEqual(declared, measured)
        self.assertEqual(set(self.ref["check_all"]), set(checks))


class RunOutcome(unittest.TestCase):
    def test_a_corrupted_value_fails_the_run(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = checkout_copy(tmp)
            path = os.path.join(root, "perfbench", "reference.json")
            with open(path) as fh:
                ref = json.load(fh)
            ref["cases"]["product-formula"] += 1
            with open(path, "w") as fh:
                json.dump(ref, fh)
            proc = run_benchmark(root, "--workload", "verify-free", "--seconds", "1")
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_no_result_without_the_library_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = run_benchmark(checkout_copy(tmp, with_source=False), "--workload", "kappa-deep")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Calibration(unittest.TestCase):
    def test_slices_interleave_and_are_taken_out(self):
        with calibrate.Interleaver() as slices:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.55:
                sum(range(1000))
            wall = time.perf_counter() - t0
        self.assertGreaterEqual(slices.slices, 4)
        self.assertLess(slices.slice_total_s, wall)
        self.assertAlmostEqual(slices.mean_slice_s * slices.slices, slices.slice_total_s)
        self.assertEqual(calibrate.calibrated(2.0, calibrate.NOMINAL_SLICE_S), 2.0)
        self.assertAlmostEqual(calibrate.calibrated(2.0, 2 * calibrate.NOMINAL_SLICE_S), 1.0)


class TraceCounts(unittest.TestCase):
    def test_two_traced_runs_count_the_same(self):
        for workload in ("verify-free", "kappa-deep"):
            counts = []
            for _ in range(2):
                trace = bench.spawn("traced", workload, SEED, 170)["trace"]
                counts.append({k: v for k, v in trace.items() if not k.endswith("_s")})
            self.assertEqual(counts[0], counts[1], workload)
            self.assertEqual(counts[0]["exact.poly_mul.calls"] > 0, workload == "kappa-deep")


if __name__ == "__main__":
    unittest.main()
