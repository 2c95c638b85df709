"""The benchmark's workloads, and the worker that runs one of them.

Each worker is a fresh interpreter, so the library's memos start cold
as they do for every command-line invocation, and the peak resident set
it reports belongs to one workload.  Usage (normally spawned by run.py):

    python3 perfbench/workloads.py MODE WORKLOAD SEED SPAWN_TIME

MODE is ``setup`` (import and build the inputs, then stop), ``pass``
(also run the timed part once, interleaved with calibration slices, and
check every output; see calibrate.py), ``plain`` (a pass without the
slices) or ``traced`` (a plain pass with the layer tracer installed
after set-up).  SPAWN_TIME is the parent's ``time.monotonic()`` just
before it started this process, so ``setup_s`` covers interpreter
start, import and input generation.
The worker prints one JSON object on its last line of output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("verify-matrix", "verify-free", "kappa-deep")
CHECKS = {
    "verify-matrix": ("moment-cumulant", "total-cumulance", "partial-cumulants",
                      "nested-closed-forms", "classical-total-cumulance"),
    "verify-free": ("lattice-counts", "moebius", "kreweras", "freeness", "product-formula",
                    "freeness-characterization", "tensor-factorization"),
}
KAPPA_OPS = ("matrix-kappa7", "scalar-kappa8", "word-kappa6")
DEFAULT_SEED = 2024
HOLDOUT_SEED = 1312
# matrix kappa_7 instances come from this many recorded seeds: seed % KAPPA_POOL
KAPPA_POOL = 100


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def report_row(report) -> str:
    """Canonical JSON of a report without its stopwatch, as fingerprinted."""
    row = report.to_json()
    row.pop("wall_time")
    return json.dumps(row, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def kappa_matrix_instance(fc, seed: int):
    """Matrix model (d=2, 3 generators) and the length-7 word alternating
    two of its generators.  Mixed kappa_7 of independent generators drawn
    at random is mostly the zero matrix; an alternating pair is not, so
    the recorded value tests something."""
    p = seed % KAPPA_POOL
    model = fc.MatrixModel.random(3, 2, 8, p)
    a, b = random.Random(f"{p}:kappa-deep").sample(model.generator_names, 2)
    return p, model, [a, b, a, b, a, b, a]


def make_inputs(fc, workload: str, seed: int) -> dict:
    if workload in CHECKS:
        return {"checks": CHECKS[workload], "seed": seed}
    if workload != "kappa-deep":
        raise ValueError(f"unknown workload {workload!r}")
    pool, mmodel, mword = kappa_matrix_instance(fc, seed)
    mctx = fc.MatrixContext(mmodel)
    # Alternating words give every seed the same word shapes; the seed
    # draws the model data and which generator comes first.
    rng = random.Random(f"{seed}:kappa-deep")
    spec = fc.ScalarFreeSpec.random({"a": ("a1", "a2")}, 8, seed)
    sctx = fc.ScalarFreeContext(spec)
    sword = tuple(rng.sample(("a1", "a2"), 2)) * 4
    fmodel = fc.FactorizationModel.random(2, 2, 8, seed)
    wctx = fc.WordContext(fmodel)
    wword = tuple(rng.sample(("x1", "x2"), 2)) * 3
    return {
        "pool": pool,
        "matrix_word": " ".join(mword),
        # (name, context, arguments, level, closed-form cumulant or None)
        "ops": (
            (KAPPA_OPS[0], mctx, [mmodel.generators[g] for g in mword], fc.Level.PSI, None),
            (KAPPA_OPS[1], sctx, [sctx.gen(g) for g in sword], fc.Level.PHI,
             spec.cumulant(sword)),
            (KAPPA_OPS[2], wctx, [wctx.gen(g) for g in wword], fc.Level.PSI,
             fmodel.scalars.cumulant(wword)),
        ),
    }


def run_timed(fc, inputs: dict) -> list:
    """The measured part: one result (or the exception raised) per operation."""
    results = []
    if "checks" in inputs:
        for identity in inputs["checks"]:
            try:
                results.append((identity, fc.run_check(identity, seed=inputs["seed"])))
            except Exception as exc:  # counted as a failed operation
                results.append((identity, exc))
        return results
    for name, ctx, args, level, _ in inputs["ops"]:
        try:
            value = fc.free_cumulant(ctx, fc.Partition.full(len(args)), args, level)
            results.append((name, value))
        except Exception as exc:
            results.append((name, exc))
    return results


def raised(exc: Exception) -> str:
    return "raised " + "".join(traceback.format_exception(exc))[-1500:]


def verify_check(identity: str, report, seed: int, ref: dict) -> dict:
    """PASS, the recorded case count, and the recorded row digest where one exists."""
    if isinstance(report, Exception):
        return {"op": identity, "ok": False, "error": raised(report)}
    out = {"op": identity, "ok": False, "cases": report.cases, "wall_time": report.wall_time}
    row = report_row(report)
    out["row"] = row
    expected = ref["cases"][identity]
    recorded = ref["digests"].get(str(seed), {}).get(identity)
    if report.status != "pass":
        out["error"] = f"status {report.status}: {report.witness}"
    elif report.cases != expected:
        out["error"] = f"{report.cases} cases, expected {expected}"
    elif recorded is not None and digest(row) != recorded:
        out["error"] = f"report digest {digest(row)[:16]} differs from recorded {recorded[:16]}"
    else:
        out["ok"] = True
    return out


def verify_kappa(name: str, value, ctx, expected, inputs: dict, ref: dict) -> dict:
    """Scalar and word-model kappa_n against the closed form c * unit, with
    c the spec's own cumulant (``expected``); matrix kappa_7 (``expected``
    None) against the value recorded for its pool seed."""
    out = {"op": name, "ok": False}
    if isinstance(value, Exception):
        out["error"] = raised(value)
        return out
    try:
        if expected is None:
            record = ref["kappa_matrix"][inputs["pool"]]
            if inputs["matrix_word"] != record["word"]:
                out["error"] = f"word {inputs['matrix_word']} differs from recorded {record['word']}"
                return out
            got = [[a.constant_value() for a in row] for row in value.entries]
            want = [[Fraction(a) for a in row] for row in record["value"]]
        else:
            got, want = value, ctx.scale(expected, ctx.unit())
    except (ValueError, TypeError, AttributeError) as exc:
        out["error"] = f"unreadable value: {exc!r}"
        return out
    if got != want:
        out["error"] = f"{name} = {ctx.describe(value)}, expected {want}"
    else:
        out["ok"] = True
    return out


def verify(inputs: dict, results: list, seed: int, ref: dict) -> list:
    if "checks" in inputs:
        return [verify_check(identity, report, seed, ref) for identity, report in results]
    return [
        verify_kappa(name, value, ctx, expected, inputs, ref)
        for (name, value), (_, ctx, _, _, expected) in zip(results, inputs["ops"])
    ]


def worker(mode: str, workload: str, seed: int, spawned: float) -> dict:
    import freecumulants as fc

    inputs = make_inputs(fc, workload, seed)
    out = {"setup_s": time.monotonic() - spawned}
    if mode == "setup":
        return out
    tracer = None
    if mode == "traced":
        import layertrace

        tracer = layertrace.install(fc)
    if mode == "pass":
        with calibrate.Interleaver() as slices:
            t0 = time.perf_counter()
            results = run_timed(fc, inputs)
            wall = time.perf_counter() - t0
        out["raw_wall_s"] = wall - slices.slice_total_s
        out["slice_s"] = slices.mean_slice_s
        out["wall_s"] = calibrate.calibrated(out["raw_wall_s"], out["slice_s"])
    else:
        t0 = time.perf_counter()
        results = run_timed(fc, inputs)
        out["raw_wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = verify(inputs, results, seed, load_reference())
    if tracer is not None:
        out["trace"] = tracer.metrics()
    return out


if __name__ == "__main__":
    mode, workload, seed, spawned = sys.argv[1:5]
    if mode not in ("setup", "pass", "plain", "traced"):
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(worker(mode, workload, int(seed), float(spawned))))
