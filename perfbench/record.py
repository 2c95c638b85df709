"""Record the reference values the benchmark checks its outputs against.

    PYTHONPATH=src python3 perfbench/record.py     # about five minutes

Writes perfbench/reference.json with

* ``check_all``: the order in which ``check-all`` runs the checks;
* ``cases``: the case count of each of the twelve checks at default
  bounds (the same for every seed; asserted on the named seeds);
* ``digests``: for the default and the holdout seed, the sha256 of each
  check's report with ``wall_time`` removed, and ``fingerprint``, the
  sha256 of all twelve in ``check-all`` order, as ``json.dumps(rows,
  sort_keys=True)``.  Each check is replayed from its recorded
  ``params`` and must reproduce its digest;
* ``kappa_matrix``: for every pool seed p, the matrix model kappa_7
  word and value, computed by the engine's Moebius route.

Run it only at a commit whose outputs are trusted: the benchmark
treats these values as the truth.
"""

from __future__ import annotations

import json
import sys

import workloads

import freecumulants as fc


def record_seed(seed: int) -> tuple[dict, dict, str]:
    rows, cases, digests = [], {}, {}
    for identity in fc.ALL_CHECKS:
        report = fc.run_check(identity, seed=seed)
        if not report.passed:
            sys.exit(f"{identity} fails at seed {seed}: {report.witness}")
        row = workloads.report_row(report)
        replayed = fc.run_check(identity, params=json.loads(json.dumps(report.params)))
        if workloads.report_row(replayed) != row:
            sys.exit(f"{identity} at seed {seed} does not replay from its params")
        rows.append(json.loads(row))
        cases[identity] = report.cases
        digests[identity] = workloads.digest(row)
        print(f"seed {seed} {identity}: {report.cases} cases", flush=True)
    return cases, digests, workloads.digest(json.dumps(rows, sort_keys=True))


def record_kappa(p: int) -> dict:
    pool, model, word = workloads.kappa_matrix_instance(fc, p)
    args = [model.generators[g] for g in word]
    value = fc.free_cumulant(fc.MatrixContext(model), fc.Partition.full(7), args,
                             fc.Level.PSI, method="moebius")
    return {"seed": pool, "word": " ".join(word),
            "value": [[str(a.constant_value()) for a in row] for row in value.entries]}


def main() -> None:
    ref = {"seeds": {"default": workloads.DEFAULT_SEED, "holdout": workloads.HOLDOUT_SEED},
           "check_all": list(fc.ALL_CHECKS), "cases": None, "digests": {}, "fingerprint": {}, "kappa_matrix": []}
    for seed in (workloads.DEFAULT_SEED, workloads.HOLDOUT_SEED):
        cases, digests, fingerprint = record_seed(seed)
        if ref["cases"] not in (None, cases):
            sys.exit(f"case counts differ between seeds: {ref['cases']} vs {cases}")
        ref["cases"] = cases
        ref["digests"][str(seed)] = digests
        ref["fingerprint"][str(seed)] = fingerprint
        print(f"seed {seed} fingerprint {fingerprint}", flush=True)
    for p in range(workloads.KAPPA_POOL):
        ref["kappa_matrix"].append(record_kappa(p))
        print(f"kappa_7 pool seed {p}: {ref['kappa_matrix'][-1]['word']}", flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
