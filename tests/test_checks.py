"""Report plumbing and the command line surface."""

import collections
import contextlib
import copy
import functools
import hashlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from freecumulants import checks, engine, models, partitions
from freecumulants.checks import ALL_CHECKS, replay_report, run_check
from freecumulants.cli import main
from freecumulants.errors import CapacityError
from freecumulants.exact import Matrix, Poly
from freecumulants.models import (
    ClassicalContext, ClassicalSpec, FactorizationModel, MatrixContext, MatrixModel, ScalarFreeContext, ScalarFreeSpec,
    TensorContext, TensorModel, WordContext,
)
from freecumulants.partitions import (
    LatticeKind, Partition, enumerate_partitions, format_partition, interval_list,
)


# the scalar spec with one of its two free families, and with none
ONE_FAMILY, NO_FAMILY = ('{"max_order": 4, "families": [{"name": "a", "generators": ["a1"], "cumulants": '
                         '{"a1": "1", "a1 a1": "1/2", "a1 a1 a1": "-1/3", "a1 a1 a1 a1": "0"}}]}',
                         '{"max_order": 4, "families": []}')
# the documented two-family scalar spec with a zero denominator in one cumulant
ZERO_DENOMINATOR = (Path(__file__).parent.parent / "docs" / "scalar_model.json").read_text().replace(
    '"a1": "1"', '"a1": "1/0"')


def strip_wall(d):
    d = dict(d)
    d.pop("wall_time")
    return d


def test_all_default_checks_pass(default_reports):
    for name, report in default_reports.items():
        assert report.passed, f"{name}: {report.witness}"
        assert report.cases > 0
        assert report.identity == name


def test_default_reports_keep_their_fingerprint(default_reports):
    # sha256 of check-all --format json at the default seed, wall times removed;
    # any change to a default bound, drawn value or case count moves it
    rows = [strip_wall(report.to_json()) for report in default_reports.values()]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "c5733a835fc48ad29eaa6023cb40a0f38bdb83e71ba33395839815eac2527522"


def test_holdout_reports_keep_their_fingerprint():
    # the same digest of check-all --seed 1312, the holdout seed, which no
    # default run draws with
    rows = [strip_wall(fn(seed=1312).to_json()) for fn in ALL_CHECKS.values()]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "b333e09770a3ca1f439c4f509d88f77313ad7809860ae23ea60985719aebb02e"


def test_reports_serialize_with_fixed_fields(default_reports):
    for report in default_reports.values():
        blob = json.loads(json.dumps(report.to_json()))
        assert set(blob) == {"identity", "status", "params", "cases", "witness", "wall_time"}
        assert blob["status"] == "pass"
        assert blob["witness"] is None


def test_checks_are_deterministic_given_seed_and_bounds():
    a = run_check("product-formula", seed=5).to_json()
    b = run_check("product-formula", seed=5).to_json()
    assert strip_wall(a) == strip_wall(b)
    c = run_check("product-formula", seed=6).to_json()
    assert strip_wall(a) != strip_wall(c)


def test_replay_reruns_recorded_values_not_seeds(default_reports):
    report = default_reports["product-formula"].to_json()
    blob = json.loads(json.dumps(report))
    blob["params"]["seed"] = 999999  # ignored: drawn values are recorded
    again = replay_report(blob)
    assert again.passed
    assert again.cases == report["cases"]


def test_replay_of_a_witness_evaluates_exactly_one_case(default_reports):
    blob = json.loads(json.dumps(default_reports["kreweras"].to_json()))
    blob["witness"] = {"instance": {"part": "size", "n": 4, "pi": "{1,2}{3}{4}"}}
    again = replay_report(blob)
    assert again.passed and again.cases == 1
    blob["witness"] = {"instance": {"part": "size", "n": 4, "pi": "{1,2,3,4,5}"}}
    missing = replay_report(blob)
    assert not missing.passed
    assert missing.witness["error"] == "instance not found"


def test_a_run_without_cases_fails():
    for identity, n in (("total-cumulance", 0), ("product-formula", 0)):
        report = run_check(identity, n=n)
        assert not report.passed and report.cases == 0, identity
        assert set(report.witness) == {"error"}, identity


# the flags each check reads besides seed, as the README's checks table lists them
READS = {
    "lattice-counts": {"n"},
    "moebius": {"n"},
    "kreweras": {"n"},
    "moment-cumulant": {"n", "dimension", "max_order", "spec_data"},
    "total-cumulance": {"n", "dimension", "max_order", "spec_data"},
    "partial-cumulants": {"n", "dimension", "max_order", "spec_data"},
    "nested-closed-forms": {"dimension", "max_order", "spec_data"},
    "classical-total-cumulance": {"n", "max_order", "spec_data"},
    "freeness": {"n", "max_order", "spec_data"},
    "product-formula": {"n", "max_order", "spec_data"},
    "freeness-characterization": {"n", "dimension", "max_order", "spec_data"},
    "tensor-factorization": {"n", "dimension", "max_order", "spec_data"},
}


def test_each_check_rejects_the_flags_it_does_not_read():
    assert list(READS) == list(ALL_CHECKS)
    for identity, reads in READS.items():
        for flag in {"n", "dimension", "max_order", "spec_data"} - reads:
            with pytest.raises(ValueError, match=f"does not read {flag}"):
                run_check(identity, **{flag: {} if flag == "spec_data" else 3})


def test_lattice_checks_accept_a_seed_and_do_not_record_it(default_reports):
    for identity in ("lattice-counts", "moebius", "kreweras"):
        report = run_check(identity, seed=5)
        assert report.passed, identity
        assert report.params == default_reports[identity].params, identity


def test_unknown_check_name_is_rejected():
    with pytest.raises(KeyError):
        run_check("nonsense")


def test_every_check_is_registered():
    assert set(ALL_CHECKS) == {
        "lattice-counts",
        "moebius",
        "kreweras",
        "moment-cumulant",
        "total-cumulance",
        "partial-cumulants",
        "nested-closed-forms",
        "classical-total-cumulance",
        "freeness",
        "product-formula",
        "freeness-characterization",
        "tensor-factorization",
    }


# ---------------------------------------------------------------------------
# command line


def test_cli_enumerate_counts_and_formats(capsys):
    assert main(["enumerate", "--n", "4", "--lattice", "nc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    assert "{1,2,3,4}" in lines
    assert main(["enumerate", "--n", "3", "--lattice", "full", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 5


def test_cli_lattice_commands(capsys):
    assert main(["moebius", "--n", "4", "--lattice", "nc"]) == 0
    assert capsys.readouterr().out.strip() == "-5"
    assert main(["moebius", "{1}{2}{3}", "{1,2,3}", "--lattice", "full"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["kreweras", "{1,3}{2}{4}"]) == 0
    assert capsys.readouterr().out.strip() == "{1,2}{3,4}"
    assert main(["quotient", "{1,2,5}{3,4}", "{1,2}{3,4}{5}"]) == 0
    assert capsys.readouterr().out.strip() == "{1,3}{2}"
    assert main(["join", "{1,3}{2}{4}", "{2,4}{1}{3}", "--lattice", "nc"]) == 0
    assert capsys.readouterr().out.strip() == "{1,2,3,4}"


def test_cli_check_passes_and_emits_json(capsys):
    assert main(["check", "lattice-counts", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["identity"] == "lattice-counts"
    assert blob["status"] == "pass"


def test_cli_setup_failures_become_fail_reports(capsys):
    # order capacity too small for the default bounds: report-level failure
    code = main(["check", "moment-cumulant", "--max-order", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "setup" in out


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert main(["kreweras", "{1,3}{2"]) == 2
    assert main(["kreweras", "{1,3}{2,4}"]) == 2  # crossing has no complement
    assert main(["check", "--replay", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_cli_zero_case_runs_fail(capsys):
    assert main(["check", "total-cumulance", "--n", "0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL total-cumulance (0 cases")
    assert main(["check", "product-formula", "--n", "0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL product-formula (0 cases")


def test_cli_negative_n_exits_two_before_any_case(monkeypatch, capsys):
    # moebius, kreweras and freeness each passed on their other bounds
    monkeypatch.setattr(checks._Suite, "record", lambda *args: pytest.fail("a case ran"))
    for identity, n in (("moebius", "-1"), ("kreweras", "-3"), ("freeness", "-1")):
        assert main(["check", identity, "--n", n]) == 2, identity
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {identity}: --n must be nonnegative, got {n}\n"


def test_cli_replay_of_malformed_params_exits_two(tmp_path, capsys):
    # a replay never draws from the seed, and a spec is a JSON object
    path = tmp_path / "input.json"
    for report in ({"identity": "moebius", "params": []}, {"identity": "moebius", "params": None},
                   {"identity": "moebius", "params": {}, "witness": "oops"},
                   {"identity": "moebius", "params": {}, "witness": [1]}, ["moebius"], None):
        path.write_text(json.dumps(report))
        assert main(["check", "--replay", str(path)]) == 2, report
        err = capsys.readouterr().err
        assert err.startswith("error: cannot replay") and len(err.splitlines()) == 1, report
    for identity in ("freeness", "tensor-factorization"):
        for spec in ([], "model", None):
            path.write_text(json.dumps(spec))
            assert main(["check", identity, "--n", "2", "--spec", str(path)]) == 2, (identity, spec)
            err = capsys.readouterr().err
            assert err.startswith("error: cannot load") and len(err.splitlines()) == 1, (identity, spec)


def test_cli_malformed_dimension_exits_two(capsys):
    for identity in ("moment-cumulant", "tensor-factorization", "freeness-characterization"):
        assert main(["check", identity, "--dim", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {identity}:") and len(err.splitlines()) == 1


def test_cli_flags_a_check_does_not_read_exit_two(capsys):
    for argv in (["freeness", "--dim", "-1", "--n", "3"], ["nested-closed-forms", "--n", "3"],
                 ["lattice-counts", "--max-order", "2"]):
        assert main(["check", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]}: does not read") and len(err.splitlines()) == 1


def test_cli_spec_carries_its_own_capacity(tmp_path, capsys):
    # a 3x3 matrix spec without a max_order key holds the default capacity, 8
    spec = MatrixModel.random(3, 3, 8, 0).to_data()
    del spec["max_order"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["check", "moment-cumulant", "--spec", str(path), "--n", "2"]
    for flag, value, name in (("--max-order", "4", "max_order"), ("--dim", "3", "dimension")):
        assert main([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: moment-cumulant: {name} does not combine with spec_data")
        assert err.count("\n") == 1
    assert main([*argv, "--format", "json"]) == 0
    params = json.loads(capsys.readouterr().out)["params"]
    assert (params["max_order"], params["dimension"]) == (8, 3)
    assert all(row["model"]["max_order"] == 8 for row in params["models"])
    assert all(row["model"]["dimension"] == 3 for row in params["models"])


def test_cli_tensor_spec_sets_the_points(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TensorModel.random(2, 4, 0).to_data()))
    argv = ["check", "tensor-factorization", "--spec", str(path), "--n", "2"]
    assert main([*argv, "--dim", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: tensor-factorization: dimension does not")
    assert main([*argv, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["points"] == 2


def test_cli_tensor_spec_with_unnormalised_weights_exits_two(tmp_path, capsys):
    spec = TensorModel.random(2, 4, 0).to_data()
    spec["weights"] = ["1/2", "1/3"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "tensor-factorization", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: tensor-factorization: state weights must sum to 1\n"


# a run one step past each capacity row, at --n 1000000 past max_order, and at
# the runs the cost bounds were fitted to refuse: (identity, flags, message)
PAST_THE_BOUNDS = [
    ("lattice-counts", {"n": 11}, "max(nc_max, full_max)=11 exceeds MAX_ENUM_N=10"),
    ("moebius", {"n": 11}, "max(nc_value_max, full_value_max, nc_convolution_n, full_convolution_n)=11 "
                           "exceeds MAX_ENUM_N=10"),
    ("kreweras", {"n": 11}, "max(size_max, reversal_max, anti_max, maximality_max)=11 exceeds MAX_ENUM_N=10"),
    *[(identity, flags, why) for identity in ("moment-cumulant", "total-cumulance", "partial-cumulants",
                                              "classical-total-cumulance", "freeness-characterization")
      for flags, why in (({"n": 9}, "n_max=9 exceeds max_order=8"),
                         ({"n": 10**6}, "n_max=1000000 exceeds max_order=8"))],
    *[(identity, {"n": 11, "max_order": 11, "dimension": 1}, "n_max=11 exceeds MAX_ENUM_N=10")
      for identity in ("moment-cumulant", "total-cumulance", "partial-cumulants", "freeness-characterization")],
    ("moment-cumulant", {"dimension": 5}, "dimension^(n_max+2)=78125 exceeds MAX_MATRIX_SPAN=46656"),
    ("moment-cumulant", {"dimension": 6}, "dimension^(n_max+2)=279936 exceeds MAX_MATRIX_SPAN=46656"),
    ("total-cumulance", {"dimension": 7}, "dimension^(n_max+2)=117649 exceeds MAX_MATRIX_SPAN=46656"),
    ("total-cumulance", {"n": 7, "dimension": 1}, "n_max=7 exceeds MAX_TOTAL_N=6"),
    ("total-cumulance", {"n": 7, "dimension": 2}, "n_max=7 exceeds MAX_TOTAL_N=6"),
    ("partial-cumulants", {"dimension": 5}, "dimension^(n_max+2)=78125 exceeds MAX_MATRIX_SPAN=46656"),
    ("partial-cumulants", {"n": 7}, "catalan(n_max)^2=184041 exceeds MAX_JOIN_PAIRS=17424"),
    ("nested-closed-forms", {"max_order": 7}, "n_max=8 exceeds max_order=7"),
    ("nested-closed-forms", {"dimension": 8}, "dimension=8 exceeds MAX_NESTED_DIMENSION=7"),
    ("classical-total-cumulance", {"n": 7}, "n_max=7 exceeds MAX_CLASSICAL_N=6"),
    ("freeness", {"n": 7, "max_order": 6}, "max(mixed_max, alternating_max, 2*quadratic_max)=7 exceeds max_order=6"),
    ("freeness", {"n": 10**6}, "max(mixed_max, alternating_max, 2*quadratic_max)=1000000 exceeds max_order=8"),
    ("freeness", {"n": 8}, "generators^mixed_max=65536 exceeds MAX_MIXED_WORDS=16384"),
    ("freeness-characterization", {"dimension": 9}, "dimension^3*5^n_max=455625 exceeds MAX_WORD_SPAN=421875"),
    ("freeness-characterization", {"n": 6, "dimension": 4}, "dimension^3*5^n_max=1000000 exceeds MAX_WORD_SPAN=421875"),
    ("freeness-characterization", {"n": 5, "dimension": 6}, "dimension^3*5^n_max=675000 exceeds MAX_WORD_SPAN=421875"),
    ("freeness-characterization", {"n": 8, "dimension": 1}, "4^n_max=65536 exceeds MAX_WORD_COST=16384"),
    *[(identity, flags, why) for identity in ("product-formula", "tensor-factorization")
      for flags, why in (({"n": 5}, "2*n_max=10 exceeds max_order=8"),
                         ({"n": 10**6}, "2*n_max=2000000 exceeds max_order=8"))],
]


def gated_params(identity: str, flags: dict) -> dict:
    """The params a fresh run with ``flags`` hands the capacity gate."""
    seen = []
    gate = checks._gate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_gate", lambda limits, params: seen.append(copy.deepcopy(params)) or gate(limits, params))
        with pytest.raises(CapacityError):
            run_check(identity, **flags)
    return seen[0]


def test_each_capacity_row_fails_one_step_past_its_bound(monkeypatch, tmp_path, capsys):
    # every declared row is met fresh, from a spec (model data carrying the
    # flags' max_order and dimension) and by a replay whose params and
    # recorded models carry them: each a setup FAIL, or as a replay an exit 2,
    # in under 2 s with no case run
    rows = {(identity, quantity, bound) for identity, fn in ALL_CHECKS.items() for quantity, bound, *_ in fn.limits}
    met = {(identity, why.split("=")[0], why.split(" exceeds ")[1].split("=")[0])
           for identity, _, why in PAST_THE_BOUNDS}
    assert met == rows
    cases = []
    for identity, flags, why in PAST_THE_BOUNDS:
        capacity = {k: flags[k] for k in ("max_order", "dimension") if k in flags}
        spec = None
        if "max_order" in READS[identity]:  # nested-closed-forms reads no n: its models from partial-cumulants
            source = identity if "n" in READS[identity] else "partial-cumulants"
            params = run_check(source, n=0, **capacity).params
            spec = params["model"] if "model" in params else params["models"][0]["model"]
        base = run_check(identity, **({"n": 0} if "n" in READS[identity] else {})).to_json()
        base["params"].update(gated_params(identity, flags))
        for model in [base["params"]["model"]] if "model" in base["params"] else [
                row["model"] for row in base["params"].get("models", ())]:
            model.update((k, v) for k, v in capacity.items() if k in model)
        cases.append((identity, flags, why, spec, base))
    monkeypatch.setattr(checks._Suite, "record", lambda *args: pytest.fail("a case ran"))
    path = tmp_path / "input.json"
    for identity, flags, why, spec, report in cases:
        n = ["--n", str(flags["n"])] if "n" in flags else []
        argv = [*n, *(["--dim", str(flags["dimension"])] if "dimension" in flags else []),
                *(["--max-order", str(flags["max_order"])] if "max_order" in flags else [])]
        runs = [["check", identity, *argv]]
        if spec is not None:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(spec))
            runs.append(["check", identity, *n, "--spec", str(spec_path)])
        for run in runs:
            t0 = time.perf_counter()
            assert main(run) == 1, run
            assert time.perf_counter() - t0 < 2, run
            out = capsys.readouterr().out
            assert out.startswith(f"FAIL {identity} (0 cases") and f"     error: setup: {why}\n" in out, run
        path.write_text(json.dumps(report))
        t0 = time.perf_counter()
        assert main(["check", "--replay", str(path)]) == 2, (identity, flags)
        assert time.perf_counter() - t0 < 2, (identity, flags)
        assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n"), (identity, flags)
    # the largest word dimension MAX_WORD_SPAN admits at each n
    span = next(row[2] for row in ALL_CHECKS["freeness-characterization"].limits if row[1] == "MAX_WORD_SPAN")
    for n, d in ((1, 43), (2, 25), (3, 15), (4, 8), (5, 5), (6, 3), (7, 1), (8, 1)):
        assert span({"n_max": n, "dimension": d}) <= 3**3 * 5**6 < span({"n_max": n, "dimension": d + 1}), n



def test_cli_order_beyond_capacity_fails_before_any_work(tmp_path, capsys):
    # max_order=8 cannot reach order 12, nor max_order=6 order 7, no lattice
    # is enumerated past MAX_ENUM_N, and the classical check stops at n = 6
    # (41 s at n = 7): a setup FAIL at once, not seconds or minutes of work
    # on the sizes below the bound
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ClassicalSpec.random(["f"] + [f"g{i}" for i in range(8)], 8, 0).to_data()))
    classical = "n_max=7 exceeds MAX_CLASSICAL_N=6"
    for argv, needs in ((["moment-cumulant", "--n", "12"], "n_max=12 exceeds max_order=8"),
                        (["freeness", "--n", "7", "--max-order", "6"],
                         "max(mixed_max, alternating_max, 2*quadratic_max)=7 exceeds max_order=6"),
                        (["lattice-counts", "--n", "11"], "max(nc_max, full_max)=11 exceeds MAX_ENUM_N=10"),
                        (["kreweras", "--n", "11"],
                         "max(size_max, reversal_max, anti_max, maximality_max)=11 exceeds MAX_ENUM_N=10"),
                        (["moebius", "--n", "11"], "max(nc_value_max, full_value_max, nc_convolution_n, "
                                                   "full_convolution_n)=11 exceeds MAX_ENUM_N=10"),
                        (["classical-total-cumulance", "--n", "7"], classical),
                        (["classical-total-cumulance", "--n", "7", "--spec", str(path)], classical)):
        t0 = time.perf_counter()
        assert main(["check", *argv]) == 1
        assert time.perf_counter() - t0 < 2, argv
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {argv[0]} (0 cases"), argv
        assert f"setup: {needs}" in out, argv
    report = run_check("classical-total-cumulance", n=2).to_json()
    report["params"]["n_max"] = 7
    path.write_text(json.dumps(report))
    t0 = time.perf_counter()
    assert main(["check", "--replay", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {classical}\n")


def test_cli_join_pairs_beyond_the_bound_fail_before_any_work(tmp_path, capsys):
    # partial-cumulants' join formula walks Catalan(n)^2 pairs whatever d: at
    # n = 8 (1430^2 pairs) it ran past 60 s, so a fresh run, a spec and a
    # replay all stop at the bound
    why = "catalan(n_max)^2=2044900 exceeds MAX_JOIN_PAIRS=17424"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MatrixModel.random(3, 2, 8, 0).to_data()))
    for argv in (["--n", "8", "--dim", "2"], ["--n", "8", "--spec", str(path)]):
        t0 = time.perf_counter()
        assert main(["check", "partial-cumulants", *argv]) == 1
        assert time.perf_counter() - t0 < 2, argv
        out = capsys.readouterr().out
        assert out.startswith("FAIL partial-cumulants (0 cases") and f"setup: {why}" in out, argv
    report = run_check("partial-cumulants", n=2).to_json()
    report["params"]["n_max"] = 8
    path.write_text(json.dumps(report))
    t0 = time.perf_counter()
    assert main(["check", "--replay", str(path)]) == 2
    assert time.perf_counter() - t0 < 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")


def test_cli_huge_order_fails_before_drawing_arguments(capsys):
    # the arguments drawn grow as n_max^2, so the capacity must be checked first
    for identity, needs in (("moment-cumulant", "n_max=1000000"),
                            ("classical-total-cumulance", "n_max=1000000"),
                            ("freeness-characterization", "n_max=1000000"),
                            ("product-formula", "2*n_max=2000000"),
                            ("tensor-factorization", "2*n_max=2000000")):
        t0 = time.perf_counter()
        assert main(["check", identity, "--n", str(10**6)]) == 1
        assert time.perf_counter() - t0 < 2, identity
        assert f"setup: {needs} exceeds max_order=8" in capsys.readouterr().out


def test_cli_tensor_order_of_two_letter_arguments_fails_before_drawing(capsys):
    # an argument has one or two letters, so a nested moment reaches order 2*n_max
    t0 = time.perf_counter()
    assert main(["check", "tensor-factorization", "--n", "5"]) == 1
    assert time.perf_counter() - t0 < 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL tensor-factorization (0 cases")
    assert "setup: 2*n_max=10 exceeds max_order=8" in out

def test_every_bound_is_named_in_the_documents():
    # README's Bounds section is the one list of the bounds, and the spec
    # format refers to it by name
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    bounds = readme[readme.index("## Bounds"):readme.index("## Tests")]
    specs = (root / "docs" / "model_specs.md").read_text()
    names = {bound for fn in ALL_CHECKS.values() for _, bound, *_ in fn.limits} | set(checks.CAPACITY)
    for name in names:
        assert re.search(rf"\b{name}\b", bounds) and re.search(rf"\b{name}\b", specs), name


def test_freeness_bounds_the_mixed_words_by_the_generators_of_its_spec(tmp_path, capsys):
    # two families of three generators give 6^6 mixed words at n = 6, where
    # the four drawn generators give 4^6: a spec and a replay recording it
    # stop at the gate, and n = 4 (6^4 words) runs
    spec = ScalarFreeSpec.random({"a": ("a1", "a2", "a3"), "b": ("b1", "b2", "b3")}, max_order=6, seed=0).to_data()
    why = "generators^mixed_max=46656 exceeds MAX_MIXED_WORDS=16384"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    t0 = time.perf_counter()
    assert main(["check", "freeness", "--n", "6", "--spec", str(path)]) == 1
    assert time.perf_counter() - t0 < 2
    assert f"setup: {why}" in capsys.readouterr().out
    report = run_check("freeness", n=4, spec_data=spec)
    assert report.passed
    report = report.to_json()
    report["params"]["mixed_max"] = 6
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")


def test_free_checks_refuse_a_model_with_fewer_than_two_families(tmp_path, capsys):
    # freeness compares families: with one, an alternating word a1 a1 is no
    # certificate, and with none there is nothing to alternate
    path = tmp_path / "input.json"
    for identity in ("freeness", "product-formula"):
        report = run_check(identity, n=2).to_json()
        for k, spec in ((1, ONE_FAMILY), (0, NO_FAMILY)):
            why = f"the check needs at least two free families, the model has {k}"
            path.write_text(spec)
            assert main(["check", identity, "--n", "2", "--spec", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {identity}: {why}\n")
            report["params"]["model"]["families"] = report["params"]["model"]["families"][:k]
            path.write_text(json.dumps(report))
            assert main(["check", "--replay", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")


@pytest.mark.parametrize("word, value", [("a1 zz", "1"), ("a1 b1", "5"), ("a1 a1 a1 a1 a1", "2")],
                         ids=["unknown-generator", "mixed-families", "beyond-max-order"])
def test_a_stray_cumulant_word_exits_2(tmp_path, capsys, word, value):
    # a listed cumulant the model cannot hold is refused, not dropped, so
    # the report's params.model stays the file the user gave
    spec = json.loads((Path(__file__).parent.parent / "docs" / "scalar_model.json").read_text())
    spec["families"][0]["cumulants"][word] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "freeness", "--n", "2", "--spec", str(path)]) == 2
    why = f"cumulant word {word!r} is not a word of one family's generators of length 1..4"
    assert capsys.readouterr() == ("", f"error: freeness: {why}\n")


def set_field(path, value):
    """A mutation of model data: the field at ``path`` set to ``value``, or deleted when it is ``...``."""
    def mutate(doc):
        *head, last = path
        parent = functools.reduce(lambda d, k: d[k], head, doc)
        if value is ...:
            del parent[last]
        else:
            parent[last] = value
    return mutate


# (check, its model's record, a malformed field, the error's text): each was misread or
# failed unclearly when from_data read its fields unchecked
MALFORMED_FIELDS = [
    ("moment-cumulant", lambda: MatrixModel.random_data(3, 2, 8, 0), set_field(["dimension"], 2.7),
     "model field 'dimension' must be an integer, got 2.7"),
    ("moment-cumulant", lambda: MatrixModel.random_data(3, 2, 8, 0), set_field(["variables", 0, "moments"], "12345678"),
     "model field 'moments' must be a list, got '12345678'"),
    ("tensor-factorization", lambda: TensorModel.random_data(1, 8, 0), set_field(["weights"], "1"),
     "model field 'weights' must be a list, got '1'"),
    ("moment-cumulant", lambda: MatrixModel.random_data(3, 2, 8, 0), set_field(["generators"], ["g1", "g1"]),
     "model field 'generators' repeats a name: ['g1', 'g1']"),
    ("moment-cumulant", lambda: MatrixModel.random_data(3, 2, 8, 0), set_field(["dimension"], ...),
     "model field 'dimension' is missing or null"),
    ("moment-cumulant", lambda: MatrixModel.random_data(3, 2, 8, 0), set_field(["variables", 1, "name"], "g1_00"),
     "model field 'variables' repeats a name"),
    ("freeness-characterization", lambda: FactorizationModel.random_data(2, 2, 8, 0), set_field(["dimension"], True),
     "model field 'dimension' must be an integer, got True"),
    ("product-formula", lambda: ScalarFreeSpec.random_data({"a": ("a1",), "b": ("b1",)}, 8, 0),
     set_field(["families", 1, "generators"], 5), "model field 'generators' must be a list, got 5"),
    ("product-formula", lambda: ScalarFreeSpec.random_data({"a": ("a1",), "b": ("b1",)}, 8, 0),
     set_field(["families", 1], ["b1"]), "a model record must be an object, got ['b1']"),
]


@pytest.mark.parametrize("identity, record, mutate, why", MALFORMED_FIELDS,
                         ids=["float-dimension", "string-moments", "string-weights", "repeated-generator",
                              "missing-dimension", "repeated-variable", "bool-dimension", "int-generators",
                              "list-family"])
def test_a_malformed_model_field_exits_2_naming_it(tmp_path, capsys, identity, record, mutate, why):
    # as a spec file and as the recorded model of a replayed report
    path, report = tmp_path / "input.json", run_check(identity, n=2).to_json()
    spec = record()
    mutate(spec)
    path.write_text(json.dumps(spec))
    assert main(["check", identity, "--n", "2", "--spec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {identity}: {why}\n")
    mutate(report["params"]["models"][0]["model"] if "models" in report["params"] else report["params"]["model"])
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")


def test_cli_matrix_dimension_beyond_the_bound_fails_before_drawing(tmp_path, capsys):
    # from d = 12 on, the entry names g_ij collide ((1, 11) and (11, 1) are
    # both g_111), so a fresh run, a spec and a replay all stop at the bound
    why = "matrix dimension 12 exceeds MAX_DIMENSION=11"
    t0 = time.perf_counter()
    assert main(["check", "moment-cumulant", "--n", "2", "--dim", "12"]) == 1
    assert time.perf_counter() - t0 < 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL moment-cumulant (0 cases") and f"setup: {why}" in out
    spec = MatrixModel.random(1, 2, 8, 0).to_data()
    spec["dimension"] = 12
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "moment-cumulant", "--n", "2", "--spec", str(path)]) == 1
    assert f"setup: {why}" in capsys.readouterr().out
    report = run_check("moment-cumulant", n=2).to_json()
    for row in report["params"]["models"]:
        row["model"]["dimension"] = 12
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}, the largest at which "
                                       f"the entry names <generator>_<i><j> stay distinct\n")
    with pytest.raises(CapacityError, match=why):
        MatrixModel.random(1, 12, 2, 0)
    assert MatrixModel.random(1, 11, 2, 0).d == 11


def test_cli_word_dimension_beyond_the_bound_fails_before_drawing(tmp_path, capsys):
    # the word model's cost grows about like d^3 5^n (7.9 s at n = 4, d = 11),
    # so a fresh run, a spec and a replay whose recorded models alone carry
    # the dimension all stop at the bound for their n
    for n, d in ((4, 9), (2, 26), (3, 16), (5, 6), (6, 4), (7, 2), (3, 10**6)):
        t0 = time.perf_counter()
        assert main(["check", "freeness-characterization", "--n", str(n), "--dim", str(d)]) == 1
        assert time.perf_counter() - t0 < 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL freeness-characterization (0 cases")
        assert f"setup: dimension^3*5^n_max={d ** 3 * 5 ** n} exceeds MAX_WORD_SPAN=421875\n" in out
    why = "dimension^3*5^n_max=512000 exceeds MAX_WORD_SPAN=421875"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(FactorizationModel.random(2, 16, 8, 0).to_data()))
    assert main(["check", "freeness-characterization", "--n", "3", "--spec", str(path)]) == 1
    assert f"setup: {why}" in capsys.readouterr().out
    report = run_check("freeness-characterization", n=3).to_json()
    for row in report["params"]["models"]:
        row["model"]["dimension"] = 16
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")
    report["params"]["n_max"] = -1  # no cases, as before the bound
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 1
    assert "no cases" in capsys.readouterr().out


def test_cli_word_dimension_past_the_packed_keys_fails_at_the_first_case(capsys):
    # within the word bound at n = 1 (43), d = 17 passes the draw, which
    # records entry strings, and stops at the 16 the packed matrix keys hold
    t0 = time.perf_counter()
    assert main(["check", "freeness-characterization", "--n", "1", "--dim", "17"]) == 1
    assert time.perf_counter() - t0 < 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL freeness-characterization (0 cases")
    assert "setup: matrix dimension 17 exceeds 16, the most the packed keys hold" in out


def test_cli_tensor_points_beyond_the_bound_fail_before_drawing(tmp_path, capsys):
    # the check's time grows linearly in the points (11 s at 300), so a fresh
    # run, a spec and a replay all stop at the bound
    for points in (33, 10**6):
        t0 = time.perf_counter()
        assert main(["check", "tensor-factorization", "--dim", str(points)]) == 1
        assert time.perf_counter() - t0 < 2
        out = capsys.readouterr().out
        assert out.startswith("FAIL tensor-factorization (0 cases")
        assert f"setup: a tensor model of {points} points exceeds MAX_POINTS=32" in out
    why = "a tensor model of 33 points exceeds MAX_POINTS=32"
    spec = TensorModel.random(2, 8, 0).to_data()
    spec["weights"] = ["1/33"] * 33
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert main(["check", "tensor-factorization", "--n", "2", "--spec", str(path)]) == 1
    assert f"setup: {why}" in capsys.readouterr().out
    report = run_check("tensor-factorization", n=2).to_json()
    report["params"]["model"]["weights"] = ["1/33"] * 33
    path.write_text(json.dumps(report))
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot replay {path}: {why}\n")
    with pytest.raises(CapacityError, match=why):
        TensorModel.random(33, 8, 0)
    assert TensorModel.random(32, 8, 0).points == 32


def test_cli_cumulant_tables_beyond_the_bound_fail_before_drawing(capsys):
    # a free family of g generators draws one cumulant per word, sum_k g^k words
    for identity in ("freeness", "product-formula", "freeness-characterization"):
        t0 = time.perf_counter()
        assert main(["check", identity, "--max-order", "40", "--n", "2"]) == 1
        assert time.perf_counter() - t0 < 2, identity
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {identity} (0 cases"), identity
        assert "setup: a cumulant table to max_order=40 exceeds MAX_CUMULANT_WORDS=65536" in out


def test_cli_max_order_beyond_the_largest_exponent_fails_before_drawing(capsys):
    # no monomial exponent passes MAX_EXPONENT, so no moment past it is ever read
    for identity in ("moment-cumulant", "classical-total-cumulance"):
        t0 = time.perf_counter()
        assert main(["check", identity, "--max-order", str(10**7), "--n", "2"]) == 1
        assert time.perf_counter() - t0 < 2, identity
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {identity} (0 cases"), identity
        assert "setup: max_order=10000000 exceeds MAX_EXPONENT=127" in out
    assert main(["check", "classical-total-cumulance", "--max-order", "127", "--n", "2"]) == 0


def psi_calls(monkeypatch, identity, cls) -> int:
    """The psi values one passing default run of ``identity`` takes: its
    ``cls.psi`` and ``cls.psi_product`` calls, where a psi inside
    psi_product (the default route) is not counted again."""
    calls, inside = [], []

    def counted(method):
        def wrapper(self, x):
            calls.append(not inside)
            inside.append(1)
            try:
                return method(self, x)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(cls, "psi", counted(cls.psi))
    monkeypatch.setattr(cls, "psi_product", counted(cls.psi_product))
    assert run_check(identity).passed
    return sum(calls)


def test_total_cumulance_shares_its_partitioned_moments(monkeypatch):
    # perf gate: each matrix context tabulates phi_partitioned; without the
    # table one run makes 13,805 psi calls, a fifth of that is the bound
    assert 0 < psi_calls(monkeypatch, "total-cumulance", MatrixContext) <= 13805 // 5


@pytest.mark.parametrize("identity, cls, bound", [
    # without a table on their contexts these runs make 2,328 and 3,072 psi calls
    ("tensor-factorization", TensorContext, 1500),
    ("freeness-characterization", WordContext, 2800),
])
def test_word_and_tensor_checks_share_their_partitioned_moments(monkeypatch, identity, cls, bound):
    assert 0 < psi_calls(monkeypatch, identity, cls) <= bound


@pytest.mark.parametrize("identity, cls, bound", [
    # perf gate: a cumulant keeps the psi of each argument tuple's product and
    # each smaller cumulant in the context's table, and a partitioned
    # expectation the psi of each block.  With a memo per psi-cumulant these
    # runs made 2,580, 767 and 1,706 psi calls; with the psi of each block
    # taken again per partition, and classical cumulants summed over P(n),
    # 1,273, 668, 1,348 and 297 (tensor-factorization now makes 539)
    ("moment-cumulant", MatrixContext, 398),
    ("tensor-factorization", TensorContext, 668),
    ("freeness-characterization", WordContext, 1348),
    ("classical-total-cumulance", ClassicalContext, 45),
])
def test_psi_cumulants_share_their_psi_values(monkeypatch, identity, cls, bound):
    assert 0 < psi_calls(monkeypatch, identity, cls) <= bound


def test_the_classical_check_keeps_no_phi_value_in_a(monkeypatch):
    # perf gate: a phi-level cumulant is a product of integer pairs on the
    # full lattice too, so the classical contexts keep in A only the psi
    # values of the psi recursion and the nested cumulants the check asks
    # for, and every phi-level kind holds integer pairs.  Taken in A through
    # that recursion, the check kept 1,899 table entries, 282 of them phi
    # values, 282 phi-level single-block cumulants and 315 phi-level
    # partitioned cumulants, and made 1,581 Poly products
    made, products = [], []
    init, mul = ClassicalContext.__init__, Poly.__mul__
    monkeypatch.setattr(ClassicalContext, "__init__", lambda self, *args: made.append(self) or init(self, *args))
    monkeypatch.setattr(Poly, "__mul__", lambda x, y: products.append(1) or mul(x, y))
    assert run_check("classical-total-cumulance", seed=2024).passed
    kinds = collections.defaultdict(set)
    for ctx in made:
        for (tag, _), value in ctx.phi_table.items():
            kinds[tag].add(type(value))
    assert made and kinds == {**dict.fromkeys(("psi", "single", "cumulant", "nested-cumulant"), {Poly}),
                              **dict.fromkeys(("moment", "kappa", "semi", "top"), {tuple})}
    assert sum(map(len, (ctx.phi_table for ctx in made))) <= 1302
    assert 0 < len(products) <= 816


def test_the_word_model_forms_no_product_to_take_its_expectation(monkeypatch):
    # perf gate: freeness-characterization takes psi of a product 462 times,
    # each over simple tensors with no fallback to the flat route, so no
    # product of word-model elements is ever formed; its other psi values
    # are of single elements, on the flat route.  With the scalar moments of
    # its phi-cumulants taken per cumulant instead of per context, it took
    # psi of a product 865 times, and with its nested cumulants nested along
    # the outer blocks, on argument tuples that absorb each gap's scalar, 597
    counts = {"product": 0, "psi_product": 0, "_psi_simple": 0}
    for name in counts:
        method = getattr(WordContext, name)
        monkeypatch.setattr(WordContext, name, lambda self, *args, name=name, method=method:
                            counts.__setitem__(name, counts[name] + 1) or method(self, *args))
    assert run_check("freeness-characterization").passed
    assert counts["product"] == 0
    assert 0 < counts["psi_product"] <= 462 <= counts["_psi_simple"]


def test_freeness_tables_its_cumulants_only(monkeypatch):
    # the check asks only for single-block cumulants, which the scalar
    # route computes without a partitioned moment: the context keeps the
    # integer pairs of the 304 scalar cumulants, 308 Boolean cumulants and
    # 308 moments of the argument tuples the recursion met, keyed on those
    # tuples of the four generators, and nothing in A.  The Moebius
    # route kept 3,392 partitioned moments; before the split at the Boolean
    # cumulants it kept 308 scalar cumulants and no Boolean one, and before
    # phi-level cumulants became integer pairs on the recursion route, 280
    # of them embedded in A under (Level.PHI, arguments)
    made = []
    init = ScalarFreeContext.__init__
    monkeypatch.setattr(ScalarFreeContext, "__init__",
                        lambda self, spec: made.append(self) or init(self, spec))
    assert run_check("freeness").passed
    assert len(made) == 1
    table = made[0].phi_table
    assert len({x for _, args in table for x in args}) == 4  # the generators
    kinds = collections.Counter(key[0] for key in table)
    assert set(kinds) == {"kappa", "scalar-boolean", "moment"}
    assert kinds["kappa"] == 304 and kinds["scalar-boolean"] == kinds["moment"] == 308


# the entries per tag over every context, and over every scalar spec, of each
# check at seed 2024; the checks not named keep none
TABLE_ENTRIES = {
    "moment-cumulant": ({"psi": 368, "boolean": 368, "single": 256, "partitioned": 508, "cumulant": 435}, {}),
    "total-cumulance": ({"psi": 140, "boolean": 140, "single": 109, "semi": 242, "top": 242,
                         "nested-cumulant": 355, "nested-semi": 355, "moment": 68, "scalar-boolean": 53,
                         "kappa": 36, "cumulant": 174}, {}),
    "partial-cumulants": ({"psi": 83, "boolean": 83, "single": 64, "partitioned": 103, "cumulant": 107}, {}),
    "nested-closed-forms": ({"psi": 35, "partitioned": 4, "boolean": 24, "single": 14, "semi": 4,
                             "nested-semi": 1, "moment": 2, "scalar-boolean": 2, "kappa": 1, "top": 2,
                             "nested-cumulant": 2, "cumulant": 1}, {}),
    "classical-total-cumulance": ({"psi": 45, "single": 45, "semi": 153, "top": 153, "nested-cumulant": 228,
                                   "moment": 282, "kappa": 282, "cumulant": 108}, {}),
    "freeness": ({"moment": 308, "scalar-boolean": 308, "kappa": 304},
                 {"free-moment": 768, "free-boolean": 771}),
    "product-formula": ({"moment": 40, "scalar-boolean": 36, "kappa": 31}, {"free-moment": 62, "free-boolean": 75}),
    "freeness-characterization": ({"psi": 243, "boolean": 207, "single": 155, "moment": 163,
                                   "scalar-boolean": 147, "kappa": 127, "semi": 207, "top": 66,
                                   "nested-cumulant": 66, "cumulant": 129}, {"free-moment": 3}),
    "tensor-factorization": ({"psi": 61, "partitioned": 74, "boolean": 44, "single": 36, "semi": 69,
                              "nested-semi": 71, "top": 69, "nested-cumulant": 71, "cumulant": 43},
                             {"free-moment": 9, "free-boolean": 8}),
}


@pytest.mark.parametrize("identity", list(ALL_CHECKS))
def test_each_check_keeps_the_same_tables(monkeypatch, identity):
    # every table of the engine and of the scalar specs goes through
    # models.tabled, keyed (tag, key); these are the entries each kind held
    # when each table was written out by hand, and a free-moment count
    # includes each spec's m(()) entry
    tables, specs = [], []
    table = functools.cached_property(lambda self: tables.append({}) or tables[-1])
    table.__set_name__(models.ProbabilityContext, "phi_table")
    monkeypatch.setattr(models.ProbabilityContext, "phi_table", table)
    init = ScalarFreeSpec.__init__
    monkeypatch.setattr(ScalarFreeSpec, "__init__", lambda self, *args: specs.append(self) or init(self, *args))
    assert run_check(identity, seed=2024).passed
    kept = [collections.Counter(tag for each in owners for tag, _ in each) for owners in
            (tables, (spec.phi_table for spec in specs))]
    assert tuple(kept) == TABLE_ENTRIES.get(identity, ({}, {}))


def test_the_word_model_keeps_its_two_boolean_kinds_apart(monkeypatch):
    # freeness-characterization takes, on each of its word-model contexts,
    # operator-valued Boolean cumulants in A for its psi-cumulants and
    # scalar ones as integer pairs for its phi-cumulants, over the same
    # argument tuples: each kind has its own tag, so neither reads the other's
    # entries.  At seed 2024 its three contexts keep 207 and 147 of them
    made = []
    init = WordContext.__init__
    monkeypatch.setattr(WordContext, "__init__", lambda self, model: made.append(self) or init(self, model))
    assert run_check("freeness-characterization", seed=2024).passed
    entries = [(key[0], value) for ctx in made for key, value in ctx.phi_table.items()
               if key[0] in ("boolean", "scalar-boolean")]
    assert collections.Counter(tag for tag, _ in entries) == {"boolean": 207, "scalar-boolean": 147}
    assert all(isinstance(value, tuple) == (tag == "scalar-boolean") for tag, value in entries)


@pytest.mark.parametrize("identity, bound", [
    # perf gate: the scalar cumulants share their moments through the
    # context's table, and phi of a product folds its factors one at a time,
    # equal words merged; with per-cumulant subset tables these runs made
    # 3,976 and 190 phi_scalar_product calls
    ("freeness", 564),
    ("product-formula", 86),
])
def test_the_scalar_checks_take_each_moment_once(monkeypatch, identity, bound):
    calls = []
    hook = ScalarFreeContext.phi_scalar_product
    monkeypatch.setattr(ScalarFreeContext, "phi_scalar_product",
                        lambda self, xs: calls.append(1) or hook(self, xs))
    assert run_check(identity).passed
    assert 0 < len(calls) <= bound


def test_moment_cumulant_restricts_no_partition(monkeypatch):
    # perf gate: phi_partitioned and the cumulant recursion nest by the
    # block holding the first argument, and take each gap and tail, a union
    # of blocks, through restrict_blocks, which neither sorts nor validates;
    # extracting interval blocks restricted the partition 1,750 times here
    calls = []
    restrict = Partition.restrict
    monkeypatch.setattr(Partition, "restrict", lambda self, pos: calls.append(1) or restrict(self, pos))
    assert run_check("moment-cumulant", seed=2024).passed
    assert calls == []


@pytest.mark.parametrize("identity, joins, nested", [
    # validating every partition and joining per sigma, these runs made
    # 395, 6,708 and 12,578 validating Partition constructions, 12,303
    # joins and, without the nested table, 2,695 nested evaluations
    ("moment-cumulant", 0, 0),
    ("total-cumulance", 0, 355),
    ("partial-cumulants", 1990, 0),
])
def test_lattice_values_are_computed_once_per_check(monkeypatch, identity, joins, nested):
    # perf gate: joins are tabulated once per rho, a nested semicumulant
    # evaluated once per (pair, arguments), on a miss of its table, and
    # canonical partitions skip validation, which runs only in
    # Partition.__new__, the public Partition(n, blocks)
    counts = {"validated": 0, "join": 0, "nested": 0}
    validating, join, semi = Partition.__new__, checks.join, engine._nested_semicumulant

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def missed(ctx, key):
        counts["nested"] += ("nested-semi", key) not in ctx.phi_table
        return semi(ctx, key)

    monkeypatch.setattr(Partition, "__new__", counted("validated", validating))
    monkeypatch.setattr(checks, "join", counted("join", join))
    monkeypatch.setattr(engine, "_nested_semicumulant", missed)
    assert run_check(identity, seed=2024).passed
    assert counts["validated"] == 0
    assert counts["join"] <= joins and counts["nested"] <= nested


def test_kreweras_computes_each_complement_once(monkeypatch):
    # perf gate: each partition keeps its complement, and the check reads it
    # through kreweras as often as it likes, so it computes at most one per
    # pi in NC(m), m <= 7, that is 626; computed per case, the same run
    # computed 6,368 complements
    computed = []
    complement = Partition._kreweras.func
    counted = functools.cached_property(lambda self: computed.append(self) or complement(self))
    counted.__set_name__(Partition, "_kreweras")
    monkeypatch.setattr(Partition, "_kreweras", counted)
    for part in partitions._INDEX.values():
        vars(part).pop("_kreweras", None)
    assert run_check("kreweras").passed
    assert 0 < len(computed) <= 626
    assert len(set(computed)) == len(computed)


@pytest.mark.parametrize("identity, name, bound", [
    # filtering intervals with refines and enumerating NC(n) through all
    # growth strings, these cold runs made 62,011 and 17,934 refines calls
    # and 5,575 from_labels calls
    ("kreweras", "refines", 2387),
    ("moebius", "refines", 1469),
    # sum of Catalan(m) for m <= 8 and of Bell(m) for m <= 6
    ("lattice-counts", "from_labels", 2335),
])
def test_partition_order_costs_integer_operations(monkeypatch, identity, name, bound):
    # perf gate: intervals filter on pair bit sets, and NC(n) is walked
    # without building a crossing partition
    interval_list.cache_clear()
    enumerate_partitions.cache_clear()
    calls = []
    fn = getattr(Partition, name)
    counted = lambda *args: calls.append(1) or fn(*args)
    monkeypatch.setattr(Partition, name, counted if name == "refines" else staticmethod(counted))
    assert run_check(identity, seed=2024).passed
    assert 0 < len(calls) <= bound


@pytest.fixture
def cold_partition_memos():
    """Empty the partition memos before the test and again after it, so no
    value computed under a patch outlives the test."""
    memos = (partitions.enumerate_partitions, partitions.interval_list, partitions.moebius_row)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.mark.parametrize("identity, weights", [
    # perf gate: the engine reads every interval's weights through its one
    # row, so mu runs once per tau of each distinct interval asked for;
    # taken per term, these cold runs made 1,985 and 2,211 moebius calls
    ("total-cumulance", 71),
    ("classical-total-cumulance", 181),
])
def test_each_interval_takes_its_moebius_weights_once(monkeypatch, cold_partition_memos, identity, weights):
    runs, asked = [], []
    moebius, row = partitions.moebius, engine.moebius_row
    monkeypatch.setattr(partitions, "moebius", lambda *args: runs[-1].append(args) or moebius(*args))
    monkeypatch.setattr(engine, "moebius_row", lambda *interval: asked[-1].add(interval) or row(*interval))
    for _ in range(2):
        partitions.moebius_row.cache_clear()
        runs.append([])
        asked.append(set())
        assert run_check(identity, seed=2024).passed
    assert len(runs[0]) == sum(len(interval_list(*interval)) for interval in asked[0]) == weights
    assert runs[0] == runs[1]


def test_a_cold_nested_closed_forms_run_enumerates_no_partition_of_8(monkeypatch, cold_partition_memos):
    # perf gate: its one interval of NC(8), [{1,2,7,8}{3,4}{5,6}, {1,2,7,8}{3,4,5,6}],
    # is the product of two top intervals of NC(4); filtered as one row, it
    # enumerated all 1,430 partitions of NC(8)
    sizes = []
    right = partitions.enumerate_partitions
    monkeypatch.setattr(partitions, "enumerate_partitions",
                        lambda n, kind, *rest: sizes.append(n) or right(n, kind, *rest))
    assert run_check("nested-closed-forms", seed=2024).passed
    assert sizes and max(sizes) < 8


def test_total_cumulance_sums_each_nested_cumulant_once(monkeypatch):
    # perf gate: nu(pi, sigma) is the product over the blocks B of sigma of
    # the top value nu(pi|B, 1_B) on a_B, and the context keeps each top
    # value, so its sum over the row of [pi|B, 1_B] runs once per (pi|B,
    # arguments), and no nested cumulant sums the row of [pi, sigma].
    # Summed per nested cumulant over [pi, sigma], the check ran 355 Moebius
    # sums over rows for its 945 nested_cumulant calls
    asked, sums = [], []
    top_scalar, moebius_row = engine._top_scalar, engine.moebius_row

    def top(ctx, restricted):
        asked.append((ctx, *restricted))
        return top_scalar(ctx, restricted)

    def summed(lo, hi, kind):
        _, part, _ = asked[-1]
        assert lo is part and hi is Partition.full(part.n)
        sums.append(asked[-1])
        return moebius_row(lo, hi, kind)

    monkeypatch.setattr(engine, "_top_scalar", top)
    monkeypatch.setattr(engine, "moebius_row", summed)
    monkeypatch.setattr(engine, "_moebius_sum", lambda *args: pytest.fail("a Moebius sum over a row"))
    assert run_check("total-cumulance", seed=2024).passed
    assert 0 < len(sums) == len(set(sums)) == len(set(asked)) < len(asked)


def test_total_cumulance_nests_and_multiplies_little(monkeypatch):
    # perf gate: every phi-level value is a product of integer pairs over
    # blocks, so only the psi-level routes nest and multiply in A; nesting
    # the nested functionals and phi-partitioned values along their blocks,
    # the check made 1,057 _nest calls and 1,213 Matrix products
    counts = {"_nest": 0, "__mul__": 0}
    for owner, name in ((engine, "_nest"), (Matrix, "__mul__")):
        right = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, right=right:
                            counts.__setitem__(name, counts[name] + 1) or right(*args))
    assert run_check("total-cumulance", seed=2024).passed
    assert 0 < counts["_nest"] <= 174
    assert 0 < counts["__mul__"] <= 608


def test_moment_cumulant_nests_each_partitioned_cumulant_once(monkeypatch):
    # perf gate: the recursion keeps each partitioned cumulant of more than
    # one block in the context's table, and its gaps and tails are read as
    # the cumulants of their windows, so each is nested once per
    # (partition, arguments) on a context
    nested = []
    extract = engine._extract

    def counted(ctx, part, args, block_value, *rest):
        if block_value.__qualname__.startswith("_cumulant_nesting."):
            nested.append((ctx, part, tuple(args)))
        return extract(ctx, part, args, block_value, *rest)

    monkeypatch.setattr(engine, "_extract", counted)
    assert run_check("moment-cumulant", seed=2024).passed
    assert 0 < len(nested) == len(set(nested))
    assert all(part.size > 1 for _, part, _ in nested)


def test_total_cumulance_takes_one_phi_per_argument_tuple(monkeypatch):
    # perf gate: a block's phi and a scalar recursion's moment share one
    # integer pair per argument tuple on each context; taken apart, the
    # check made 158 phi_scalar_product calls for 102 tuples.  Its
    # phi-partitioned values are now products of the moments of the bare
    # block tuples, where nested along the blocks they took phi of tuples
    # that absorb each gap's scalar, so 68 tuples remain
    calls = []
    hook = MatrixContext.phi_scalar_product
    monkeypatch.setattr(MatrixContext, "phi_scalar_product",
                        lambda self, xs: calls.append(1) or hook(self, xs))
    assert run_check("total-cumulance", seed=2024).passed
    assert len(calls) == 68


# (check, model class, method called once per build, builds of a fresh run at its default bounds)
BUILDS = [("moment-cumulant", MatrixModel, "_spot_check", 5), ("freeness", ScalarFreeSpec, "__init__", 1),
          ("freeness-characterization", FactorizationModel, "__init__", 3),
          ("classical-total-cumulance", ClassicalSpec, "__init__", 3)]


@pytest.mark.parametrize("identity, cls, name, builds", BUILDS, ids=[row[0] for row in BUILDS])
def test_each_model_is_built_once_from_its_record(monkeypatch, identity, cls, name, builds):
    # perf gate: a fresh run built each model twice, drawn and then rebuilt
    # from its record; a replay of the report builds as many
    calls = []
    right = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: calls.append(1) or right(self, *args))
    report = run_check(identity)
    assert report.passed and len(calls) == builds
    calls.clear()
    assert replay_report(json.loads(json.dumps(report.to_json()))).passed
    assert len(calls) == builds


def test_freeness_forms_few_products(monkeypatch):
    # perf gate: phi of a product sums the factors' terms per word; forming
    # each product first, the check made 5,120 ScalarFreeContext.mul calls
    calls = []
    mul = ScalarFreeContext.mul
    monkeypatch.setattr(ScalarFreeContext, "mul", lambda self, x, y: calls.append(1) or mul(self, x, y))
    assert run_check("freeness").passed
    assert len(calls) <= 20


def test_a_wrong_moebius_weight_fails_the_moebius_sums(monkeypatch, cold_partition_memos):
    # the partition layer's fault row: NC mu(0_4, 1_4) with its sign flipped,
    # patched on partitions.moebius alone; the moebius check, and
    # tensor-factorization's reference sums, read checks.moebius, which stays
    # right (the moebius check fails too when that name is patched).  The
    # row is warm before the patch and the memos are cleared after it, as a
    # patch must clear them
    lo, hi, nc = Partition.discrete(4), Partition.full(4), LatticeKind.NONCROSSING
    right = partitions.moebius_row(lo, hi, nc)
    monkeypatch.setattr(partitions, "moebius", flipped_top_weight(partitions.moebius))
    partitions.interval_list.cache_clear()
    partitions.moebius_row.cache_clear()
    assert partitions.moebius_row(lo, hi, nc)[-1] == (-right[-1][0], lo)
    for identity in ("total-cumulance", "partial-cumulants", "freeness-characterization", "tensor-factorization"):
        assert run_check(identity, seed=2024).status == "fail", identity


def flipped_top_weight(right):
    """``moebius`` with the sign of NC mu(0_4, 1_4) flipped."""
    interval = (Partition.discrete(4), Partition.full(4), LatticeKind.NONCROSSING)
    return lambda pi, sigma, kind: right(pi, sigma, kind) * (-1 if (pi, sigma, kind) == interval else 1)


def join_onto_the_top(right):
    """``join`` answering 1_3 for (0_3, {1,3}{2}), which join to {1,3}{2}."""
    wrong = (Partition.discrete(3), Partition(3, ((1, 3), (2,))))
    return lambda pi, sigma, kind: Partition.full(3) if (pi, sigma) == wrong else right(pi, sigma, kind)


def restrict_onto_the_top(right):
    """``Partition.restrict`` answering 1_3 for its two-block results on 3 points."""
    def restrict(self, positions):
        value = right(self, positions)
        return Partition.full(3) if (value.n, value.size) == (3, 2) else value
    return restrict


# the checks that read nested semicumulants or nested cumulants
NESTED = ("total-cumulance", "nested-closed-forms", "classical-total-cumulance",
          "freeness-characterization", "tensor-factorization")


@pytest.mark.parametrize("owner, name, fault, runs, failing, instance", [
    # the partition layer's constructor rows, at seed 2024: the checks run,
    # and those among them that fail, as measured.  checks.moebius alone
    # feeds the moebius check and tensor-factorization's reference, never
    # the engine's moebius_row, so only those two of the twelve fail.  The
    # nested routes restrict the inner partition through restrict_blocks, so
    # of the checks that read them only tensor-factorization, whose nested
    # moments restrict it, fails under a wrong Partition.restrict
    (checks, "moebius", flipped_top_weight(checks.moebius), tuple(ALL_CHECKS),
     {"moebius", "tensor-factorization"}, None),
    (checks, "join", join_onto_the_top(checks.join), ("partial-cumulants",), {"partial-cumulants"},
     {"part": "join-formula", "seed": 2024, "n": 3, "rho": "{1,3}{2}", "sigma": "{1,2,3}"}),
    (Partition, "restrict", restrict_onto_the_top(Partition.restrict), NESTED, {"tensor-factorization"}, None),
], ids=["checks-moebius", "join", "restrict"])
def test_a_wrong_partition_fails_the_checks_that_build_it(monkeypatch, owner, name, fault, runs,
                                                          failing, instance):
    monkeypatch.setattr(owner, name, fault)
    reports = {identity: run_check(identity, seed=2024) for identity in runs}
    assert {identity for identity, report in reports.items() if not report.passed} == failing
    if instance is not None:
        assert [reports[identity].witness["instance"] for identity in failing] == [instance]


def enumeration_without_its_last_noncrossing_partition(right):
    """``enumerate_partitions`` without the last noncrossing growth string,
    that of the discrete partition, once n >= 6."""
    def enumerate_(n, kind, interval_only=False):
        parts = right(n, kind, interval_only)
        return parts[:-1] if kind is LatticeKind.NONCROSSING and n >= 6 else parts
    return enumerate_


def test_a_short_enumeration_fails_the_lattice_checks(monkeypatch, cold_partition_memos):
    # the enumeration's fault row, patched where partitions and checks read
    # it.  Measured over all twelve checks at seed 2024 with cold memos,
    # lattice-counts fails at NC(6) and kreweras at its anti-isomorphism for
    # n = 6; the other ten pass, and none raises
    fault = enumeration_without_its_last_noncrossing_partition(partitions.enumerate_partitions)
    for module in (partitions, checks):
        monkeypatch.setattr(module, "enumerate_partitions", fault)
    for identity, instance in (("lattice-counts", {"lattice": "nc", "n": 6}),
                               ("kreweras", {"part": "anti-isomorphism", "n": 6, "pi": "{1,2,3,4,5,6}"})):
        report = run_check(identity, seed=2024)
        assert report.status == "fail", identity
        assert report.witness["instance"] == instance, identity


def test_check_all_keeps_one_object_per_partition():
    # perf gate: every constructor returns the indexed object, so a cold
    # check-all at seed 2024 holds each of its distinct partitions once;
    # before the index it built 10,842 Partition objects for these 2,279
    root = Path(__file__).resolve().parents[1]
    code = ("from freecumulants import partitions\n"
            "from freecumulants.checks import ALL_CHECKS\n"
            "assert all(fn(seed=2024).passed for fn in ALL_CHECKS.values())\n"
            "print(len(partitions._INDEX))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert 0 < int(done.stdout) <= 2279


def commutative_recursion_without_its_first_moment(right):
    """``engine._kappa_commutative`` with m(S - V) dropped from its term of
    V = {min S} when |S| = 3."""
    def kappa(ctx, args):
        value = right(ctx, args)
        if len(args) != 3:
            return value
        first = engine._single_block(ctx, args[:1])
        dropped = ctx.mul(first, engine._block_moment(ctx, args[1:]))
        return ctx.combine([(1, value), (1, dropped), (-1, first)])
    return kappa


def kappa_scalar_without_its_first_moment(right):
    """``engine._kappa_scalar`` on the full lattice with m(S - V) dropped from
    its term of V = {min S} when |S| = 3."""
    def kappa(ctx, ids):
        value = right(ctx, ids)
        if len(ids) != 3 or ctx.kind is not LatticeKind.FULL:
            return value
        first = Fraction(*right(ctx, ids[:1]))
        dropped = first * Fraction(*engine._moment_scalar(ctx, ids[1:]))
        return (Fraction(*value) + dropped - first).as_integer_ratio()
    return kappa


@pytest.mark.parametrize("name, fault", [
    ("_kappa_commutative", commutative_recursion_without_its_first_moment(engine._kappa_commutative)),
    ("_kappa_scalar", kappa_scalar_without_its_first_moment(engine._kappa_scalar)),
], ids=["psi-commutative", "phi-pairs"])
def test_a_wrong_commutative_recursion_fails_the_classical_check(monkeypatch, name, fault):
    # the engine's fault rows for the full lattice's single blocks: the
    # first-block recursion at psi, on A, and at phi, on integer pairs.  Of
    # the twelve checks at their default bounds only classical-total-cumulance
    # runs on the full lattice, and it fails at its law of total cumulance
    # for n = 3
    monkeypatch.setattr(engine, name, fault)
    report = run_check("classical-total-cumulance")
    assert report.status == "fail"
    assert report.witness["instance"] == {"part": "total-cumulance", "seed": 2024, "n": 3}


def faulty_free_moment(fault: str):
    """``models._free_moment`` with one fault: "family" draws the first
    block from the last letter's family instead of the first's, "tail"
    drops the moment of the tail after the first block."""
    @models.tabled("free-moment")
    def moment(spec, word):
        n, family_of = len(word), spec.family_of
        family = family_of[word[-1] if fault == "family" else word[0]]
        own = [0] + [i for i in range(1, n) if family_of[word[i]] == family]
        num, den = 0, 1
        for picks in partitions.first_blocks(len(own)):
            block = tuple(own[j] for j in picks)
            vn, vd = spec.cumulant(tuple(word[i] for i in block)).as_integer_ratio()
            for a, b in zip(block, block[1:] + ((n,) if fault != "tail" else ())):
                if vn and b > a + 1:
                    m_num, m_den = moment(spec, word[a + 1 : b])
                    vn, vd = vn * m_num, vd * m_den
            num, den = num * vd + vn * den, den * vd
        return Fraction(num, den).as_integer_ratio()
    return moment


def kappa_scalar_without_its_gap(right):
    """``engine._kappa_scalar`` with the moment of the gap dropped from the
    term of the block {1, 3} of three arguments."""
    def kappa(ctx, args):
        value = right(ctx, args)
        if len(args) != 3:
            return value
        block = Fraction(*right(ctx, (args[0], args[2])))
        gap = Fraction(*engine._moment_scalar(ctx, args[1:2]))
        return (Fraction(*value) + block * gap - block).as_integer_ratio()
    return kappa


@pytest.mark.parametrize("module, name, fault, failing", [
    # the scalar route's fault rows: every check at its default bounds, and
    # the set of those that fail, as measured.  A wrong free_moment that
    # stays a moment functional of one family is a valid state, so no check
    # over one family (tensor-factorization) can see it; the model tests
    # compare free_moment with the sum over NC(n).  The full lattice's
    # _kappa_scalar has no gaps, so there the kappa-scalar-gap row is a
    # plain wrong value, and the classical check fails too
    (models, "_free_moment", faulty_free_moment("family"), {"freeness", "product-formula"}),
    (models, "_free_moment", faulty_free_moment("tail"), {"freeness", "product-formula"}),
    (engine, "_kappa_scalar", kappa_scalar_without_its_gap(engine._kappa_scalar),
     {"total-cumulance", "classical-total-cumulance", "freeness", "product-formula",
      "freeness-characterization"}),
], ids=["free-moment-family", "free-moment-tail", "kappa-scalar-gap"])
def test_a_wrong_scalar_route_fails_the_checks_that_use_it(monkeypatch, module, name, fault, failing):
    monkeypatch.setattr(module, name, fault)
    assert {identity for identity in ALL_CHECKS if not run_check(identity).passed} >= failing


def gap_factor_on_the_left(right):
    """``engine._gap_factor`` with psi of the gap (0, 2) multiplied on the
    left of ``args[0]`` instead of the right."""
    def factor(ctx, args, a, b):
        if (a, b) != (0, 2):
            return right(ctx, args, a, b)
        return ctx.mul(engine._block_moment(ctx, args[1:2]), args[0])
    return factor


def table_moment_off_on_two_variables(right):
    """``models._table_moment`` one too large for every monomial with exactly two nonzero exponents."""
    return lambda spec, m: right(spec, m) + spec.den * (sum(map(bool, spec.ring.exponents(m))) == 2)


@pytest.mark.parametrize("module, name, fault, failing", [
    # the fault rows of the factors formed once and read many times: the
    # spliced factor of each gap in an operator-valued cumulant, and each
    # monomial's moment in the spec's table.  Each row runs only the checks
    # that fail under it at seed 2024, as measured over all twelve.  The
    # matrix checks hold for any entrywise functional, so a wrong table
    # moment fails only the classical check; in the matrix model
    # test_a_wrong_table_moment_fails_the_integrate_oracle catches it
    (engine, "_gap_factor", gap_factor_on_the_left(engine._gap_factor),
     ("moment-cumulant", "total-cumulance", "partial-cumulants", "freeness-characterization")),
    (models, "_table_moment", table_moment_off_on_two_variables(models._table_moment),
     ("classical-total-cumulance",)),
], ids=["gap-factor-side", "table-moment"])
def test_a_wrong_shared_factor_fails_the_checks_that_read_it(monkeypatch, module, name, fault, failing):
    monkeypatch.setattr(module, name, fault)
    for identity in failing:
        assert run_check(identity, seed=2024).status == "fail", identity


def boolean_prefix_on_the_right(ctx, args):
    """``engine._boolean_operator`` with each prefix's Boolean cumulant
    multiplied on the right of psi of the suffix instead of the left."""
    table, key = ctx.phi_table, ("boolean", args)
    if key not in table:
        psi = functools.partial(engine._block_moment, ctx)
        terms = [(-1, ctx.mul(psi(args[l:]), boolean_prefix_on_the_right(ctx, args[:l]))) for l in range(1, len(args))]
        table[key] = ctx.combine([(1, psi(args)), *terms])
    return table[key]


def boolean_scalar_without_its_first_term(right):
    """``engine._boolean_scalar`` with its l = 1 term, b(args[:1]) m(args[1:]),
    dropped at three arguments."""
    def boolean(ctx, ids):
        value = right(ctx, ids)
        if len(ids) != 3:
            return value
        first = Fraction(*right(ctx, ids[:1])) * Fraction(*engine._moment_scalar(ctx, ids[1:]))
        return (Fraction(*value) + first).as_integer_ratio()
    return boolean


def free_boolean_off_on_two_letters(right):
    """``models._free_boolean`` one too large for every word of two letters."""
    def boolean(spec, word):
        value = right(spec, word)
        return value if len(word) != 2 else (Fraction(*value) + 1).as_integer_ratio()
    return boolean


@pytest.mark.parametrize("module, name, fault, failing", [
    # the Boolean split's fault rows: each row runs only the checks that
    # fail under it at seed 2024, as measured over all twelve.  A wrong
    # free b over one family is still a moment functional, so, as for the
    # two _free_moment rows, tensor-factorization cannot see it
    (engine, "_boolean_operator", boolean_prefix_on_the_right,
     ("moment-cumulant", "total-cumulance", "partial-cumulants", "freeness-characterization")),
    (engine, "_boolean_scalar", boolean_scalar_without_its_first_term(engine._boolean_scalar),
     ("total-cumulance", "freeness", "product-formula", "freeness-characterization")),
    (models, "_free_boolean", free_boolean_off_on_two_letters(models._free_boolean),
     ("freeness", "product-formula")),
], ids=["operator-prefix-side", "scalar-first-term", "free-two-letters"])
def test_a_wrong_boolean_cumulant_fails_the_checks_that_read_it(monkeypatch, module, name, fault, failing):
    monkeypatch.setattr(module, name, fault)
    for identity in failing:
        assert run_check(identity, seed=2024).status == "fail", identity


def window_shifted_by_one(right):
    """``engine.restrict_blocks``, the window partition of a gap or tail,
    shifted by one position, cyclically: i becomes i + 1, and the last 1."""
    def restrict(part, positions):
        window = right(part, positions)
        return Partition(window.n, [tuple(i % window.n + 1 for i in b) for b in window.blocks])
    return restrict


def top_row_with_a_flipped_weight(right):
    """``engine.moebius_row`` with the sign of mu(pi, 1_3) flipped for every
    pi of two blocks on three points, in every row onto 1_3."""
    def row(lo, hi, kind):
        value = right(lo, hi, kind)
        if hi is not Partition.full(3):
            return value
        return tuple((-mu if tau.size == 2 else mu, tau) for mu, tau in value)
    return row


def block_scalar_on_the_top(right):
    """``engine._semi_scalar`` taken on 1_k for every restriction of two blocks."""
    def semi(ctx, restricted):
        part, args = restricted
        return right(ctx, (Partition.full(part.n), args) if part.size == 2 else restricted)
    return semi


@pytest.mark.parametrize("module, name, fault, failing", [
    # the fault rows of the values assembled from parts formed once, a
    # partitioned value from the partitioned values of its windows and a
    # nested value from the top value and the block scalar of each outer
    # block, and of the Moebius rows the engine reads.  Each row runs only
    # the checks that fail under it at seed 2024, as measured over all
    # twelve.  A wrong weight onto 1_3 fails the nested checks through their
    # top values, and partial-cumulants through its Moebius sums
    (engine, "restrict_blocks", window_shifted_by_one(engine.restrict_blocks),
     ("moment-cumulant", "total-cumulance", "partial-cumulants", "nested-closed-forms",
      "classical-total-cumulance", "freeness-characterization", "tensor-factorization")),
    (engine, "moebius_row", top_row_with_a_flipped_weight(engine.moebius_row),
     NESTED + ("partial-cumulants",)),
    (engine, "_semi_scalar", block_scalar_on_the_top(engine._semi_scalar), NESTED),
], ids=["window-shift", "top-row-sign", "block-scalar-on-top"])
def test_a_wrong_row_or_window_fails_the_checks_that_read_it(monkeypatch, cold_partition_memos, module,
                                                             name, fault, failing):
    monkeypatch.setattr(module, name, fault)
    for identity in failing:
        assert run_check(identity, seed=2024).status == "fail", identity


def tabled_on_the_key_alone(compute):
    """``models.tabled`` with each entry keyed on its key alone, the tag
    dropped, so the kinds that share a key read each other's values."""
    def lookup(owner, key):
        table = owner.phi_table
        value = table.get(key)
        if value is None:
            value = table[key] = compute(owner, key)
        return value
    return lookup


def test_a_table_protocol_that_drops_the_tag_fails_the_checks_that_keep_tables(monkeypatch):
    # the fault row of the one table protocol: each of the 14 functions
    # models.tabled decorates, 12 in the engine and 2 in the scalar spec,
    # decorated again with the tag dropped, so "kappa", "scalar-boolean" and
    # "moment" collide on an argument tuple, as "psi", "single" and "boolean"
    # do, and the (partition, arguments) kinds on theirs.  Over the twelve
    # checks at seed 2024, as measured, eight fail, three of them by
    # unpacking an element of A as an integer pair.  freeness passes: the
    # spec's m(()) entry, seeded under its tag, is then missed and taken as
    # 0, and every free moment with it, and the zero functional has every
    # mixed cumulant and alternating moment zero; product-formula sees it.
    # The three lattice checks keep no table.
    #
    # A blind spot of the fault rows, measured the same way: ClassicalContext.psi
    # replaced by phi fails none of the twelve checks, because phi is itself
    # a conditional expectation.  test_bimodule_law_on_random_sandwiches,
    # test_the_classical_check_keeps_no_phi_value_in_a and
    # test_a_wrong_shared_factor_fails_the_checks_that_read_it[table-moment]
    # catch it.  The record parse is another: read with the denominator of
    # every non-integer value doubled, in ScalarFreeSpec or in ClassicalSpec,
    # it fails none of the twelve checks at seeds 2024 and 1312, since each
    # check compares two routes over the model it reads, and the report's
    # params carry the record's texts.  For the scalar spec ten tier-1 tests
    # catch it, among them test_a_drawn_record_is_what_its_model_writes
    # [ScalarFreeSpec], [FactorizationModel] and [TensorModel],
    # test_factorization_model_roundtrip and test_tensor_model_roundtrip; for
    # the classical spec test_matrix_model_roundtrip and
    # test_a_drawn_record_is_what_its_model_writes[ClassicalSpec] and
    # [MatrixModel]
    decorated = [(module, name, fn) for module in (engine, models) for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and hasattr(fn, "__wrapped__")]
    assert len(decorated) == 14
    for module, name, fn in decorated:
        monkeypatch.setattr(module, name, tabled_on_the_key_alone(fn.__wrapped__))
    failed = set()
    for identity in ALL_CHECKS:
        try:
            if not run_check(identity, seed=2024).passed:
                failed.add(identity)
        except TypeError:  # an element of A read as an integer pair
            failed.add(identity)
    assert failed == {"moment-cumulant", "total-cumulance", "partial-cumulants", "nested-closed-forms",
                      "classical-total-cumulance", "product-formula", "freeness-characterization",
                      "tensor-factorization"}


def _add_unit(ctx, value):
    return ctx.add(value, ctx.unit())


# (identity, flags, patched name, the calls it falsifies, the fault, witness instance);
# a fault takes the context, or None, and the right value
FAULTS = [
    ("kreweras", {}, "kreweras", lambda pi: str(pi) == "{1,2}{3}",
     lambda _, value: Partition.full(3), {"part": "size", "n": 3, "pi": "{1,2}{3}"}),
    ("moment-cumulant", {"n": 3}, "phi_partitioned",
     lambda ctx, sigma, args, level: sigma == Partition.full(2), _add_unit,
     {"seed": 2024, "n": 2, "sigma": "{1,2}"}),
    ("product-formula", {"n": 3}, "free_cumulant",
     lambda ctx, part, args, level: part == Partition.full(2), _add_unit,
     {"n": 2, "a": "a1 a1", "b": "b2 b2"}),
    ("freeness-characterization", {"n": 3}, "nested_cumulant",
     lambda ctx, pair, args: str(pair.inner) == "{1,2}{3}", _add_unit,
     {"part": "interweave", "seed": 2024, "n": 3, "pi": "{1,2}{3}"}),
]


@pytest.mark.parametrize("identity, flags, name, hits, fault, instance", FAULTS,
                         ids=[row[0] for row in FAULTS])
def test_a_wrong_value_fails_the_check_at_its_case(monkeypatch, identity, flags, name, hits,
                                                   fault, instance):
    right, injected, recorded = getattr(checks, name), [], []

    def faulty(*args):
        value = right(*args)
        if not hits(*args):
            return value
        ctx = args[0] if name != "kreweras" else None
        injected.append((ctx, value, fault(ctx, value)))
        return injected[-1][2]

    record = checks._Suite.record
    monkeypatch.setattr(checks, name, faulty)
    monkeypatch.setattr(checks._Suite, "record",
                        lambda self, key, *rest, **kw: recorded.append(key) or record(self, key, *rest, **kw))
    report = run_check(identity, **flags)
    assert report.status == "fail"
    assert report.witness["instance"] == instance
    ctx, value, wrong = injected[-1]
    if ctx is None:  # pi has 2 blocks and its wrong complement 1, against n + 1 = 4
        assert (report.witness["lhs"], report.witness["rhs"]) == ("3", "4")
    else:
        assert (report.witness["lhs"], report.witness["rhs"]) == (ctx.describe(wrong), ctx.describe(value))
    # the witness is the last case: nothing is evaluated after it
    assert recorded[-1] == instance and report.cases == len(recorded)
    again = replay_report(json.loads(json.dumps(report.to_json())))
    assert again.status == "fail" and again.cases == 1
    assert again.witness == report.witness


def test_every_name_the_layer_tracer_wraps_resolves():
    # perfbench/layertrace.py wraps library names by attribute; a renamed or
    # deleted one fails its install, and a dead wrapper counts nothing.
    # nested-closed-forms calls phi_partitioned itself, so the count does
    # not hang on which route a cumulant takes
    root = Path(__file__).resolve().parents[1]
    code = ("import freecumulants as fc, layertrace\n"
            "tracer = layertrace.install(fc)\n"
            "assert fc.run_check('nested-closed-forms').passed\n"
            "print(tracer.metrics()['engine.phi_partitioned.calls'])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


def test_every_name_the_layer_tracer_wraps_is_defined(monkeypatch):
    # read only: the tracer's tables are resolved with getattr and nothing is
    # installed (nor a bytecode cache written), so a name the library drops
    # fails here, not in a traced run
    import freecumulants as fc
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace_names", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    names = [(getattr(fc, layer), name) for table in (layertrace.COUNTED_FUNCTIONS, layertrace.TIMED_FUNCTIONS)
             for layer, functions in table.items() for name in functions]
    names += [(getattr(fc, cls), name) for _, cls, methods, _ in layertrace.METHODS for name in methods]
    names += [(getattr(fc, cls), name) for cls in layertrace.CONTEXTS
              for name in layertrace.CONTEXT_COUNTED + layertrace.CONTEXT_UNCOUNTED]
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name in names
               if not callable(getattr(owner, name, None))]
    assert missing == []
    assert {"matrix_psi", "matrix_phi"} <= set(layertrace.TIMED_FUNCTIONS["models"])


def test_cli_moebius_beyond_the_enumeration_bound_exits_two(capsys):
    t0 = time.perf_counter()
    assert main(["moebius", "--n", str(10**6)]) == 2
    assert time.perf_counter() - t0 < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: moebius over n=1000000 exceeds the bound MAX_ENUM_N=10\n"
    assert main(["moebius", "--n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "-4862"


def test_cli_replay_roundtrip(tmp_path, capsys):
    assert main(["check", "kreweras", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    blob["witness"] = {"instance": {"part": "size", "n": 5, "pi": "{1,5}{2,4}{3}"}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    assert main(["check", "--replay", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_freeness_runs_the_example_spec_and_replays_it(tmp_path, capsys):
    # docs/scalar_model.json carries max_order 4: the alternating words
    # stop at length 4 and the quadratic ones at 2 letter pairs
    spec = Path(__file__).resolve().parents[1] / "docs" / "scalar_model.json"
    assert main(["check", "freeness", "--spec", str(spec), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "pass" and blob["cases"] == 32
    params = blob["params"]
    assert (params["max_order"], params["alternating_max"], params["quadratic_max"]) == (4, 4, 2)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(blob))
    assert main(["check", "--replay", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS freeness (32 cases")


def test_cli_check_accepts_a_model_spec_file(tmp_path, capsys):
    spec = {
        "max_order": 4,
        "families": [
            {"name": "a", "generators": ["a1"], "cumulants": {}},
            {"name": "b", "generators": ["b1"], "cumulants": {}},
        ],
    }
    for fam in spec["families"]:
        word = fam["generators"][0]
        for k in range(1, 5):
            fam["cumulants"][" ".join([word] * k)] = str(k)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code = main(["check", "product-formula", "--spec", str(path), "--n", "2", "--format", "json"])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["params"]["model"]["families"][0]["cumulants"]["a1"] == "1"


# ---------------------------------------------------------------------------
# fuzzed lattice subcommands


@st.composite
def mutated_partition_text(draw):
    n = draw(st.integers(0, 6))
    text = format_partition(draw(st.sampled_from(enumerate_partitions(n, LatticeKind.FULL))))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("{}|, 0123456789-"))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if edit == "replace" else "") + text[i + 1:]
    return text


@st.composite
def lattice_argv(draw):
    n = ["--n", str(draw(st.integers(-20, 8)))]
    lattice = ["--lattice", draw(st.sampled_from(("nc", "full")))]
    a, b = draw(mutated_partition_text()), draw(mutated_partition_text())
    return draw(st.sampled_from((
        ["enumerate", *n, *lattice],
        ["enumerate", *n, *lattice, "--interval-only", "--format", "json"],
        ["moebius", *n, *lattice],
        ["moebius", a, b, *lattice],
        ["kreweras", a],
        ["quotient", a, b],
        ["join", a, b, *lattice],
    )))


@settings(max_examples=200, deadline=None)
@given(lattice_argv())
def _lattice_cli_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_cli_lattice_commands_survive_fuzzed_input():
    t0 = time.perf_counter()
    _lattice_cli_exits_cleanly()
    assert time.perf_counter() - t0 < 10


REPLAY_CHECKS = ("moebius", "product-formula", "tensor-factorization")
SPEC_CHECKS = ("freeness", "product-formula", "tensor-factorization")
WRONG_VALUES = (None, True, -1, 0, 2.5, "x", "1/0", [], [1], {}, {"x": 1})


@functools.lru_cache(maxsize=None)
def fuzz_seed_file(kind: str, identity: str) -> str:
    """The JSON a fuzz case mutates: a report of ``identity`` at n = 2,
    with a witness on the product-formula one, or a model spec it takes."""
    if kind == "replay":
        report = run_check(identity, n=2).to_json()
        if identity == "product-formula":
            report["witness"] = {"instance": {"n": 2, "a": "a1 a1", "b": "b1 b1"}}
        return json.dumps(report)
    if identity == "tensor-factorization":
        return json.dumps(TensorModel.random(2, 4, 0).to_data())
    return (Path(__file__).parent.parent / "docs" / "scalar_model.json").read_text()


def json_paths(doc, depth=3, prefix=()):
    """Every key or index path into ``doc``, down to ``depth`` levels."""
    if depth == 0:
        return
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from json_paths(v, depth - 1, prefix + (k,))


@st.composite
def mutated_files(draw):
    """(argv without the file, mutated JSON text): a wrong top-level type,
    or up to three keys deleted or given a wrong type or null."""
    kind = draw(st.sampled_from(("replay", "spec")))
    identity = draw(st.sampled_from(SPEC_CHECKS if kind == "spec" else REPLAY_CHECKS))
    argv = ["check", "--replay"] if kind == "replay" else ["check", identity, "--n", "2", "--spec"]
    if draw(st.integers(0, 9)) == 0:
        return argv, json.dumps(draw(st.sampled_from(WRONG_VALUES)))
    doc = copy.deepcopy(json.loads(fuzz_seed_file(kind, identity)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))
        if not paths:
            break
        *head, last = draw(st.sampled_from(paths))
        parent = functools.reduce(lambda d, k: d[k], head, doc)
        if draw(st.booleans()):
            del parent[last]
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(WRONG_VALUES)))
    return argv, json.dumps(doc)


def malformed_spec(k: int):
    """The spec case of the k-th row of MALFORMED_FIELDS."""
    identity, record, mutate, _ = MALFORMED_FIELDS[k]
    spec = record()
    mutate(spec)
    return ["check", identity, "--n", "2", "--spec"], json.dumps(spec)


@settings(max_examples=150, deadline=None)
@given(case=mutated_files())
@example(case=(["check", "--replay"], '{"identity": "moebius", "params": null}'))
@example(case=(["check", "--replay"], '{"identity": "moebius", "params": {}, "witness": "oops"}'))
@example(case=(["check", "product-formula", "--n", "2", "--spec"], "null"))
@example(case=(["check", "tensor-factorization", "--n", "2", "--spec"], "[]"))
@example(case=(["check", "freeness", "--n", "2", "--spec"], ONE_FAMILY))
@example(case=(["check", "freeness", "--n", "2", "--spec"], NO_FAMILY))
@example(case=(["check", "product-formula", "--n", "2", "--spec"], ONE_FAMILY))
@example(case=(["check", "product-formula", "--n", "2", "--spec"], NO_FAMILY))
@example(case=(["check", "freeness", "--n", "2", "--spec"], ZERO_DENOMINATOR))
@example(case=(["check", "--replay"], '{"identity": "freeness", "params": {"model": %s}}' % ZERO_DENOMINATOR))
@example(case=malformed_spec(0))
@example(case=malformed_spec(1))
@example(case=malformed_spec(2))
@example(case=malformed_spec(3))
@example(case=malformed_spec(4))
@example(case=malformed_spec(5))
@example(case=malformed_spec(6))
@example(case=malformed_spec(7))
@example(case=malformed_spec(8))
def _file_cli_exits_cleanly(directory, case):
    argv, text = case
    path = directory / "input.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in (0, 1, 2), (argv, text, code)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, (argv, text, err.getvalue())
    doc = json.loads(text)
    if not isinstance(doc, dict) or "--replay" in argv and not isinstance(doc.get("params"), dict):
        assert code == 2, (argv, text, code)


def test_cli_survives_fuzzed_replay_and_spec_files(tmp_path):
    t0 = time.perf_counter()
    _file_cli_exits_cleanly(tmp_path)
    assert time.perf_counter() - t0 < 10
