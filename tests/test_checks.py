"""Report plumbing and the command line surface."""

import contextlib
import hashlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from freecumulants.checks import ALL_CHECKS, replay_report, run_check
from freecumulants.cli import main
from freecumulants.models import MatrixModel, TensorModel
from freecumulants.partitions import LatticeKind, enumerate_partitions, format_partition


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
    for identity, n in (("total-cumulance", -1), ("product-formula", 0)):
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
    assert main(["check", "total-cumulance", "--n", "-1"]) == 1
    assert capsys.readouterr().out.startswith("FAIL total-cumulance (0 cases")
    assert main(["check", "product-formula", "--n", "0"]) == 1
    assert capsys.readouterr().out.startswith("FAIL product-formula (0 cases")


def test_cli_replay_of_malformed_params_exits_two(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"identity": "moebius", "params": []}))
    assert main(["check", "--replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot replay") and len(err.splitlines()) == 1


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


def test_cli_order_beyond_capacity_fails_before_any_work(capsys):
    # max_order=8 cannot reach order 12: a setup FAIL at once, not minutes of work
    t0 = time.perf_counter()
    assert main(["check", "moment-cumulant", "--n", "12"]) == 1
    assert time.perf_counter() - t0 < 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL moment-cumulant (0 cases")
    assert "setup: n_max=12 exceeds max_order=8" in out


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


def test_cli_cumulant_tables_beyond_the_bound_fail_before_drawing(capsys):
    # a free family of g generators draws one cumulant per word, sum_k g^k words
    for identity in ("freeness", "product-formula", "freeness-characterization"):
        t0 = time.perf_counter()
        assert main(["check", identity, "--max-order", "40", "--n", "2"]) == 1
        assert time.perf_counter() - t0 < 2, identity
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {identity} (0 cases"), identity
        assert "setup: a cumulant table to max_order=40 exceeds MAX_CUMULANT_WORDS=65536" in out


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
