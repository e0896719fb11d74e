import argparse
import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from partition_forge import asm as asmmod
from partition_forge import aztec
from partition_forge import cli
from partition_forge import correspondences as corr
from partition_forge import cylindric
from partition_forge import lambdadet
from partition_forge import qtseries
from partition_forge import series


def run_cli(args, **kw):
    return cli.main(args)


def read_report(path):
    with open(path) as f:
        return json.load(f)


def test_borodin_ok(tmp_path):
    out = str(tmp_path / "r.json")
    assert run_cli(["verify-borodin", "--profile", "10", "--max-weight", "6", "--out", out]) == 0
    rep = read_report(out)
    assert rep["mode"] == "verify-borodin"
    assert rep["profile"] == "10"
    assert rep["ok"] is True
    assert all(r["match"] for r in rep["coefficients"])
    assert [r["degree"] for r in rep["coefficients"]] == [
        "10:z^%d" % w for w in range(7)
    ]


def test_malformed_profile_exit_2(capsys):
    assert run_cli(["verify-borodin", "--profile", "2X"]) == 2
    capsys.readouterr()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2


def test_perturb_detected(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    code = run_cli(
        [
            "verify-lambda-det",
            "--n",
            "2",
            "--points",
            "3",
            "--seed",
            "7",
            "--perturb",
            "--out",
            out,
        ]
    )
    capsys.readouterr()
    assert code == 1
    rep = read_report(out)
    assert rep["ok"] is False
    assert not rep["coefficients"][0]["match"]
    assert all(r["match"] for r in rep["coefficients"][1:])


def test_qt_collapse_that_keeps_a_q_term_is_a_mismatch(tmp_path, monkeypatch, capsys):
    collapse = qtseries.collapse_t_to_q

    def keep_a_q_term(series3):
        out = collapse(series3)
        out[1, 1, 0] = out.get((1, 1, 0), 0) + 1
        return out

    monkeypatch.setattr(qtseries, "collapse_t_to_q", keep_a_q_term)
    out = str(tmp_path / "r.json")
    argv = ["verify-qt-borodin", "--profile", "10", "--max-weight", "2", "--qt-degree", "2"]
    assert run_cli(argv + ["--out", out]) == 1
    capsys.readouterr()
    bad = [r for r in read_report(out)["coefficients"] if not r["match"]]
    assert [(r["degree"], r["rhs"]) for r in bad] == [("10:collapse z^1", "1")]


def test_refined_hook_side_missing_a_factor_is_a_mismatch(tmp_path, monkeypatch, capsys):
    hook_side = cylindric.borodin_refined_rhs

    def missing_a_box(pi, max_weight):
        # cancel the factor 1/(1 - z^v) of the box of least hook
        keep = lambda e: sum(e) <= max_weight
        v = cylindric.hook_vectors(pi, max_weight)[1][0]
        return series.mul(hook_side(pi, max_weight), series.binomial_factor(v, 1, keep), keep)

    monkeypatch.setattr(cylindric, "borodin_refined_rhs", missing_a_box)
    out = str(tmp_path / "r.json")
    assert run_cli(["verify-bijection", "--profile", "10", "--max-weight", "4", "--out", out]) == 1
    capsys.readouterr()
    bad = [r["degree"] for r in read_report(out)["coefficients"] if not r["match"]]
    assert bad == ["10:refined multiset"]


def test_refined_pair_heavier_than_the_bound_is_a_mismatch(tmp_path, monkeypatch, capsys):
    pairs = cli.alcd_pairs

    def one_too_heavy(pi, max_weight):
        yield from pairs(pi, max_weight)
        # the empty diagram with gamma = (W + 1,) weighs T (W + 1) > W
        yield {}, (max_weight + 1,), len(pi) * (max_weight + 1)

    monkeypatch.setattr(cli, "alcd_pairs", one_too_heavy)
    out = str(tmp_path / "r.json")
    assert run_cli(["verify-bijection", "--profile", "10", "--max-weight", "4", "--out", out]) == 1
    capsys.readouterr()
    bad = [r["degree"] for r in read_report(out)["coefficients"] if not r["match"]]
    assert bad == ["10:refined multiset"]


def test_instance_cap_exit_2(capsys):
    code = run_cli(
        ["verify-borodin", "--profile", "10", "--max-weight", "10", "--max-instances", "5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "cap" in err


def test_counting_checks_list_no_cpps(monkeypatch):
    # verify-borodin and verify-stanley count CPPs without listing them, and
    # charge the cap with the number of CPPs they count
    listed = len(cylindric.enumerate_cpps("10100", 8))
    listed_on_empty_base = sum(
        1 for seq in cylindric.enumerate_cpps("1100", 8) if seq[0] == ()
    )

    def refuse(*args):
        raise RuntimeError("enumerate_cpps called")

    monkeypatch.setattr(cylindric, "enumerate_cpps", refuse)
    budget = cli.Budget(10 ** 6)
    assert len(cli.check_borodin("10100", 8, budget)) == 9
    assert budget.used == listed
    budget = cli.Budget(10 ** 6)
    assert len(cli.check_stanley((2, 2), 8, budget)) == 9
    assert budget.used == listed_on_empty_base


def test_aztec_check_counts_before_it_lists(monkeypatch):
    # verify-aztec counts tilings and the sign side without listing beyond
    # n = 3, and charges the cap with the count before any listing
    listing = aztec.enumerate_tilings

    def small_only(n):
        if n >= 4:
            raise RuntimeError("enumerate_tilings(%d) called" % n)
        return listing(n)

    def refuse(*args):
        raise RuntimeError("enumerate_asms called")

    monkeypatch.setattr(aztec, "enumerate_tilings", small_only)
    monkeypatch.setattr(asmmod, "enumerate_asms", refuse)
    budget = cli.Budget(10 ** 6)
    records = cli.check_aztec(5, budget)
    assert len(records) == 15 and all(r["match"] for r in records)
    assert budget.used == 2 + 8 + 64 + 1024 + 32768
    with pytest.raises(cli.CapExceeded, match=r"^instance cap exceeded: 33866 > 30000$"):
        cli.check_aztec(5, cli.Budget(30000))


def test_aztec_check_builds_each_count_table_once():
    aztec._counter.cache_clear()
    cli.check_aztec(5, cli.Budget(10 ** 6))
    assert aztec._counter.cache_info().misses == 5


def test_aztec_failed_round_trip_is_a_mismatch(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("no tiling")

    monkeypatch.setattr(aztec, "asms_to_tiling", fail)
    assert cli.main(["verify-aztec", "--n", "2"]) == 1
    assert '"match": false' in capsys.readouterr().out


def test_enumerate_tilings_charges_the_count_before_listing(monkeypatch, capsys):
    argv = ["enumerate", "--kind", "tilings", "--n", "3", "--max-instances"]
    assert cli.main(argv + ["64"]) == 0
    assert cli.main(argv + ["63"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 64 > 63\n"

    def refuse(n):
        raise RuntimeError("enumerate_tilings(%d) called" % n)

    monkeypatch.setattr(aztec, "enumerate_tilings", refuse)
    assert cli.main(["enumerate", "--kind", "tilings", "--n", "5", "--max-instances", "1"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 32768 > 1\n"


def test_determinism_across_runs(tmp_path):
    outs = []
    for run in ("1", "2"):
        out = str(tmp_path / ("r%s.json" % run))
        subprocess.check_call(
            [
                sys.executable,
                "-m",
                "partition_forge.cli",
                "verify-bijection",
                "--profile",
                "10",
                "--max-weight",
                "5",
                "--out",
                out,
            ]
        )
        with open(out, "rb") as f:
            outs.append(f.read())
    assert outs[0] == outs[1]


def test_seed_reproducible(tmp_path):
    texts = []
    for _ in range(2):
        out = str(tmp_path / "r.json")
        assert (
            run_cli(
                [
                    "verify-lambda-det",
                    "--n",
                    "2",
                    "--points",
                    "4",
                    "--seed",
                    "11",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        with open(out, "rb") as f:
            texts.append(f.read())
    assert texts[0] == texts[1]


def test_csv_format(tmp_path):
    out = str(tmp_path / "r.csv")
    assert (
        run_cli(
            [
                "verify-macmahon",
                "--max-weight",
                "5",
                "--format",
                "csv",
                "--out",
                out,
            ]
        )
        == 0
    )
    with open(out) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "degree,lhs,rhs,match"
    assert lines[1] == "pp:z^0,1,1,true"
    assert lines[-1] == "ok,true"
    # degree labels such as (1,1):z^2 hold commas and come back whole
    args = ["verify-stanley", "--n", "3", "--max-weight", "2", "--out"]
    assert run_cli(args + [out, "--format", "csv"]) == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["degree", "lhs", "rhs", "match"]
    assert rows[-1] == ["ok", "true"]
    assert all(len(row) == 4 for row in rows[1:-1])
    assert run_cli(args + [out]) == 0
    degrees = [r["degree"] for r in read_report(out)["coefficients"]]
    assert any("," in d for d in degrees)
    assert [row[0] for row in rows[1:-1]] == degrees


def test_enumerate_cpps(tmp_path):
    out = str(tmp_path / "e.json")
    assert (
        run_cli(
            ["enumerate", "--kind", "cpps", "--profile", "10", "--max-weight", "2", "--out", out]
        )
        == 0
    )
    items = read_report(out)
    assert {"profile": "10", "seq": [[], [], []]} in items
    assert {"profile": "10", "seq": [[1], [1], [1]]} in items
    assert all(it["profile"] == "10" for it in items)


def test_enumerate_tilings(tmp_path):
    out = str(tmp_path / "t.json")
    assert run_cli(["enumerate", "--kind", "tilings", "--n", "1", "--out", out]) == 0
    items = read_report(out)
    assert len(items) == 2
    for tiling in items:
        assert all(set(d) == {"x", "y", "dir"} for d in tiling)


def test_enumerate_asms_charges_the_count_before_listing(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(asmmod, "enumerate_asms", lambda n: calls.append(n) or [])
    assert cli.main(["enumerate", "--kind", "asms", "--n", "6", "--max-instances", "100"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 7436 > 100\n"
    assert calls == []


@pytest.mark.parametrize(
    "argv, charged",
    [
        (["--kind", "tilings", "--n", "12"], 302231454903657293676544),
        (["--kind", "asms", "--n", "12"], 12611311859677500),
        (["--kind", "cpps", "--profile", "110100", "--max-weight", "40"], 14620382),
        (["--kind", "cpps", "--profile", "110100", "--max-weight", "60"], 1291957399),
    ],
)
def test_enumerate_refuses_by_a_formula_without_counting(argv, charged, monkeypatch, capsys):
    # 2^(n(n+1)/2) tilings, |ASM(n)| by its product formula and the hook
    # product stand in for the counts, which would run for minutes here
    def refuse(*args):
        raise AssertionError("counted by walking")

    monkeypatch.setattr(aztec, "count_tilings", refuse)
    monkeypatch.setattr(asmmod, "x_enumeration", refuse)
    monkeypatch.setattr(cylindric, "_closed_walks", refuse)
    assert cli.main(["enumerate"] + argv) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: %d > 1000000\n" % charged


def kind_cases():
    """(kind, bounds) pairs on which each enumerate --kind is counted and listed."""
    for w in range(9):
        yield "partitions", {"max_weight": w}
    for pi in list(cli.mixed_profiles(4)) + ["1", "0"]:
        for w in range(7):
            yield "cpps", {"profile": pi, "max_weight": w}
            yield "alcds", {"profile": pi, "max_weight": w}
    for pi, w in (("110100", 12), ("10100", 14), ("10", 10), ("1", 5)):
        yield "alcds", {"profile": pi, "max_weight": w}
    for n in range(6):
        yield "asms", {"n": n}
    for n in range(5):
        yield "tilings", {"n": n}


def test_every_kind_counts_what_it_lists():
    seen = set()
    for kind, bounds in kind_cases():
        _, items, count = cli.KINDS[kind]
        b = argparse.Namespace(**bounds)
        assert count(b) == len(items(b)), (kind, bounds)
        seen.add(kind)
    assert seen == set(cli.KINDS)


def test_listing_paths_charge_before_they_list(monkeypatch, capsys):
    # each run is over the cap, so it must refuse before any enumerator lists
    calls = []

    def refuse(*args):
        calls.append(args)
        raise RuntimeError("listed over the cap")

    monkeypatch.setattr(cylindric, "enumerate_cpps", refuse)
    monkeypatch.setattr(cylindric, "enumerate_alcds", refuse)
    monkeypatch.setattr(cli.partitions, "partitions_upto", refuse)
    for argv in (
        ["enumerate", "--kind", "partitions", "--max-weight", "20"],
        ["enumerate", "--kind", "cpps", "--profile", "10100", "--max-weight", "16"],
        ["enumerate", "--kind", "alcds", "--profile", "10100", "--max-weight", "16"],
        ["verify-bijection", "--profile", "10100", "--max-weight", "16"],
    ):
        assert cli.main(argv + ["--max-instances", "100"]) == 2, argv
        assert "instance cap exceeded" in capsys.readouterr().err, argv
    assert calls == []


def test_an_unusable_out_is_refused_before_any_work(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        raise RuntimeError("work started")

    monkeypatch.setattr(cli, "check_qt_borodin", refuse)
    monkeypatch.setattr(cli.partitions, "partitions_upto", refuse)
    monkeypatch.setattr(series, "z_coefficients", refuse)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    for out, reason in (
        (tmp_path / "missing" / "r.json", "No such file"),
        (tmp_path, "Is a directory"),
        (tmp_path / "r.json", "Permission denied"),
    ):
        for argv in (["verify-qt-borodin"], ["enumerate", "--max-weight", "2"]):
            assert cli.main(argv + ["--out", str(out)]) == 2, (argv, out)
            assert "error: cannot write %s: %s" % (out, reason) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enumerate_requires_profile(capsys):
    code = run_cli(["enumerate", "--kind", "cpps"])
    capsys.readouterr()
    assert code == 2


# usage errors: each exits 2 with a message and no traceback, also under -O
USAGE_ERRORS = [
    ("enumerate", "error: --max-weight required"),
    ("enumerate --kind cpps --profile 10", "error: --max-weight required"),
    ("enumerate --kind asms", "error: --n required"),
    ("enumerate --kind tilings", "error: --n required"),
    ("enumerate --kind asms --n 2 --max-weight 3", "does not read --max-weight"),
    ("enumerate --kind cpps --profile 2X --max-weight 2", "malformed profile '2X'"),
    ("verify-borodin --profile 12", "malformed profile '12'"),
    ("enumerate --format csv", "unrecognized arguments: --format csv"),
    ("enumerate --max-weight 2 --perturb", "unrecognized arguments: --perturb"),
    ("verify-stanley --profile 10", "unrecognized arguments: --profile 10"),
    ("verify-correspondences --n 3", "unrecognized arguments: --n 3"),
    ("verify-macmahon --max-weight 2 --out /nonexistent/r.json", "error: cannot write"),
    ("enumerate --max-weight 2 --out /nonexistent/e.json", "error: cannot write"),
    ("verify-borodin --profile 10 --max-weight -1", "error: --max-weight must be >= 0"),
    ("verify-qt-borodin --profile 10 --qt-degree -1", "error: --qt-degree must be >= 0"),
    ("verify-asm --n -1", "error: --n must be >= 0"),
    ("enumerate --kind asms --n -1", "error: --n must be >= 0"),
    ("verify-lambda-det --n 2 --points 0", "error: --points must be >= 1"),
    ("verify-borodin --max-instances -1", "error: --max-instances must be >= 0"),
    ("enumerate --max-weight 2 --max-instances -1", "error: --max-instances must be >= 0"),
    ("verify-aztec --n 0", "error: nothing to compare at these bounds"),
    ("verify-lambda-det --n 0", "error: nothing to compare at these bounds"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_errors_exit_2_without_traceback(argv, message):
    cmd = [sys.executable, "-O", "-m", "partition_forge.cli"] + argv.split()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_bound_is_not_the_default(tmp_path):
    out = str(tmp_path / "r.json")
    assert run_cli(["verify-stanley", "--n", "0", "--max-weight", "3", "--out", out]) == 0
    shapes = [r["degree"] for r in read_report(out)["coefficients"] if r["degree"][0] == "("]
    assert shapes == ["(empty):z^0"]
    # zero bounds that still compare something run
    for argv in (["verify-asm", "--n", "0"], ["verify-macmahon", "--max-weight", "0"]):
        assert run_cli(argv + ["--out", out]) == 0
        assert read_report(out)["coefficients"]


@st.composite
def verify_argv(draw):
    """A verify command with every bound it reads drawn small, negative included."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [command]
    for bound in sorted(cli.COMMANDS[command][0]):
        if bound == "profile":
            value = draw(st.sampled_from([None, "10", "011", "1", "2X"]))
        else:
            value = draw(st.integers(-2, 3))
        if value is not None:
            argv += ["--" + bound.replace("_", "-"), str(value)]
    argv += ["--points", str(draw(st.integers(-2, 3)))]
    if draw(st.booleans()):
        argv.append("--perturb")
    return argv


@settings(max_examples=60, deadline=None)
@given(verify_argv())
def test_every_run_exits_0_1_or_2_and_0_compares_something(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects before main's own handling
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert json.loads(stdout.getvalue())["coefficients"], argv
    if code == 2:
        assert stdout.getvalue() == "" and "error: " in stderr.getvalue(), argv


def test_tasks_call_checks_bound_after_import(tmp_path, monkeypatch):
    calls = []
    check = cli.check_macmahon

    def recording(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(cli, "check_macmahon", recording)
    out = str(tmp_path / "r.json")
    assert run_cli(["verify-macmahon", "--max-weight", "2", "--out", out]) == 0
    assert calls == [2]


def test_lambda_det_redraws_a_point_only_on_zero_division(monkeypatch):
    # a degenerate point divides by zero and is redrawn; any other error from
    # the recurrence is a fault and must not be skipped as degenerate
    pyramid = lambdadet.pyramid
    raised = []

    def fails_once(*args):
        if not raised:
            raised.append(True)
            raise AssertionError("broken recurrence")
        return pyramid(*args)

    monkeypatch.setattr(lambdadet, "pyramid", fails_once)
    with pytest.raises(AssertionError):
        cli.check_lambda_det(2, 2, 0, cli.Budget(10 ** 6))


def test_a_broken_check_exits_1_not_2(monkeypatch, capsys):
    # bad input is refused by resolve() before any work, so an AssertionError
    # raised while a check runs is a fault in the check, not a usage error
    def broken(*args):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cylindric, "borodin_lhs", broken)
    assert cli.main(["verify-borodin", "--profile", "10", "--max-weight", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_a_broken_rsk_inverse_fails_verify_correspondences(monkeypatch, capsys):
    # the Cauchy counts take only the matrices that RSK and Burge give back
    rsk_inverse = corr.rsk_inverse

    def off_by_one(t, tp):
        m = rsk_inverse(t, tp)
        if m and m[0]:
            m[0][0] += 1
        return m

    monkeypatch.setattr(corr, "rsk_inverse", off_by_one)
    assert cli.main(["verify-correspondences"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [r["degree"] for r in report["coefficients"] if not r["match"]]
    assert failed and all(d.startswith("cauchy:") for d in failed)


def test_correspondences_charges_the_cauchy_matrices_before_listing(monkeypatch, capsys):
    # the S5 tally charges 120 and the column rule 3,656; the Cauchy counts
    # then charge comb(s + size^2 - 1, size^2 - 1) per size and sum s, 785
    listed = []
    listing = cli.matrices_with_margins

    def recording(rows, cols):
        listed.append((rows, cols))
        return listing(rows, cols)

    monkeypatch.setattr(cli, "matrices_with_margins", recording)
    assert cli.main(["verify-correspondences", "--max-instances", "3776"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 3777 > 3776\n"
    assert listed == []
    assert cli.main(["verify-correspondences", "--max-instances", "4561"]) == 0
    assert listed


def test_lambda_det_charges_each_closed_form_before_building_it(monkeypatch, capsys):
    # level k of the closed form has 2^(k(k-1)/2) monomials: 32,768 at k = 6
    # and 2,097,152 at k = 7.  Every n is charged at once, (20 + 1) times the
    # monomials of levels k <= n for n = 2..7, before the first one is built
    def refuse(n, k):
        raise AssertionError("closed_form_symbolic(%d, %d) called" % (n, k))

    monkeypatch.setattr(lambdadet, "closed_form_symbolic", refuse)
    assert cli.main(["verify-lambda-det", "--n", "7"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 45487554 > 1000000\n"
    assert cli.main(["verify-lambda-det", "--n", "6", "--max-instances", "5000"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 736155 > 5000\n"


def test_lambda_det_charges_each_corollary_before_building_it(monkeypatch, capsys):
    # at one point per n, the numeric records charge 2 x 3, 2 x 11 and 2 x 75
    # (each monomial built once and evaluated at the point); each corollary
    # charges |ASM(n)|: 2 and 7 for the one-parameter records, then 1, 2, 7
    # and 42 for the determinants, 239 in all
    argv = ["verify-lambda-det", "--n", "4", "--points", "1", "--max-instances"]
    assert cli.main(argv + ["239"]) == 0
    capsys.readouterr()
    build = lambdadet.robbins_rumsey_symbolic

    def refuse_n_4(n):
        if n == 4:
            raise AssertionError("robbins_rumsey_symbolic(4) called")
        return build(n)

    monkeypatch.setattr(lambdadet, "robbins_rumsey_symbolic", refuse_n_4)
    assert cli.main(argv + ["238"]) == 2
    assert capsys.readouterr().err == "error: instance cap exceeded: 239 > 238\n"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--n", "3", "--seed", "7"], "ec7c6d85b380b369448f32e2bd666d61fdfd862effd502bb307354f3728dea13"),
        (["--n", "5", "--seed", "3"], "37241d52c30532d5172e35ea8d17ce3f757aea8ed8015adf397dfba65843ad00"),
        (["--n", "3", "--format", "csv"], "97c74cdf9617ae0fd24c72048565768c68f49ef48f6cc1b1721f550787fc7d51"),
    ],
)
def test_seeded_lambda_det_reports_keep_their_bytes(argv, digest, capsys):
    # the sha256 of stdout as `python -m partition_forge.cli` prints it;
    # bench/expected.json pins only the exit code, ok and record count of
    # the seeded run
    assert cli.main(["verify-lambda-det"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_record_prints_ints_and_fractions():
    from fractions import Fraction

    assert cli.record("d", Fraction(-4, -6), 0)["lhs"] == "2/3"
    assert cli.record("d", Fraction(4, -6), 0)["lhs"] == "-2/3"
    assert cli.record("d", 5, 0)["lhs"] == "5"
    assert cli.record("d", 6, Fraction(6))["match"] is True


def test_smoke_every_verify_command(tmp_path):
    small = {
        "verify-borodin": ["--profile", "10", "--max-weight", "4"],
        "verify-qt-borodin": ["--profile", "10", "--max-weight", "3", "--qt-degree", "3"],
        "verify-stanley": ["--n", "3", "--max-weight", "4"],
        "verify-macmahon": ["--max-weight", "4"],
        "verify-bijection": ["--profile", "10", "--max-weight", "4"],
        "verify-correspondences": [],
        "verify-asm": ["--n", "3"],
        "verify-aztec": ["--n", "2"],
        "verify-lambda-det": ["--n", "2", "--points", "3", "--seed", "1"],
    }
    for command, extra in sorted(small.items()):
        out = str(tmp_path / (command + ".json"))
        assert run_cli([command] + extra + ["--out", out]) == 0, command
        assert read_report(out)["ok"] is True
    # the checks must not rest on assert statements, which -O strips
    for command, extra in sorted(small.items()):
        out = str(tmp_path / (command + "-O.json"))
        cmd = [sys.executable, "-O", "-m", "partition_forge.cli", command]
        assert subprocess.call(cmd + extra + ["--out", out]) == 0, command
        assert read_report(out)["ok"] is True
