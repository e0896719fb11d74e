"""Self-tests of the benchmark at tiny bounds: wrapper coverage and metric names.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Together these reach every wrapped layer within a few seconds.
TINY = [
    ["verify-borodin", "--profile", "10", "--max-weight", "4"],
    ["verify-qt-borodin", "--profile", "10", "--max-weight", "3", "--qt-degree", "3"],
    ["verify-stanley", "--n", "2", "--max-weight", "3"],
    ["verify-bijection", "--profile", "10", "--max-weight", "3"],
    ["verify-macmahon", "--max-weight", "3"],
    ["verify-correspondences"],
    ["verify-asm", "--n", "3"],
    ["verify-aztec", "--n", "2"],
    ["verify-lambda-det", "--n", "2", "--points", "2", "--seed", "5"],
    ["enumerate", "--kind", "cpps", "--profile", "10", "--max-weight", "3"],
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PARTITION_FORGE_THREADS", None)
    return env


def python(args):
    return subprocess.run(
        [sys.executable] + args, capture_output=True, cwd=ROOT, env=child_env(), timeout=120
    )


def test_install_leaves_no_name_bound_to_an_original():
    code = (
        "import sys; sys.path.insert(0, 'bench'); import tracer\n"
        "originals = tracer.install(tracer.Tracer())\n"
        "print(len(originals), tracer.unwrapped_references(originals))\n"
        "from partition_forge import cli\n"
        "cli.stale_alias = originals[0]\n"
        "print(tracer.unwrapped_references(originals))\n"
    )
    proc = python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.decode().splitlines()
    wrapped = sum(len(names) for names in tracer.WRAPPED.values())
    # every listed function, plus build_tasks and Budget.spend
    assert first == "%d []" % (wrapped + 2)
    assert second == "['partition_forge.cli.stale_alias']"


def test_traced_invocations_match_plain_and_reach_every_layer(tmp_path):
    traces = []
    for i, argv in enumerate(TINY):
        plain = python(["-m", "partition_forge.cli"] + argv)
        spans = tmp_path / ("%d.json" % i)
        traced = python([str(ROOT / "bench" / "tracer.py"), str(spans)] + argv)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), argv
        assert plain.returncode == 0, argv
        traces.append(json.loads(spans.read_text()))
    values = tracer.layer_values(traces)
    assert set(values) == set(tracer.LAYER_METRICS)
    assert [name for name, v in values.items() if not v] == []


def use_tiny_workload(monkeypatch, tmp_path, name, invocations):
    monkeypatch.setattr(run, "WORKLOADS", {name: invocations})
    monkeypatch.setattr(run, "EXPECTED", tmp_path / "expected.json")
    run.record(tmp_path)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path, monkeypatch):
    seeded = (["verify-lambda-det", "--n", "2", "--points", "2", "--seed", run.SEED], {"PARTITION_FORGE_THREADS": "2"})
    use_tiny_workload(monkeypatch, tmp_path, workload, [seeded])
    _, errors, result = run.run(workload, 3, 0, 1, tmp_path)
    assert errors == [] and result["correct"]
    assert result["attempted"] == 2 and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_plain_run_emits_every_end_to_end_metric_and_fails_a_changed_report(tmp_path, monkeypatch):
    tiny = [(["verify-macmahon", "--max-weight", "2"], {})]
    use_tiny_workload(monkeypatch, tmp_path, "tiny", tiny)
    _, errors, result = run.run("tiny", 0, 0, 0, tmp_path)
    assert errors == [] and result["correct"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    expected = json.loads(run.EXPECTED.read_text())
    expected[run.key_of(tiny[0])]["sha256"] = "0" * 64
    run.EXPECTED.write_text(json.dumps(expected))
    _, errors, result = run.run("tiny", 0, 0, 0, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert len(errors) == 1 and "sha256" in errors[0]


def test_workloads_match_benchmark_json_and_expected_outputs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    expected = json.loads(run.EXPECTED.read_text())
    keys = [run.key_of(inv) for invs in run.WORKLOADS.values() for inv in invs]
    assert sorted(keys) == sorted(expected)
    seeded = [k for k in keys if run.SEED in k]
    assert seeded == ["verify-lambda-det --seed {seed}"]
    assert "sha256" not in expected[seeded[0]]
