"""The benchmark's pinned reports, checked once per invocation.

Each invocation of ``bench/run.py``'s workloads runs once as a fresh
``python -m partition_forge.cli`` child, the seeded one at seed 0, and its
exit code, ``ok``, record count, stdout digest (where unseeded) and cap
phrase must be those recorded in ``bench/expected.json``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (bench/run.py, which imports bench/tracer.py)


def test_every_workload_invocation_gives_its_recorded_report(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    runner = run.Runner(tmp_path, perf_counter() + run.RUN_LIMIT_S)
    problems = []
    for invocations in run.WORKLOADS.values():
        for inv in invocations:
            child = runner.run(["-m", "partition_forge.cli"] + run.invocation_argv(inv, 0), inv[1])
            problems += ["%s: %s" % (run.key_of(inv), m) for m in run.mismatches(inv, child, expected)]
    assert problems == []
