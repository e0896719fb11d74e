"""Benchmark of the partition-forge CLI, run the way a user runs it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, closed loop: every invocation is a fresh ``python -m
partition_forge.cli`` child, started only after the previous one has ended,
so each pays the cold caches a user pays.  A pass runs the workload's
invocations once; passes repeat for about S seconds, at least once.  Every
output is checked against ``expected.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
passes with passes in which every child runs through ``tracer.py``, and
reports the per-layer metrics and the tracing overhead.  ``--record`` rewrites
``expected.json`` from the current program.  See README.md.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
SEED = "{seed}"  # replaced by --seed; only verify-lambda-det takes it

# name -> invocations, each (argv after ``partition_forge.cli``, extra env).
WORKLOADS = {
    "cpp-count": [
        (["verify-borodin"], {}),
        (["verify-borodin", "--profile", "10100", "--max-weight", "26"], {}),
        (["verify-stanley"], {}),
    ],
    "qt-series": [
        (["verify-qt-borodin"], {}),
        (["verify-qt-borodin", "--profile", "110100", "--max-weight", "8", "--qt-degree", "8"], {}),
    ],
    "listing": [
        (["verify-bijection"], {"PARTITION_FORGE_THREADS": "2"}),
        (["verify-bijection", "--profile", "10100", "--max-weight", "16"], {}),
        (["enumerate", "--kind", "cpps", "--profile", "10100", "--max-weight", "20"], {}),
        (["verify-aztec"], {}),
        (["verify-asm"], {}),
        (["verify-lambda-det", "--seed", SEED], {}),
        (["verify-correspondences"], {}),
        (["verify-macmahon"], {}),
        (["verify-aztec", "--max-instances", "30000"], {}),
        (["verify-borodin", "--profile", "10", "--max-weight", "6", "--perturb"], {}),
    ],
}

# Phrase a failing invocation must print on stderr; the numbers after it may
# change when the cap is charged differently.
STDERR = {"verify-aztec --max-instances 30000": "instance cap exceeded"}

SETUP_CODE = "import partition_forge.cli as cli; cli.build_parser()"
SETUP_SAMPLES = 11
RUN_LIMIT_S = 170  # a run must end within 180 s


def key_of(inv):
    argv, env = inv
    return " ".join(["%s=%s" % kv for kv in sorted(env.items())] + argv)


class Child(object):
    """One finished child: exit code, wall time, rusage and captured output."""

    def __init__(self, code, wall_s, rusage, stdout, stderr):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_mib = rusage.ru_maxrss / 1024.0  # Linux reports KiB
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.stdout = stdout
        self.stderr = stderr


class Runner(object):
    """Starts children one at a time inside the checkout, with a deadline."""

    def __init__(self, tmp, deadline):
        self.tmp = tmp
        self.deadline = deadline
        # children cache bytecode, as an installed package does, whatever the caller set
        drop = ("PARTITION_FORGE_THREADS", "PYTHONDONTWRITEBYTECODE")
        env = {k: v for k, v in os.environ.items() if k not in drop}
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def run(self, argv, extra_env=None):
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        env = dict(self.env, **(extra_env or {}))
        start = perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable] + argv,
            env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
            ],
        )
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, self.deadline - perf_counter()))
            if not ready:
                signal.pidfd_send_signal(fd, signal.SIGKILL)
            _, status, rusage = os.wait4(pid, 0)
        except BaseException:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(fd)
        wall = perf_counter() - start
        return Child(os.waitstatus_to_exitcode(status), wall, rusage, out.read_bytes(), err.read_bytes())


def invocation_argv(inv, seed):
    return [str(seed) if a == SEED else a for a in inv[0]]


def observed(child):
    """(exit, ok, records, sha256) of a finished CLI child."""
    ok = records = None
    if child.stdout:
        try:
            doc = json.loads(child.stdout)
        except ValueError:
            doc = None
        if isinstance(doc, dict):
            ok, records = doc.get("ok"), len(doc.get("coefficients", ()))
        elif isinstance(doc, list):
            records = len(doc)
    return {
        "exit": child.code,
        "ok": ok,
        "records": records,
        "sha256": hashlib.sha256(child.stdout).hexdigest(),
    }


def mismatches(inv, child, expected):
    """Reasons the child's output differs from what the workload expects."""
    want = expected.get(key_of(inv))
    if want is None:
        return ["no expected output recorded"]
    got = observed(child)
    fields = ["exit", "ok", "records"]
    if SEED not in inv[0]:
        fields.append("sha256")  # a seeded report varies with the seed
    out = ["%s %r != %r" % (f, got[f], want[f]) for f in fields if got[f] != want[f]]
    phrase = STDERR.get(key_of(inv))
    if phrase and phrase.encode() not in child.stderr:
        out.append("stderr lacks %r" % phrase)
    return out


def run_pass(runner, workload, seed, expected, spans_dir=None):
    """One pass; with spans_dir, every child runs through tracer.py."""
    children, traces = [], []
    start = perf_counter()
    for i, inv in enumerate(WORKLOADS[workload]):
        argv = ["-m", "partition_forge.cli"] + invocation_argv(inv, seed)
        if spans_dir is not None:
            spans = spans_dir / ("%d.json" % i)
            argv = [str(BENCH / "tracer.py"), str(spans)] + argv[2:]
        child = runner.run(argv, inv[1])
        children.append(child)
        if spans_dir is not None:
            # a child killed at the run's limit may leave a partial file
            written = spans.exists() and child.code >= 0
            traces.append(json.loads(spans.read_text()) if written else None)
    wall = perf_counter() - start
    problems = [
        ["%s: %s" % (key_of(inv), m) for m in mismatches(inv, c, expected)]
        for inv, c in zip(WORKLOADS[workload], children)
    ]
    for inv, trace, p in zip(WORKLOADS[workload], traces, problems):
        if trace is None:
            p.append("%s: no trace written" % key_of(inv))
    return wall, children, problems, [t for t in traces if t is not None]


def measure_setup(runner):
    children = [runner.run(["-c", SETUP_CODE]) for _ in range(SETUP_SAMPLES)]
    failed = sum(1 for c in children if c.code != 0)
    return [c.wall_s for c in children], failed


def summary(name, values, unit):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return "%s: median %.4f %s (q1 %.4f, q3 %.4f, min %.4f, max %.4f, n=%d)" % (
        name, statistics.median(values), unit, q[0], q[2], min(values), max(values), len(values),
    )


def run(workload, seed, seconds, trace, tmp):
    runner = Runner(tmp, perf_counter() + RUN_LIMIT_S)
    expected = json.loads(EXPECTED.read_text())
    runner.run(["-c", SETUP_CODE])  # compile bytecode once, as an installed package has
    lines, errors = [], []
    attempted = failed = 0

    def tally(problems, n):
        nonlocal attempted, failed
        attempted += n
        failed += sum(1 for p in problems if p)
        errors.extend(m for p in problems for m in p)

    if not trace:
        setup, setup_failed = measure_setup(runner)
        errors.extend(["set-up child failed"] * setup_failed)
    sessions, traced_sessions, layer_samples, children, rounds = [], [], [], [], []
    begin = perf_counter()
    # stop where the run's length comes closest to `seconds`
    while not rounds or perf_counter() - begin + statistics.median(rounds) / 2 < seconds:
        round_start = perf_counter()
        wall, kids, problems, _ = run_pass(runner, workload, seed, expected)
        sessions.append(wall)
        children.extend(kids)
        tally(problems, len(kids))
        if trace:
            spans_dir = tmp / "spans"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir()
            t_wall, t_kids, t_problems, traces = run_pass(runner, workload, seed, expected, spans_dir)
            for inv, plain, traced, p in zip(WORKLOADS[workload], kids, t_kids, t_problems):
                if (plain.code, plain.stdout) != (traced.code, traced.stdout):
                    p.append("%s: traced output differs from untraced" % key_of(inv))
            tally(t_problems, len(t_kids))
            traced_sessions.append(t_wall)
            layer_samples.append(tracer.layer_values(traces))
        rounds.append(perf_counter() - round_start)
        if perf_counter() > runner.deadline:
            errors.append("run stopped at its %d s limit" % RUN_LIMIT_S)
            break

    per_pass = len(WORKLOADS[workload])
    if trace:
        metrics = {
            name: statistics.median(s[name] for s in layer_samples)
            for name in tracer.LAYER_METRICS
        }
        units = {name: spec[0] for name, spec in tracer.LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = statistics.median(traced_sessions) - statistics.median(sessions)
        metrics["proc.cpu_s"] = statistics.median(
            sum(c.cpu_s for c in children[i : i + per_pass])
            for i in range(0, len(children), per_pass)
        )
        metrics["proc.invocations"] = per_pass
        units.update({"trace.overhead_s": "s", "proc.cpu_s": "s", "proc.invocations": "count"})
        lines.append(summary("session_s (untraced)", sessions, "s"))
        lines.append(summary("session_s (traced)", traced_sessions, "s"))
    else:
        metrics = {
            "session_s": statistics.median(sessions),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(c.maxrss_mib for c in children),
        }
        units = {"session_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        lines.append(summary("session_s", sessions, "s"))
        lines.append(summary("setup_s", setup, "s"))
        lines.append("peak_rss_mb: %.1f MiB (max over %d children)" % (metrics["peak_rss_mb"], len(children)))
    lines.append("fail_ratio: %.4f 1 (%d of %d invocations)" % (failed / attempted, failed, attempted))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return lines, errors, result


def record(tmp):
    """Rewrite expected.json from the program as it is now."""
    runner = Runner(tmp, perf_counter() + 600)
    expected = {}
    for workload, invocations in WORKLOADS.items():
        for inv in invocations:
            child = runner.run(["-m", "partition_forge.cli"] + invocation_argv(inv, 0), inv[1])
            want = observed(child)
            if SEED in inv[0]:
                del want["sha256"]
            expected[key_of(inv)] = want
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "partition_forge" / "cli.py").is_file():
        print("error: no partition_forge sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        p.error("--workload is required")
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.record:
            record(tmp)
            return 0
        lines, errors, result = run(args.workload, args.seed, args.seconds, args.trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for line in errors:
        print("mismatch: %s" % line, file=sys.stderr)
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
