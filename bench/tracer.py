"""Per-layer tracing of one partition-forge invocation, from outside the program.

Run as ``python bench/tracer.py SPANS_FILE ARGV...`` with ``src`` on
``PYTHONPATH``.  It wraps the public functions listed in ``WRAPPED``, rebinds
every name under which a ``partition_forge`` module holds one of them, calls
``partition_forge.cli.main(ARGV)`` and writes the aggregated spans and
counters to SPANS_FILE as JSON.  Standard output and the exit code are those
of the plain CLI.

A span is aggregated per (name, parent name).  Its self time is its duration
minus the time covered by its child spans.  Each thread keeps its own span
stack, because ``PARTITION_FORGE_THREADS`` runs checks on a thread pool.
"""

import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

# module -> functions wrapped in a span.  Only what the per-layer metrics
# read is wrapped: wrapping the small helpers that run millions of times
# would cost more than the work it measures.
WRAPPED = {
    "partitions": ["hstrips_up", "hstrips_down", "partitions_upto"],
    "cylindric": ["enumerate_cpps", "phi", "psi", "enumerate_alcds", "borodin_rhs"],
    "series": ["mul", "binomial_factor"],
    "qtseries": [
        "fp_expand",
        "weight_function",
        "pochhammer_ratio",
        "qbinomial_column",
        "weight_alphabet_identity",
    ],
    "paths": ["dc_alphabet"],
    "asm": ["enumerate_asms"],
    "aztec": ["enumerate_tilings", "asms_to_tiling", "tiling_to_asms"],
    "lambdadet": ["closed_form_value", "closed_form_symbolic", "pyramid"],
    "correspondences": [
        "robinson",
        "reverse_robinson",
        "rsk",
        "rsk_inverse",
        "burge",
        "burge_inverse",
        "burge_down",
        "burge_up",
    ],
    "cli": [
        "check_borodin",
        "check_qt_borodin",
        "check_weight_simplification",
        "check_stanley",
        "check_macmahon",
        "check_bijection",
        "check_refined_bijection",
        "check_correspondences",
        "check_asm",
        "check_aztec",
        "check_lambda_det",
        "standard_count",
        "compositions",
        "matrices_with_margins",
        "ssyt_count",
        "corr_permutations",
        "factorial",
        "_count_plane_partitions",
        "_asm_properties_hold",
        "_robbins_rumsey_symbolic",
        "assemble_report",
        "emit",
    ],
}

_CHECKS = ["cli." + f for f in WRAPPED["cli"] if f not in ("assemble_report", "emit")]
_CORRESPONDENCES = ["correspondences." + f for f in WRAPPED["correspondences"]]

# Per-layer metrics read from one traced invocation: name -> (unit, better,
# how).  ``how`` is ("calls" | "self_s", span names), ("counter", name) or
# ("ratio", counter, span name): the counter per call of that span.
# cylindric.cpps_listed is the one count that must not fall on the listing
# workload, where every CPP is printed.
LAYER_METRICS = {
    "partitions.hstrips.calls": ("count", "lower", ("calls", ["partitions.hstrips_up", "partitions.hstrips_down"])),
    "partitions.hstrips.self_s": ("s", "lower", ("self_s", ["partitions.hstrips_up", "partitions.hstrips_down"])),
    "partitions.partitions_upto.self_s": ("s", "lower", ("self_s", ["partitions.partitions_upto"])),
    "cylindric.enumerate_cpps.calls": ("count", "lower", ("calls", ["cylindric.enumerate_cpps"])),
    "cylindric.enumerate_cpps.self_s": ("s", "lower", ("self_s", ["cylindric.enumerate_cpps"])),
    "cylindric.cpps_listed": ("count", "lower", ("counter", "cylindric.cpps_listed")),
    "cylindric.bijection.self_s": ("s", "lower", ("self_s", ["cylindric.phi", "cylindric.psi"])),
    "cylindric.enumerate_alcds.self_s": ("s", "lower", ("self_s", ["cylindric.enumerate_alcds"])),
    "cylindric.borodin_rhs.self_s": ("s", "lower", ("self_s", ["cylindric.borodin_rhs"])),
    "series.mul.calls": ("count", "lower", ("calls", ["series.mul"])),
    "series.mul.self_s": ("s", "lower", ("self_s", ["series.mul"])),
    "series.mul.terms_out": ("count", "lower", ("counter", "series.mul.terms_out")),
    "series.binomial_factor.self_s": ("s", "lower", ("self_s", ["series.binomial_factor"])),
    "qtseries.fp_expand.calls": ("count", "lower", ("calls", ["qtseries.fp_expand"])),
    "qtseries.fp_expand.distinct_ratio": ("1", "lower", ("ratio", "qtseries.fp_expand.distinct", "qtseries.fp_expand")),
    "qtseries.fp_expand.self_s": ("s", "lower", ("self_s", ["qtseries.fp_expand"])),
    "qtseries.weight_function.self_s": ("s", "lower", ("self_s", ["qtseries.weight_function"])),
    "qtseries.pochhammer_ratio.self_s": ("s", "lower", ("self_s", ["qtseries.pochhammer_ratio"])),
    "qtseries.qbinomial_column.calls": ("count", "lower", ("calls", ["qtseries.qbinomial_column"])),
    "qtseries.weight_alphabet_identity.self_s": ("s", "lower", ("self_s", ["qtseries.weight_alphabet_identity"])),
    "paths.dc_alphabet.calls": ("count", "lower", ("calls", ["paths.dc_alphabet"])),
    "paths.dc_alphabet.self_s": ("s", "lower", ("self_s", ["paths.dc_alphabet"])),
    "asm.enumerate_asms.calls": ("count", "lower", ("calls", ["asm.enumerate_asms"])),
    "asm.enumerate_asms.self_s": ("s", "lower", ("self_s", ["asm.enumerate_asms"])),
    "asm.asms_listed": ("count", "lower", ("counter", "asm.asms_listed")),
    "aztec.enumerate_tilings.self_s": ("s", "lower", ("self_s", ["aztec.enumerate_tilings"])),
    "aztec.tilings_listed": ("count", "lower", ("counter", "aztec.tilings_listed")),
    "aztec.asms_to_tiling.calls": ("count", "lower", ("calls", ["aztec.asms_to_tiling"])),
    "aztec.asms_to_tiling.self_s": ("s", "lower", ("self_s", ["aztec.asms_to_tiling"])),
    "aztec.tiling_to_asms.self_s": ("s", "lower", ("self_s", ["aztec.tiling_to_asms"])),
    "lambdadet.closed_form_value.calls": ("count", "lower", ("calls", ["lambdadet.closed_form_value"])),
    "lambdadet.closed_form_value.self_s": ("s", "lower", ("self_s", ["lambdadet.closed_form_value"])),
    "lambdadet.closed_form_symbolic.calls": ("count", "lower", ("calls", ["lambdadet.closed_form_symbolic"])),
    "lambdadet.pyramid.self_s": ("s", "lower", ("self_s", ["lambdadet.pyramid"])),
    "correspondences.self_s": ("s", "lower", ("self_s", _CORRESPONDENCES)),
    "cli.checks.self_s": ("s", "lower", ("self_s", _CHECKS)),
    "cli.records": ("count", "higher", ("counter", "cli.records")),
    "cli.report.self_s": ("s", "lower", ("self_s", ["cli.assemble_report", "cli.emit"])),
    "cli.budget.spent": ("count", "lower", ("counter", "cli.budget.spent")),
    "cli.task.wait_s": ("s", "lower", ("counter", "cli.task.wait_s")),
}


class Tracer(object):
    """Spans aggregated per (name, parent), plus named counters."""

    def __init__(self):
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters = {}
        self.inputs = {}  # counter name -> set of distinct inputs seen
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        # frame: [name, start, time covered by child spans]
        self._stack().append([name, perf_counter(), 0.0])

    def leave(self):
        end = perf_counter()
        stack = self._stack()
        name, start, children = stack.pop()
        dur = end - start
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][2] += dur
        with self._lock:
            agg = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - children

    def count(self, name, n):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def distinct(self, name, key):
        with self._lock:
            self.inputs.setdefault(name, set()).add(key)

    def wrap(self, name, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            # time each resumption; the body runs only while iterated
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self.enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def dump(self):
        return {
            "spans": [
                [name, parent, calls, total, self_s]
                for (name, parent), (calls, total, self_s) in sorted(self.spans.items())
            ],
            "counters": dict(
                self.counters, **{name: len(keys) for name, keys in self.inputs.items()}
            ),
        }


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("partition_forge.") and m]


def install(tracer):
    """Wrap every function in WRAPPED; return the replaced originals.

    Every name bound to an original in any partition_forge module is rebound,
    so calls through ``from .x import f`` and recursive calls are traced too.
    """
    # imported here: run.py reads this module without the package on its path
    from partition_forge import cli

    on_result = {
        "cylindric.enumerate_cpps": lambda a, r: tracer.count("cylindric.cpps_listed", len(r)),
        "series.mul": lambda a, r: tracer.count("series.mul.terms_out", len(r)),
        "qtseries.fp_expand": lambda a, r: tracer.distinct(
            "qtseries.fp_expand.distinct", frozenset(a[0].items())
        ),
        "asm.enumerate_asms": lambda a, r: tracer.count("asm.asms_listed", len(r)),
        "aztec.enumerate_tilings": lambda a, r: tracer.count("aztec.tilings_listed", len(r)),
        "cli.assemble_report": lambda a, r: tracer.count("cli.records", len(r["coefficients"])),
    }
    replaced = {}  # id(original) -> (original, wrapper)
    for mod_name, names in WRAPPED.items():
        mod = importlib.import_module("partition_forge." + mod_name)
        for fn_name in names:
            orig = getattr(mod, fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            replaced[id(orig)] = (orig, tracer.wrap(name, orig, on_result.get(name)))

    build_tasks = cli.build_tasks

    @functools.wraps(build_tasks)
    def traced_build_tasks(args, budget):
        return _wrap_tasks(tracer, build_tasks(args, budget))

    replaced[id(build_tasks)] = (build_tasks, traced_build_tasks)

    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and replaced[id(value)][0] is value:
                setattr(mod, attr, replaced[id(value)][1])

    spend = cli.Budget.spend

    @functools.wraps(spend)
    def traced_spend(budget, n):
        tracer.count("cli.budget.spent", n)
        return spend(budget, n)

    cli.Budget.spend = traced_spend
    return [orig for orig, _ in replaced.values()] + [spend]


def _wrap_tasks(tracer, tasks):
    """Wrap the callables build_tasks returns to time pool start -> task start."""
    ready = perf_counter()

    def timed(fn):
        def task():
            tracer.count("cli.task.wait_s", perf_counter() - ready)
            return fn()

        return task

    return [(label, timed(fn)) for label, fn in tasks]


def unwrapped_references(originals):
    """(module.attr) names in partition_forge still bound to an original."""
    ids = {id(o) for o in originals}
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if id(value) in ids:
                found.append("%s.%s" % (mod.__name__, attr))
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    if id(cvalue) in ids:
                        found.append("%s.%s.%s" % (mod.__name__, attr, cattr))
    return found


def layer_values(traces):
    """Per-layer metric values summed over the dumped traces of one pass."""
    calls, self_s, counters = {}, {}, {}
    for trace in traces:
        for name, _parent, n, _total, s in trace["spans"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for name, v in trace["counters"].items():
            counters[name] = counters.get(name, 0) + v
    out = {}
    for metric, (_unit, _better, how) in LAYER_METRICS.items():
        kind = how[0]
        if kind == "counter":
            out[metric] = counters.get(how[1], 0)
        elif kind == "ratio":
            n = calls.get(how[2], 0)
            out[metric] = counters.get(how[1], 0) / n if n else 0.0
        else:
            table = calls if kind == "calls" else self_s
            out[metric] = sum(table.get(name, 0) for name in how[1])
    return out


def main(argv):
    spans_file, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    missed = unwrapped_references(originals)
    if missed:
        print("error: unwrapped after install: %s" % ", ".join(missed), file=sys.stderr)
        return 3
    cli = importlib.import_module("partition_forge.cli")

    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
