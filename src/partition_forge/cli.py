"""Command line verification harness.

Every command re-derives one family of identities and emits a JSON (or CSV)
report with one record per compared coefficient.  Exit codes: 0 all checks
match, 1 a mismatch was found, 2 usage or configuration error.
"""

import argparse
import csv
import errno
import io
import json
import os
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

from . import asm as asmmod
from . import aztec
from . import correspondences as corr
from . import cylindric
from . import lambdadet
from . import partitions
from . import qtseries
from . import series


class CapExceeded(Exception):
    pass


class Budget(object):
    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def spend(self, n):
        self.used += n
        if self.used > self.cap:
            raise CapExceeded(
                "instance cap exceeded: %d > %d" % (self.used, self.cap)
            )


def record(degree, lhs, rhs):
    """One compared coefficient; str() prints an int or Fraction as 5 or -2/3."""
    return {"degree": str(degree), "lhs": str(lhs), "rhs": str(rhs), "match": lhs == rhs}


def compare(label, lhs, rhs, keys):
    """One record per key, named label % key; a side that lacks a key reads 0."""
    return [record(label % key, lhs.get(key, 0), rhs.get(key, 0)) for key in keys]


def tally(label, items, holds):
    """One record: how many items hold, against how many there are."""
    items = list(items)
    return record(label, sum(1 for x in items if holds(x)), len(items))


def mixed_profiles(max_t):
    for t in range(2, max_t + 1):
        for bits in product("01", repeat=t):
            pi = "".join(bits)
            if "0" in pi and "1" in pi:
                yield pi


def pure_profiles(max_t):
    for t in range(1, max_t + 1):
        yield "1" * t
        yield "0" * t


# ---------------------------------------------------------------------------
# checks; each returns a list of records


def z_records(label, lhs, rhs, budget):
    """Charge the count lhs, then one record per z^w of the coefficient lists
    lhs and rhs, named label:z^w."""
    budget.spend(sum(lhs))
    return compare(
        label + ":z^%d", dict(enumerate(lhs)), dict(enumerate(rhs)), range(max(len(lhs), len(rhs)))
    )


def check_borodin(pi, max_weight, budget):
    lhs = cylindric.borodin_lhs(pi, max_weight)
    return z_records(pi, lhs, cylindric.borodin_rhs(pi, max_weight), budget)


def check_qt_borodin(pi, max_weight, qt_degree, budget):
    counts = cylindric.borodin_lhs(pi, max_weight)
    budget.spend(sum(counts))
    lhs = qtseries.qt_borodin_lhs(pi, max_weight, qt_degree)
    rhs = qtseries.qt_borodin_rhs(pi, max_weight, qt_degree)
    # at t = q each z^w part must be the constant counts[w]; a part that
    # keeps a q-term is compared whole, so it cannot match
    parts = {}
    for (w, q, t), c in qtseries.collapse_t_to_q(lhs).items():
        parts.setdefault(w, {})[q, t] = c
    collapsed = {w: p.get((0, 0), 0) if p.keys() <= {(0, 0)} else p for w, p in parts.items()}
    return compare(pi + ":z^%d q^%d t^%d", lhs, rhs, sorted(set(lhs) | set(rhs))) + compare(
        pi + ":collapse z^%d", collapsed, dict(enumerate(counts)), range(max_weight + 1)
    )


def check_weight_simplification(pi, max_weight, budget):
    budget.spend(sum(cylindric.borodin_lhs(pi, max_weight)))
    holds, total = qtseries.weight_simplification(pi, max_weight)
    return [record("%s:weight<=%d" % (pi, max_weight), holds, total)]


def check_stanley(shape, max_weight, budget):
    if not shape:
        return [record("(empty):z^0", 1, 1)]
    lhs = cylindric.borodin_lhs(partitions.minimal_profile(shape), max_weight, ())
    rhs = series.z_coefficients(
        [(partitions.hook(shape, s), -1) for s in partitions.cells(shape)], max_weight
    )
    return z_records("(%s)" % ",".join(map(str, shape)), lhs, rhs, budget)


def _count_plane_partitions(max_weight):
    """Plane partitions by weight, up to max_weight.

    One of weight <= W fits in the W x W square, so turned half a turn it is
    a reverse plane partition of that square, counted as for verify-stanley.
    """
    side = max(max_weight, 1)
    return cylindric.borodin_lhs("1" * side + "0" * side, max_weight, ())


def check_macmahon(max_weight, budget):
    lhs = _count_plane_partitions(max_weight)
    rhs = series.z_coefficients([(n, -n) for n in range(1, max_weight + 1)], max_weight)
    return z_records("pp", lhs, rhs, budget)


def alcd_pairs(pi, max_weight):
    """(labels, gamma, weight) for each ALCD and partition pair of weight <= max_weight."""
    t = len(pi)
    for labels in cylindric.enumerate_alcds(pi, max_weight):
        base = cylindric.alcd_weight(pi, labels)
        for gamma in partitions.partitions_upto((max_weight - base) // t):
            yield labels, gamma, t * sum(gamma) + base


def check_bijection(pi, max_weight, budget):
    t = len(pi)
    counts = cylindric.borodin_lhs(pi, max_weight)
    budget.spend(sum(counts))
    seqs = cylindric.enumerate_cpps(pi, max_weight)
    good = 0
    # per weight class: distinct image pairs
    by_weight = {}
    for seq in seqs:
        gamma, labels = cylindric.phi(pi, seq)
        w = cylindric.cpp_weight(seq)
        if (
            w == t * sum(gamma) + cylindric.alcd_weight(pi, labels)
            and cylindric.psi(pi, gamma, labels) == seq
        ):
            good += 1
        by_weight.setdefault(w, set()).add((gamma, tuple(sorted(labels.items()))))
    out = [record("%s:round-trip" % pi, good, len(seqs))]
    # per weight class: pairs on the ALCD side
    rhs_by_weight = series.accumulate((w, 1) for _, _, w in alcd_pairs(pi, max_weight))
    for w, n_lhs in enumerate(counts):
        out.append(record("%s:class %d lhs" % (pi, w), len(by_weight.get(w, ())), n_lhs))
        out.append(record("%s:class %d rhs" % (pi, w), n_lhs, rhs_by_weight.get(w, 0)))
    return out


def check_refined_bijection(pi, max_weight, budget):
    budget.spend(sum(cylindric.borodin_lhs(pi, max_weight)))
    lhs = cylindric.borodin_refined_lhs(pi, max_weight)
    vecs = (
        tuple(sum(gamma) + w for w in cylindric.alcd_refined_weight(pi, labels))
        for labels, gamma, _ in alcd_pairs(pi, max_weight)
    )
    rhs = series.accumulate((vec, 1) for vec in vecs)
    good = int(lhs == rhs == cylindric.borodin_refined_rhs(pi, max_weight))
    return [record("%s:refined multiset" % pi, good, 1)]


def check_correspondences(budget):
    budget.spend(factorial(5))
    out = [tally(
        "robinson:S5", corr_permutations(5),
        lambda p: corr.reverse_robinson(*corr.robinson(p)) == tuple(p),
    )]
    for n in range(1, 7):
        total = sum(standard_count(la) ** 2 for la in partitions.partitions_of(n))
        out.append(record("involution:n=%d" % n, total, factorial(n)))
    # column rule round trip with weight balance
    shapes = partitions.partitions_upto(8)
    total = sum(len(partitions.hstrips_down(la)) ** 2 for la in shapes)
    budget.spend(total)
    good = 0
    for la in shapes:
        downs = partitions.hstrips_down(la)
        for alpha in downs:
            for beta in downs:
                m, mu = corr.burge_down(alpha, beta, la)
                balanced = sum(la) + sum(mu) == sum(alpha) + sum(beta) + m
                if balanced and corr.burge_up(alpha, beta, m, mu) == la:
                    good += 1
    out.append(record("column-rule:|la|<=8", good, total))
    # Cauchy counts: matrices with given row and column sums, each counted
    # only if both RSK and Burge take it back to itself; there are
    # comb(total_sum + size^2 - 1, size^2 - 1) matrices of each sum to list
    for size in (2, 3):
        for total_sum in range(5):
            budget.spend(comb(total_sum + size * size - 1, size * size - 1))
            lhs = rhs = 0
            for r, c in product(compositions(total_sum, size), repeat=2):
                for m in matrices_with_margins(r, c):
                    rows = [list(row) for row in m]  # the inverses return lists
                    lhs += (
                        corr.rsk_inverse(*corr.rsk(m)) == rows == corr.burge_inverse(*corr.burge(m))
                    )
                rhs += sum(
                    ssyt_count(la, r) * ssyt_count(la, c)
                    for la in partitions.partitions_of(total_sum)
                    if len(la) <= size
                )
            out.append(record("cauchy:%dx%d sum %d" % (size, size, total_sum), lhs, rhs))
    return out


def corr_permutations(n):
    return permutations(range(1, n + 1))


def standard_count(la):
    """Standard tableaux of shape la: semistandard ones with content 1^|la|."""
    return ssyt_count(la, (1,) * sum(la))


def compositions(n, k):
    return (c for c in product(range(n + 1), repeat=k) if sum(c) == n)


def matrices_with_margins(rows, cols):
    """Nonnegative integer matrices with the given row and column sums, row
    by row, each partial matrix with the column sums still left."""
    partial = [((), tuple(cols))]
    for r in rows:
        partial = [
            (acc + (row,), tuple(c - x for c, x in zip(left, row)))
            for acc, left in partial
            for row in compositions(r, len(cols))
            if all(x <= c for x, c in zip(row, left))
        ]
    return [acc for acc, left in partial if not any(left)]


def ssyt_count(la, content):
    """Number of semistandard fillings of la with given content vector."""
    counts = {(): 1}
    for c in content:
        counts = series.accumulate(
            (mu, mult)
            for prev, mult in counts.items()
            for mu in partitions.hstrips_up(prev, sum(prev) + c)
            if sum(mu) == sum(prev) + c
        )
    return counts.get(tuple(la), 0)


def check_asm(max_n, budget):
    out = []
    for n in range(max_n + 1):
        count = asmmod.x_enumeration(n, 1)
        budget.spend(count)
        out.append(record("count:n=%d" % n, count, asmmod.asm_count_formula(n)))
    for n in range(1, min(max_n, 4) + 1):
        asms = asmmod.enumerate_asms(n)
        out.append(tally("properties:n=%d" % n, asms, lambda b: _asm_properties_hold(n, b)))
    return out


def _asm_properties_hold(n, b):
    bar = asmmod.left_corner_sums(b)
    under = asmmod.right_corner_sums(b)
    for i in range(1, n + 1):
        for j in range(1, n):
            if bar[i - 1][j - 1] + under[i - 1][j] != i:
                return False
    k = sum(1 for row in b for v in row if v == -1)
    for bits in product((0, 1), repeat=k):
        comp = tuple(1 - x for x in bits)
        if asmmod.left_below_family(b, bits) != asmmod.right_below_family(b, comp):
            return False
    amin = asmmod.left_below_family(b, (0,) * k)
    amax = asmmod.left_below_family(b, (1,) * k)
    fb, fa = asmmod.f_weight_exponents(b), asmmod.f_weight_exponents(amin)
    gb, ga = asmmod.g_weight_exponents(b), asmmod.g_weight_exponents(amax)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            prev = fa[i - 2][j - 2] if i >= 2 and j >= 2 else 0
            if fb[i - 1][j - 1] - prev != int(asmmod.is_inversion(b, i, j)):
                return False
            prev = ga[i - 2][j - 1] if i >= 2 and j <= n - 1 else 0
            if gb[i - 1][j - 1] - prev != int(asmmod.is_dual_inversion(b, i, j)):
                return False
    return True


def check_aztec(max_n, budget):
    out = []
    for n in range(1, max_n + 1):
        count = aztec.count_tilings(n)
        budget.spend(count)
        out.append(record("count:n=%d" % n, count, 2 ** (n * (n + 1) // 2)))
        # every tiling up to n = 3, then 32 evenly spaced in listing order
        if n >= 4:
            sample = aztec.tilings_at(n, range(0, count, count // 32))
        else:
            sample = aztec.enumerate_tilings(n)
        out.append(tally("round-trip:n=%d" % n, sample, lambda t: _round_trips(n, t)))
        out.append(record("sign-count:n=%d" % n, asmmod.x_enumeration(n + 1, 2), count))
    return out


def _round_trips(n, tiling):
    # a round trip that raises counts as failed, not as a usage error
    try:
        return aztec.asms_to_tiling(n, *aztec.tiling_to_asms(n, tiling)) == tiling
    except AssertionError:
        return False


def check_lambda_det(max_n, points, seed, budget):
    out = []
    rng = random.Random(seed)

    def rnd():
        v = 0
        while v == 0:
            v = rng.randint(-9, 9)
        return Fraction(v)

    def grid(size):
        return [[rnd() for _ in range(size)] for _ in range(size)]

    # level k has 2^(k(k-1)/2) monomials, each built once and evaluated per
    # point; every n is charged before the first closed form is built
    budget.spend((points + 1) * sum(
        2 ** (k * (k - 1) // 2) for n in range(2, max_n + 1) for k in range(1, n + 1)
    ))
    forms = {}
    for n in range(2, max_n + 1):
        good = 0
        forms[n] = [lambdadet.closed_form_symbolic(n, k) for k in range(1, n + 1)]
        done = 0
        while done < points:
            lam, mu, x, y = grid(n), grid(n), grid(n), grid(n + 1)
            try:
                levels = lambdadet.pyramid(n, lam, mu, x, y)
            except ZeroDivisionError:
                continue
            done += 1
            if all(
                levels[k][0][0]
                == lambdadet.closed_form_value(forms[n][k - 1], lam, mu, x, y)
                for k in range(1, n + 1)
            ):
                good += 1
        out.append(record("numeric:n=%d" % n, good, points))
    for n in range(2, min(max_n, 3) + 1):
        out.append(
            tally("symbolic:n=%d" % n, range(1, n + 1), lambda k: lambdadet.condenses(n, k, forms[n]))
        )
    # each corollary below has one term per sign matrix of its size
    for n in range(2, min(max_n, 3) + 1):
        apex = lambdadet.lp_rename(forms[n][n - 1], lambdadet.one_parameter)
        budget.spend(asmmod.x_enumeration(n, 1))
        want = _robbins_rumsey_symbolic(n)
        out.append(record("one-parameter:n=%d" % n, int(apex == want), 1))
    for n in range(1, max_n + 1):
        m = grid(n)
        budget.spend(asmmod.x_enumeration(n, 1))
        out.append(
            record(
                "determinant:n=%d" % n,
                lambdadet.lambda_determinant(n, m),
                lambdadet.det_cofactor(m),
            )
        )
    return out


def _robbins_rumsey_symbolic(n):
    """The sum the one-parameter records compare with; bench/tracer.py
    times it under this name."""
    return lambdadet.robbins_rumsey_symbolic(n)


# ---------------------------------------------------------------------------
# enumerate command serializers


def emit_alcd(pi, labels):
    return {
        "profile": pi,
        "labels": [[i, j, w, m] for (i, j, w), m in sorted(labels.items())],
    }


def emit_tiling(tiling):
    return [
        {"x": x, "y": y, "dir": kind}
        for kind, x, y in sorted(tiling, key=lambda d: (d[1], d[2], d[0]))
    ]


# ---------------------------------------------------------------------------
# command table
#
# Each entry names the bounds a command reads, each with its default, and the
# function that turns the resolved bounds into work.  The functions call the
# checks through this module's globals and never hold a check function, so a
# check rebound after import (as a tracer does) is the one that runs.

BOUNDS = {"profile": str, "max_weight": int, "qt_degree": int, "n": int}
REQUIRED = object()  # default of a bound the command cannot run without


def sweep(profile, max_t, mixed_only=False):
    """The given profile, or every profile of length <= max_t."""
    if profile is not None:
        return [profile]
    out = list(mixed_profiles(max_t))
    if not mixed_only:
        out += list(pure_profiles(max_t))
    return out


# verify command -> (bound -> default, task builder).  A builder takes the
# resolved bounds and the budget and returns (label, callable) pairs.  A
# profile left out means a sweep over the profiles the builder names.
COMMANDS = {
    "verify-borodin": ({"profile": None, "max_weight": 12}, lambda b, budget: [
        ("borodin %s" % pi, lambda pi=pi: check_borodin(pi, b.max_weight, budget))
        for pi in sweep(b.profile, 5)
    ]),
    "verify-qt-borodin": ({"profile": None, "max_weight": 8, "qt_degree": 8}, lambda b, budget: [
        ("qt-borodin %s" % pi,
         lambda pi=pi: check_qt_borodin(pi, b.max_weight, b.qt_degree, budget))
        for pi in sweep(b.profile, 4, mixed_only=True)
    ]),
    "verify-stanley": ({"max_weight": 12, "n": 8}, lambda b, budget: [
        ("stanley %r" % (la,), lambda la=la: check_stanley(la, b.max_weight, budget))
        for la in partitions.partitions_upto(b.n)
    ] + [
        ("weight-simplification", lambda: [
            r for pi in mixed_profiles(5)
            for r in check_weight_simplification(pi, min(b.max_weight, 8), budget)
        ])
    ]),
    "verify-macmahon": ({"max_weight": 8}, lambda b, budget: [
        ("macmahon", lambda: check_macmahon(b.max_weight, budget))
    ]),
    "verify-bijection": ({"profile": None, "max_weight": 10}, lambda b, budget: [
        ("bijection %s" % pi, lambda pi=pi: check_bijection(pi, b.max_weight, budget))
        for pi in sweep(b.profile, 4, mixed_only=True)
    ] + [
        ("refined %s" % pi,
         lambda pi=pi: check_refined_bijection(pi, min(b.max_weight, 6), budget))
        for pi in sweep(b.profile, 3, mixed_only=True)
    ]),
    "verify-correspondences": ({}, lambda b, budget: [
        ("correspondences", lambda: check_correspondences(budget))
    ]),
    "verify-asm": ({"n": 5}, lambda b, budget: [("asm", lambda: check_asm(b.n, budget))]),
    "verify-aztec": ({"n": 5}, lambda b, budget: [("aztec", lambda: check_aztec(b.n, budget))]),
    "verify-lambda-det": ({"n": 4}, lambda b, budget: [
        ("lambda-det", lambda: check_lambda_det(b.n, b.points, b.seed, budget))
    ]),
}

# enumerate --kind -> (bound -> default, items, count).  Items come in a fixed
# order and are ready for JSON; count counts them by a formula or a product,
# without listing or walking them, so the cap is charged before the work and
# refuses an oversized run at once.
KINDS = {
    # partitions of k <= W: the coefficient sum of prod_{k<=W} 1/(1 - z^k)
    "partitions": ({"max_weight": REQUIRED}, lambda b: [
        list(la) for la in partitions.partitions_upto(b.max_weight)
    ], lambda b: sum(series.z_coefficients([
        (k, -1) for k in range(1, b.max_weight + 1)
    ], b.max_weight))),
    # Borodin's identity: the coefficient sum of the hook product
    "cpps": ({"profile": REQUIRED, "max_weight": REQUIRED}, lambda b: [
        {"profile": b.profile, "seq": [list(mu) for mu in seq]}
        for seq in sorted(cylindric.enumerate_cpps(b.profile, b.max_weight))
    ], lambda b: sum(cylindric.borodin_rhs(b.profile, b.max_weight))),
    # one label m >= 1 of weight m * hook on each of some boxes: the
    # coefficient sum of prod_boxes 1/(1 - z^hook)
    "alcds": ({"profile": REQUIRED, "max_weight": REQUIRED}, lambda b: [
        emit_alcd(b.profile, labels)
        for labels in sorted(
            cylindric.enumerate_alcds(b.profile, b.max_weight), key=lambda l: sorted(l.items())
        )
    ], lambda b: sum(series.z_coefficients([
        (cylindric.box_hook(b.profile, box), -1)
        for box in cylindric.cylindric_boxes(b.profile, b.max_weight)
    ], b.max_weight))),
    # |ASM(n)| by its product formula
    "asms": ({"n": REQUIRED}, lambda b: [
        [list(row) for row in m] for m in sorted(asmmod.enumerate_asms(b.n))
    ], lambda b: asmmod.asm_count_formula(b.n)),
    # printed in enumerate_tilings' order; sorted() would keep it, since
    # tilings are frozensets and those compare by inclusion.  The order-n
    # Aztec diamond has 2^(n(n+1)/2) tilings
    "tilings": ({"n": REQUIRED}, lambda b: [
        emit_tiling(t) for t in aztec.enumerate_tilings(b.n)
    ], lambda b: 2 ** (b.n * (b.n + 1) // 2)),
}


def usage_error(message):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(2)


def resolve(args, bounds, name):
    """A copy of args with each bound in bounds set: as given, else its default.

    args itself is left as parsed, because the report echoes only the bounds
    that were given.  A missing REQUIRED bound, a bound the command does not
    read, a negative integer bound or cap, fewer than one point, a
    malformed profile and an --out that cannot be written are usage errors.
    """
    b = argparse.Namespace(**vars(args))
    for bound, kind in BOUNDS.items():
        flag = "--" + bound.replace("_", "-")
        given = getattr(args, bound, None)
        if bound not in bounds:
            if given is not None:
                usage_error("%s does not read %s" % (name, flag))
        elif given is None:
            if bounds[bound] is REQUIRED:
                usage_error("%s required" % flag)
            setattr(b, bound, bounds[bound])
        elif kind is int and given < 0:
            usage_error("%s must be >= 0" % flag)
    if getattr(args, "points", 1) < 1:
        usage_error("--points must be >= 1")
    if args.max_instances < 0:
        usage_error("--max-instances must be >= 0")
    if getattr(b, "profile", None) is not None:
        try:
            cylindric.check_profile(b.profile)
        except AssertionError as e:
            usage_error(str(e))
    if args.out:
        check_out(args.out)
    return b


def check_out(path):
    """Refuse an --out target that cannot be written: a directory, a file in
    a missing directory, or one that is not writable.  Nothing is created."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    usage_error("cannot write %s: %s" % (path, os.strerror(code)))


def build_tasks(args, budget):
    bounds, tasks = COMMANDS[args.command]
    return tasks(resolve(args, bounds, args.command), budget)


def run_enumerate(args, budget):
    bounds, items, count = KINDS[args.kind]
    b = resolve(args, bounds, "enumerate --kind %s" % args.kind)
    budget.spend(count(b))
    return items(b)


# ---------------------------------------------------------------------------
# driver


def add_bounds(q, names):
    for bound, kind in BOUNDS.items():
        if bound in names:
            q.add_argument("--" + bound.replace("_", "-"), type=kind)


def build_parser():
    """One subcommand per table entry, with only the flags that entry reads."""
    p = argparse.ArgumentParser(prog="partition-forge")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (bounds, _) in COMMANDS.items():
        q = sub.add_parser(name)
        add_bounds(q, bounds)
        q.add_argument("--points", type=int, default=20)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--format", choices=("json", "csv"), default="json")
        q.add_argument("--perturb", action="store_true")
    q = sub.add_parser("enumerate")
    add_bounds(q, {bound for bounds, _, _ in KINDS.values() for bound in bounds})
    q.add_argument("--kind", choices=tuple(KINDS), default="partitions")
    for q in sub.choices.values():
        q.add_argument("--out", default=None)
        q.add_argument("--max-instances", type=int, default=10 ** 6)
    return p


def assemble_report(args, records):
    if args.perturb and records:
        first = records[0]
        lhs, rhs = Fraction(first["lhs"]) + 1, Fraction(first["rhs"])
        records = [record(first["degree"], lhs, rhs)] + records[1:]
    bounds = {}
    for field in ("max_weight", "qt_degree", "n", "points", "seed"):
        v = getattr(args, field, None)
        if v is not None:
            bounds[field.replace("_", "-")] = v
    return {
        "mode": args.command,
        "profile": getattr(args, "profile", None) or "",
        "bounds": bounds,
        "coefficients": records,
        "ok": all(r["match"] for r in records),
    }


def emit(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["degree", "lhs", "rhs", "match"])
    for r in report["coefficients"]:
        rows.writerow([r["degree"], r["lhs"], r["rhs"], str(r["match"]).lower()])
    rows.writerow(["ok", str(report["ok"]).lower()])
    return out.getvalue()


def write_out(text, path):
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        usage_error("cannot write %s: %s" % (path, e.strerror))


def main(argv=None):
    args = build_parser().parse_args(argv)
    budget = Budget(args.max_instances)
    try:
        return _run(args, budget)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2


def _run(args, budget):
    try:
        if args.command == "enumerate":
            items = run_enumerate(args, budget)
            write_out(json.dumps(items, indent=2, sort_keys=False) + "\n", args.out)
            return 0
        chunks = [fn() for _, fn in build_tasks(args, budget)]
    except (CapExceeded, AssertionError) as e:
        print("error: %s" % e, file=sys.stderr)
        # resolve() has turned every bad input into exit 2 before any work,
        # so a failed check past it is a broken invariant: a fault, exit 1
        return 2 if isinstance(e, CapExceeded) else 1
    records = [r for chunk in chunks for r in chunk]
    if not records:
        usage_error("nothing to compare at these bounds")
    report = assemble_report(args, records)
    write_out(emit(report, args.format), args.out)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
