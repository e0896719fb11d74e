"""The per-process memos agree with the plain functions they wrap."""

import json
import subprocess
import sys

from partition_forge import aztec as Z
from partition_forge import cli
from partition_forge import cylindric as Y
from partition_forge import partitions as P
from partition_forge import paths as L
from partition_forge import qtseries as Q

CACHES = (
    P.hstrips_down,
    P.hstrips_up,
    P.partitions_upto,
    Q._pieri_step,
    L._layer_alphabet,
    Y._closed_walks,
    Q._necklace_tally,
    Q._necklace_weights,
    Z._counter,
)


def test_strip_tables_match_their_plain_functions():
    for n in range(9):
        want = P.partitions_upto.__wrapped__(n)
        assert type(want) is tuple
        for _ in range(2):  # the first call may fill the cache, the second reads it
            assert P.partitions_upto(n) == want
    for la in P.partitions_upto(6):
        want = P.hstrips_down.__wrapped__(la)
        assert type(want) is tuple
        for _ in range(2):
            assert P.hstrips_down(la) == want
        for cap in range(sum(la), 9):
            want = P.hstrips_up.__wrapped__(la, cap)
            assert type(want) is tuple
            for _ in range(2):
                assert P.hstrips_up(la, cap) == want


def test_step_and_layer_tables_match_their_plain_functions():
    for pi in ("10", "110", "0101", "10100"):
        T = len(pi)
        for seq in Y.enumerate_cpps(pi, 6):
            for k in range(1, T + 1):
                step = (pi[k - 1], seq[k - 1], seq[k])
                layer = (pi[k - 1], pi[k % T], seq[k - 1], seq[k], seq[k % T + 1])
                for table, args in ((Q._pieri_step, step), (L._layer_alphabet, layer)):
                    want = table.__wrapped__(*args)
                    assert type(want) is tuple
                    for _ in range(2):
                        assert table(*args) == want


def test_cold_and_warm_runs_agree():
    runs = [
        lambda: [
            r
            for pi in cli.mixed_profiles(4)
            for r in cli.check_weight_simplification(pi, 5, cli.Budget(10**6))
        ],
        lambda: [Y.borodin_lhs(pi, 9) for pi in ("10", "110", "0101", "10100")],
        lambda: Y.borodin_lhs("110100", 8, (1,)),
        lambda: [Q.qt_borodin_lhs(pi, 5, 4) for pi in ("10", "0101", "1010")],
    ]
    for run in runs:
        for f in CACHES:
            f.cache_clear()
        cold = run()
        hits = sum(f.cache_info().hits for f in CACHES)
        assert run() == cold
        assert sum(f.cache_info().hits for f in CACHES) > hits


def test_cached_values_cannot_be_changed_by_a_caller():
    la, mu = (3, 1), (2,)
    for step in (("1", mu, la), ("0", la, mu)):
        got = Q._pieri_step(*step)
        assert got and type(got) is tuple and all(type(p) is tuple for p in got)
    for table in (P.hstrips_down(la), P.hstrips_up(mu, 4), P.partitions_upto(4)):
        assert type(table) is tuple and all(type(p) is tuple for p in table)
    # each count is a fresh list, also for another rotation of one necklace
    got = Y.borodin_lhs("0110", 9)
    want = list(got)
    got[0] = 99
    got.append(1)
    assert Y.borodin_lhs("0110", 9) == want
    assert Y.borodin_lhs("1100", 9) == want
    # and so is each (q, t) left side
    got = Q.qt_borodin_lhs("0110", 5, 4)
    want = dict(got)
    got[0, 0, 0] = 99
    got[9, 9, 9] = 1
    assert Q.qt_borodin_lhs("0110", 5, 4) == want
    assert Q.qt_borodin_lhs("1100", 5, 4) == want


def test_one_count_and_one_tally_per_necklace():
    # cold, the default sweep counts its 62 profiles as 23 necklaces, the
    # weight check tallies its 52 mixed profiles as 13 (and counts them as
    # 13), and the (q, t) sweep expands the left sides of its 22 profiles as
    # 7; every count is one walk of _closed_walks
    def run(argv):
        for f in CACHES:
            f.cache_clear()
        args = cli.build_parser().parse_args(argv)
        return [r for _, fn in cli.build_tasks(args, cli.Budget(10**6)) for r in fn()]

    def walks():
        info = Y._closed_walks.cache_info()
        assert info.misses == info.currsize
        return info.misses

    records = run(["verify-borodin", "--max-weight", "6"])
    assert len(records) == 62 * 7
    assert walks() == 23
    records = run(["verify-stanley", "--n", "0", "--max-weight", "6"])
    assert len(records) == 1 + 52
    tallies = Q._necklace_tally.cache_info()
    assert tallies.misses == tallies.currsize == 13
    assert walks() == 13
    records = run(["verify-qt-borodin", "--max-weight", "4", "--qt-degree", "4"])
    assert len({r["degree"].partition(":")[0] for r in records}) == 22
    sides = Q._necklace_weights.cache_info()
    assert sides.misses == sides.currsize == 7
    assert walks() == 7
    # the 66 shapes of size 1..8 count 37 pinned profiles: a shape and its
    # conjugate share one, by reading the CPPs backwards; the weight check
    # walks its 13 necklaces besides
    records = run(["verify-stanley", "--n", "8", "--max-weight", "6"])
    assert len({r["degree"].partition(":")[0] for r in records if r["degree"][0] == "("}) == 67
    assert walks() == 37 + 13
    run(["verify-bijection"])
    assert walks() == 10


def test_nothing_is_cached_at_import():
    code = """
import json, sys
import partition_forge.cli as cli
cli.build_parser()
sizes = {}
for name, mod in sorted(sys.modules.items()):
    if name.startswith("partition_forge"):
        for value in vars(mod).values():
            if hasattr(value, "cache_info"):
                key = "%s.%s" % (value.__module__, value.__qualname__)
                sizes[key] = value.cache_info().currsize
print(json.dumps(sizes))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    # every memo the package holds is one of CACHES, so each is tested above
    assert set(sizes) == {"%s.%s" % (f.__module__, f.__qualname__) for f in CACHES}
    assert sizes == dict.fromkeys(sizes, 0)
