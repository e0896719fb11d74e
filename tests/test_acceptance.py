"""End-to-end acceptance checks at desk scale, with wall-clock budgets.

Every comparison is exact (integers and Fractions); a budget assert at the
end of each test keeps the whole suite honest about runtime.  Where a report
carries the comparison, the test runs the tasks the CLI declares for that
command and asserts the record count and that every record matches; the rest
call the library directly.
"""

import time

from partition_forge import asm as asmmod
from partition_forge import aztec
from partition_forge import cli
from partition_forge import cylindric
from partition_forge import lambdadet
from partition_forge import partitions
from partition_forge import qtseries
from pyramid_model import Laurent


def verified(argv, count):
    """Records of the CLI's own tasks for argv; there are count, and all match."""
    tasks = cli.build_tasks(cli.build_parser().parse_args(argv), cli.Budget(10 ** 6))
    records = [r for _, task in tasks for r in task()]
    assert len(records) == count, argv
    assert [r for r in records if not r["match"]] == [], argv
    return {r["degree"]: r for r in records}


def test_borodin_identity_desk_scale():
    start = time.time()
    # 62 profiles of length <= 5, weights 0..12
    verified(["verify-borodin"], (2 + 6 + 14 + 30 + 10) * 13)
    assert time.time() - start < 120


def test_borodin_identity_stretch_bound():
    start = time.time()
    # 584,704 CPPs of weight <= 28 over a profile of length 6
    verified(["verify-borodin", "--profile", "110100", "--max-weight", "28"], 29)
    assert time.time() - start < 10


def test_qt_borodin_desk_scale():
    start = time.time()
    # per mixed profile of length <= 4 at weight 8 and (q,t)-degree 8: every
    # (z, q, t) coefficient, then the t = q collapse against the CPP counts,
    # which fails if any q-term survives
    verified(["verify-qt-borodin"], 5260)
    assert time.time() - start < 300


def test_weight_simplification_desk_scale():
    start = time.time()
    for pi in cli.sweep(None, 5):
        for seq in cylindric.enumerate_cpps(pi, 8):
            assert qtseries.weight_alphabet_identity(pi, seq), (pi, seq)
    assert time.time() - start < 60


def test_bijection_desk_scale():
    start = time.time()
    # per profile of length <= 4 at weight 10: the round trip, then distinct
    # images and pair-side cardinality per weight class; then the refined
    # multiset per profile of length <= 3 at weight 6
    verified(["verify-bijection"], 22 * (1 + 2 * 11) + 8)
    assert time.time() - start < 180


def test_stanley_and_macmahon_desk_scale():
    start = time.time()
    # 67 shapes of size <= 8, weights 0..12 (one record for the empty shape),
    # then weight simplification over the 52 mixed profiles of length <= 5
    verified(["verify-stanley"], 66 * 13 + 1 + 52)
    verified(["verify-macmahon"], 9)
    # OEIS A000219
    assert cli._count_plane_partitions(12) == [
        1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479
    ]
    assert time.time() - start < 60


def test_correspondences_desk_scale():
    start = time.time()
    # robinson on S5, the involution count for n <= 6, the column rule for
    # |la| <= 8, Cauchy sums for 2x2 and 3x3 at totals 0..4
    verified(["verify-correspondences"], 1 + 6 + 1 + 2 * 5)
    for size in (2, 3):
        for total_sum in range(5):
            for r in cli.compositions(total_sum, size):
                for c in cli.compositions(total_sum, size):
                    lhs = len(cli.matrices_with_margins(r, c))
                    rhs = sum(
                        cli.ssyt_count(la, r) * cli.ssyt_count(la, c)
                        for la in partitions.partitions_of(total_sum)
                        if len(la) <= size
                    ) if total_sum else 1
                    assert lhs == rhs, (r, c)
    assert time.time() - start < 120


def test_asm_and_aztec_desk_scale():
    start = time.time()
    assert [asmmod.asm_count_formula(n) for n in range(6)] == [1, 1, 2, 7, 42, 429]
    # counts for n <= 5, properties for n <= 4
    verified(["verify-asm"], 6 + 4)
    # count, round trip and sign count for n <= 5
    aztec_records = verified(["verify-aztec"], 3 * 5)
    assert aztec_records["count:n=5"]["lhs"] == "32768"
    for n in range(1, 4):
        tilings = aztec.enumerate_tilings(n)
        pairs = set()
        for t in tilings:
            a, b = aztec.tiling_to_asms(n, t)
            pairs.add((a, b))
            assert aztec.asms_to_tiling(n, a, b) == t
        assert len(pairs) == len(tilings)
    for n in (4, 5):
        tilings = aztec.enumerate_tilings(n)
        for t in tilings[:: len(tilings) // 64]:
            a, b = aztec.tiling_to_asms(n, t)
            assert aztec.asms_to_tiling(n, a, b) == t
    assert time.time() - start < 180


def test_aztec_stretch_bound():
    start = time.time()
    # 2^36 tilings counted, 32 sampled by rank, ASM(9) 2-enumerated
    records = cli.check_aztec(8, cli.Budget(10 ** 12))
    assert len(records) == 3 * 8
    assert [r for r in records if not r["match"]] == []
    assert time.time() - start < 20


def test_lambda_determinant_desk_scale():
    start = time.time()
    # numeric for n = 2..4, symbolic and one-parameter for n = 2, 3,
    # determinant for n = 1..4
    verified(["verify-lambda-det", "--seed", "97"], 3 + 2 + 2 + 4)
    assert time.time() - start < 120


def robbins_rumsey_shifted(n, a, b):
    """The Robbins-Rumsey sum of size n with every x index shifted by (a, b)."""

    def shift(v):
        return ("x", v[1] + a, v[2] + b) if v[0] == "x" else v

    return Laurent(lambdadet.lp_rename(lambdadet.robbins_rumsey_symbolic(n), shift))


def test_robbins_rumsey_sum_satisfies_the_pyramid_recurrence():
    # With lam constant and mu = y = 1, entry (i, j) of level k of the
    # pyramid is the sum of size k on x shifted by (i, j), so the recurrence
    # RR(n) RR11(n-2) = RR(n-1) RR11(n-1) + lam RR01(n-1) RR10(n-1), checked
    # here without division, with RR(0) = 1 and RR(1) = x11 proves the
    # one-parameter pyramid equals the sum for every n <= 5.
    start = time.time()
    rr = robbins_rumsey_shifted
    lam = Laurent(lambdadet.lp_monomial({("l", 0, 0): 1}))
    assert rr(0, 0, 0) == {(): 1}
    assert rr(1, 0, 0) == lambdadet.lp_monomial({("x", 1, 1): 1})
    for n in range(2, 6):
        left = rr(n, 0, 0) * rr(n - 2, 1, 1)
        right = rr(n - 1, 0, 0) * rr(n - 1, 1, 1) + lam * rr(n - 1, 0, 1) * rr(n - 1, 1, 0)
        assert left == right, n
    assert time.time() - start < 30


def test_lambda_determinant_stretch_bound():
    start = time.time()
    # numeric for n = 2..5, symbolic and one-parameter for n = 2, 3,
    # determinant for n = 1..5
    verified(["verify-lambda-det", "--n", "5", "--seed", "3"], 4 + 2 + 2 + 5)
    assert time.time() - start < 10
