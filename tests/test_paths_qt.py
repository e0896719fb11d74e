import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from partition_forge import cylindric as Y
from partition_forge.cli import mixed_profiles, record, tally
from partition_forge import partitions as P
from partition_forge import paths as L
from partition_forge import qtseries as Q
from partition_forge import series
from path_model import classify_cubes, cpp_to_paths, paths_to_cpp

EXAMPLE_PI = "10100"
EXAMPLE_SEQ = (
    (3, 2, 2),
    (4, 3, 2, 1),
    (4, 3, 2),
    (6, 4, 3, 2),
    (5, 3, 2),
    (3, 2, 2),
)


def test_example_path_family():
    paths = cpp_to_paths(EXAMPLE_PI, EXAMPLE_SEQ)
    assert len(paths) == 7
    assert paths[0] == (2, "10101")
    assert paths[6] == (20, "11010")
    assert paths_to_cpp(EXAMPLE_PI, paths) == EXAMPLE_SEQ


def test_paths_round_trip_small():
    for pi in ["10", "110", "0101"]:
        for seq in Y.enumerate_cpps(pi, 5):
            paths = cpp_to_paths(pi, seq)
            assert paths_to_cpp(pi, paths) == seq


def test_no_cubes_for_empty():
    pi = "100"
    seq = ((), (), (), ())
    assert classify_cubes(pi, cpp_to_paths(pi, seq)) == []


def test_cube_bookkeeping():
    for pi in ["10", "110", "100"]:
        t = len(pi)
        for seq in Y.enumerate_cpps(pi, 6):
            cubes = classify_cubes(pi, cpp_to_paths(pi, seq))
            assert len(cubes) == Y.cpp_weight(seq)
            by_x = {}
            for c in cubes:
                by_x.setdefault(c["x"], []).append(c)
            for x in range(t):
                layer = seq[(t - x) % t]
                got = sorted((c["arm"], c["leg"]) for c in by_x.get(x, []))
                want = sorted(
                    (P.arm(layer, s), P.leg(layer, s)) for s in P.cells(layer)
                )
                assert got == want
                surf = [c for c in by_x.get(x, []) if c["surface"]]
                assert len(surf) == len(layer)


def test_dc_alphabet_fixtures():
    assert L.dc_alphabet("10", ((), (1,), ())) == {(0, 0): 1}
    assert L.dc_alphabet("10", ((), (2,), ())) == {(0, 0): 1, (1, 0): 1}
    assert L.dc_alphabet("10", ((1,), (1,), (1,))) == {}


# (profile, max weight): 6,923 CPPs, 474 distinct layer windows
ORACLE_CASES = [(pi, 8) for pi in mixed_profiles(5)] + [
    ("110100", 7),
    ("1001100", 7),
    ("0011", 8),
    ("1110", 8),
]


def _oracle_cpps():
    for pi, max_weight in ORACLE_CASES:
        for seq in Y.enumerate_cpps(pi, max_weight):
            yield pi, seq


def _dc_alphabet_from_paths(pi, seq):
    """The alphabet summed over the cubes of the whole path family."""
    cubes = classify_cubes(pi, cpp_to_paths(pi, seq))
    return series.accumulate(
        ((c["arm"], c["leg"]), int(c["peak"]) - int(c["valley"])) for c in cubes
    )


def _macdonald_pieri(letter, la, mu):
    """phi_{la/mu} on a '1' letter, psi_{la/mu} on a '0', as a factor product,
    by Macdonald, Symmetric Functions and Hall Polynomials, VI (6.24).

    With C the columns and R the rows that meet la - mu, phi is the product of
    b_la(s) / b_mu(s) over the boxes s in C, and psi the product of
    b_mu(s) / b_la(s) over the boxes s in R outside C, where b_nu(s) is
    (1 - q^a t^(l+1)) / (1 - q^(a+1) t^l) with the arm a and leg l of s in nu,
    and 1 for s outside nu.
    """
    strip = set(P.cells(la)) - set(P.cells(mu))
    cols = {j for _, j in strip}
    rows = {i for i, _ in strip}
    if letter == "1":
        num, den, inside = la, mu, lambda i, j: j in cols
    else:
        num, den, inside = mu, la, lambda i, j: i in rows and j not in cols
    pairs = []
    for shape, sign in ((num, 1), (den, -1)):
        for s in P.cells(shape):
            if inside(*s):
                a, l = P.arm(shape, s), P.leg(shape, s)
                pairs += [((a, l + 1), sign), ((a + 1, l), -sign)]
    return series.accumulate(pairs)


def _weight_by_factor_chain(pi, seq):
    """The weight as one Macdonald Pieri coefficient per step: phi of the
    strip a '1' step adds, psi of the strip a '0' step removes."""
    seq = Y.validate_cpp(pi, seq)
    out = {}
    for k, letter in enumerate(pi, 1):
        before, after = seq[k - 1], seq[k]
        la, mu = (after, before) if letter == "1" else (before, after)
        out = series.add(out, _macdonald_pieri(letter, la, mu))  # a product adds exponents
    return Q.fp_validate(out)


def test_pieri_step_is_macdonalds_phi_and_psi():
    count = 0
    for la in P.partitions_upto(9):
        for mu in P.hstrips_down(la):
            assert dict(Q._pieri_step("1", mu, la)) == _macdonald_pieri("1", la, mu), (la, mu)
            assert dict(Q._pieri_step("0", la, mu)) == _macdonald_pieri("0", la, mu), (la, mu)
            count += 1
    assert count == 734


def test_dc_alphabet_matches_the_path_model():
    count = 0
    for pi, seq in _oracle_cpps():
        assert L.dc_alphabet(pi, seq) == _dc_alphabet_from_paths(pi, seq), (pi, seq)
        count += 1
    assert count == 6923


def test_weight_function_matches_the_factor_chain():
    count = 0
    for pi, seq in _oracle_cpps():
        assert Q.weight_function(pi, seq) == _weight_by_factor_chain(pi, seq), (pi, seq)
        count += 1
    assert count == 6923


NOT_CPPS = [
    ("10", ((), (1,), (1,))),  # open: mu^T != mu^0
    ("10", ((), ())),  # open: one step short
    ("10", ((), (1, 1), ())),  # the '1' step puts two boxes in one column
    ("110", ((), (1,), (1, 1), ())),  # only the closing '0' step is no strip
]


@pytest.mark.parametrize("pi, seq", NOT_CPPS)
def test_weight_sides_reject_a_non_cpp(pi, seq):
    for side in (Q.weight_function, L.dc_alphabet):
        with pytest.raises(AssertionError):
            side(pi, seq)


def test_weight_sides_reject_a_non_cpp_under_python_O():
    code = """
from partition_forge.paths import dc_alphabet
from partition_forge.qtseries import weight_function
for pi, seq in %r:
    for side in (weight_function, dc_alphabet):
        try:
            side(pi, seq)
        except AssertionError:
            continue
        raise SystemExit("%%s accepted %%r" %% (side.__name__, (pi, seq)))
""" % (NOT_CPPS,)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pieri_phi_fixture():
    # phi of the strip la/mu on the step mu -> la, psi on the step la -> mu
    assert dict(Q._pieri_step("1", (), (1,))) == {(0, 1): 1, (1, 0): -1}
    assert Q._pieri_step("0", (1,), ()) == ()
    assert Q._pieri_step("1", (2,), (2,)) == ()
    assert Q._pieri_step("0", (2, 1), (2, 1)) == ()


NOT_STRIPS = [
    ((1, 1), ()),  # two boxes in one column
    ((2,), (1, 1)),  # mu not inside la
    ((1,), (2,)),  # the strip runs the wrong way
]


def test_pieri_rejects_a_non_strip():
    for la, mu in NOT_STRIPS:
        for step in (("1", mu, la), ("0", la, mu)):
            with pytest.raises(AssertionError):
                Q._pieri_step(*step)
    code = """
from partition_forge.qtseries import _pieri_step
for la, mu in %r:
    for step in (("1", mu, la), ("0", la, mu)):
        try:
            _pieri_step(*step)
        except AssertionError:
            continue
        raise SystemExit("_pieri_step accepted %%r" %% (step,))
""" % (NOT_STRIPS,)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_pieri_q_equals_t_trivial():
    # at q = t every coefficient is 1: the exponents of each power of q cancel
    for la in P.partitions_upto(5):
        for mu in P.hstrips_down(la):
            for step in (("1", mu, la), ("0", la, mu)):
                assert not series.accumulate((n + m, e) for (n, m), e in Q._pieri_step(*step))


def test_weight_function_collapses_at_q_equals_t():
    for pi in ["10", "110"]:
        for seq in Y.enumerate_cpps(pi, 4):
            w = Q.weight_function(pi, seq)
            assert not series.accumulate((n + m, e) for (n, m), e in w.items())
            # the plain fold, not fp_expand, then t folded into q
            expanded = series.accumulate(
                ((q + t, 0), c)
                for (q, t), c in series.product(w.items(), 2, lambda e: sum(e) <= 6).items()
            )
            assert all(sum(e) <= 6 for e in expanded)
            assert expanded == series.one(2)


def test_weight_alphabet_identity_small():
    for pi in ["10", "110", "100"]:
        for seq in Y.enumerate_cpps(pi, 5):
            assert Q.weight_alphabet_identity(pi, seq), (pi, seq)


def test_weight_sides_do_not_depend_on_where_the_cycle_starts():
    # what lets weight_simplification run once per necklace: turning the
    # profile one place turns every CPP with it and keeps both sides
    count = 0
    for t in range(1, 6):
        for bits in product("01", repeat=t):
            pi = "".join(bits)
            for seq in Y.enumerate_cpps(pi, 6):
                turned = seq[1:] + seq[1:2]
                for side in (Q.weight_function, L.dc_alphabet):
                    assert side(Y.rotate_profile(pi), turned) == side(pi, seq), (pi, seq)
                count += 1
    assert count == 2588


def test_weight_simplification_matches_the_plain_tally():
    for pi in mixed_profiles(5):
        want = tally("w", Y.enumerate_cpps(pi, 5), lambda seq: Q.weight_alphabet_identity(pi, seq))
        assert record("w", *Q.weight_simplification(pi, 5)) == want, pi


def test_hall_littlewood_specialization():
    for seq in Y.enumerate_cpps("110", 4):
        lhs = Q.weight_function("110", seq)
        rhs = Q.omega(Q.alphabet_q_minus_t(L.dc_alphabet("110", seq)))
        # q = 0: every factor with a positive q-exponent becomes 1
        assert {k: e for k, e in lhs.items() if k[0] == 0} == {
            k: e for k, e in rhs.items() if k[0] == 0
        }


def test_pochhammer_ratio_against_product():
    cap = 6
    keep = lambda e: e[0] <= cap and e[1] + e[2] <= cap
    want = series.one(3)
    for i in range(cap + 1):
        # (1 - t z q^i) / (1 - z q^i)
        num = series.add(series.one(3), series.monomial((1, i, 1), -1))
        want = series.mul(want, num, keep)
        want = series.mul(want, series.binomial_factor((1, i, 0), -1, keep), keep)
    got = {
        k: c
        for k, c in Q.pochhammer_ratio((1,), cap, cap).items()
        if keep(k)
    }
    want = {k: c for k, c in want.items() if k[1] + k[2] <= cap}
    assert got == want


def test_qt_borodin_small():
    for pi in ["10", "110"]:
        lhs = Q.qt_borodin_lhs(pi, 4, 4)
        rhs = Q.qt_borodin_rhs(pi, 4, 4)
        assert lhs == rhs, pi
        assert all(type(c) is int for c in list(lhs.values()) + list(rhs.values()))


def test_qt_collapse_matches_plain():
    pi = "100"
    lhs = Q.qt_borodin_lhs(pi, 4, 8)
    collapsed = Q.collapse_t_to_q(lhs)
    counts = Y.borodin_lhs(pi, 4)
    for w in range(5):
        assert collapsed.get((w, 0, 0), 0) == counts[w]
    # nothing but the constant term survives in q
    assert {k for k in collapsed if k[1] != 0} == set()


def _fold_weights(pi, max_weight, qt_cap, grade):
    # the plain left side: one expansion per CPP, by the fold rather than
    # fp_expand's recurrence
    keep = lambda e: sum(e) <= qt_cap
    return series.accumulate(
        (grade(seq) + qt, c)
        for seq in Y.enumerate_cpps(pi, max_weight)
        for qt, c in series.product(Q.weight_function(pi, seq).items(), 2, keep).items()
    )


def _refined_hook_side(pi, max_weight, qt_cap):
    # qt_borodin_rhs with z_1, ..., z_T kept apart: each factor is graded by
    # its hook vector instead of the hook length
    T = len(pi)
    keep = lambda e: sum(e[:T]) <= max_weight and e[T] + e[T + 1] <= qt_cap
    diagonal, boxes = Y.hook_vectors(pi, max_weight)
    total = series.product([(v + (0, 0), -1) for v in diagonal], T + 2, keep)
    for v in boxes:
        total = series.mul(total, Q.pochhammer_ratio(v, max_weight, qt_cap), keep)
    return total


def test_qt_refined_small():
    assert _fold_weights("10", 3, 4, Y.cpp_refined_weight) == _refined_hook_side("10", 3, 4)


def test_left_sides_are_the_per_cpp_fold():
    for pi in mixed_profiles(5):
        for W, D in ((6, 6), (5, 2)):
            want = _fold_weights(pi, W, D, lambda seq: (Y.cpp_weight(seq),))
            assert Q.qt_borodin_lhs(pi, W, D) == want, (pi, W, D)


def test_every_rotation_has_its_necklaces_left_side():
    for pi in mixed_profiles(5):
        own = dict(Q._necklace_weights.__wrapped__(pi, 6, 6))
        assert own == Q.qt_borodin_lhs(Y.necklace(pi), 6, 6), pi


def test_each_distinct_weight_is_expanded_once(monkeypatch):
    pi = "10100"
    seqs = Y.enumerate_cpps(pi, 8)
    distinct = {frozenset(Q.weight_function(pi, seq).items()) for seq in seqs}
    calls = []
    expand = Q.fp_expand
    monkeypatch.setattr(Q, "fp_expand", lambda a, cap: calls.append(a) or expand(a, cap))
    Q._necklace_weights.cache_clear()
    Q.qt_borodin_lhs(pi, 8, 8)
    assert len(calls) == len(distinct) < len(seqs)


def test_qt_refined_rhs_at_equal_z_is_qt_borodin_rhs():
    # setting every z_k = z in the refined hook side gives the unrefined one
    for pi in ["10", "110", "1100"]:
        T = len(pi)
        refined = _refined_hook_side(pi, 5, 3)
        at_z = series.accumulate(((sum(k[:T]),) + k[T:], c) for k, c in refined.items())
        assert at_z == Q.qt_borodin_rhs(pi, 5, 3), pi


def test_classify_cubes_rejects_intersecting_paths():
    with pytest.raises(AssertionError, match="intersecting paths"):
        classify_cubes("10", [(0, "10"), (0, "10")])
