from itertools import islice, product

import pytest

from partition_forge import cylindric as Y
from partition_forge import partitions as P
from partition_forge import series
from partition_forge.cli import mixed_profiles
from path_model import local_commutation_check

EXAMPLE_PI = "10100"
EXAMPLE_SEQ = (
    (3, 2, 2),
    (4, 3, 2, 1),
    (4, 3, 2),
    (6, 4, 3, 2),
    (5, 3, 2),
    (3, 2, 2),
)


def test_example_cpp():
    Y.validate_cpp(EXAMPLE_PI, EXAMPLE_SEQ)
    assert Y.cpp_weight(EXAMPLE_SEQ) == 51
    assert Y.cpp_refined_weight(EXAMPLE_SEQ) == (10, 9, 15, 10, 7)


def test_enumerate_cpps_small():
    # profile "10": pairs mu0 <= mu1 by horizontal strips; weights count like
    # ordinary partitions
    counts = Y.borodin_lhs("10", 8)
    assert counts == [len(P.partitions_of(n)) for n in range(9)]


def test_enumerate_cpps_pure():
    # pure profiles force constant sequences
    for pi in ["1", "11", "000"]:
        cpps = Y.enumerate_cpps(pi, 6)
        for seq in cpps:
            assert all(mu == seq[0] for mu in seq)
        t = len(pi)
        want = sum(1 for mu in P.partitions_upto(6 // t) if t * sum(mu) <= 6)
        assert len(cpps) == want


def _listed_counts(pi, max_weight, base=None):
    counts = [0] * (max_weight + 1)
    for seq in Y.enumerate_cpps(pi, max_weight):
        if base is None or seq[0] == base:
            counts[Y.cpp_weight(seq)] += 1
    return counts


def test_next_shapes_is_the_strip_rule_under_the_room():
    # against the definition: every partition of size <= room whose step from
    # mu is a horizontal strip in the letter's direction, each listed once
    for mu in P.partitions_upto(6):
        for letter in "01":
            for room in range(9):
                got = Y.next_shapes(letter, mu, room)
                want = [
                    la for la in P.partitions_upto(room)
                    if P.is_horizontal_strip(*Y.step_strip(letter, mu, la))
                ]
                assert sorted(got) == sorted(want) and len(set(got)) == len(got), (letter, mu, room)


def test_transfer_matrix_counts_match_listing():
    # the transfer-matrix count against the tally of the listed CPPs, on every
    # profile up to length 6: pure ones, and mixed ones the count is cut open
    # at a valley of, whichever letter they start with
    for t in range(1, 7):
        for bits in product("01", repeat=t):
            pi = "".join(bits)
            assert Y.borodin_lhs(pi, 10) == _listed_counts(pi, 10), pi
    # the shapes verify-stanley checks; the empty one has no profile
    for shape in P.partitions_upto(5)[1:]:
        pi = P.minimal_profile(shape)
        assert Y.borodin_lhs(pi, 8, ()) == _listed_counts(pi, 8, ()), shape
    # a given base pins mu^0 in the caller's orientation, also on a profile
    # that starts with '0'
    for pi in ("0110", "01010", "0011"):
        for base in ((), (1,), (2, 1)):
            assert Y.borodin_lhs(pi, 12, base) == _listed_counts(pi, 12, base), (pi, base)


def test_counts_do_not_depend_on_where_the_cycle_starts():
    for pi in ("10100", "01010", "110100", "0011", "111000"):
        want = Y.borodin_lhs(pi, 12)
        for k in range(1, len(pi)):
            assert Y.borodin_lhs(pi[k:] + pi[:k], 12) == want, (pi, k)


def test_cut_skips_the_heavy_bases():
    # cut at a valley, only the bases of weight <= 20 // 3 start a walk (283
    # entries); a walk from every base of weight <= 20 on the uncut profile,
    # which starts with a step down, fills 2,714
    # a warm walk memo would answer without walking at all
    Y._closed_walks.cache_clear()
    P.hstrips_down.cache_clear()
    P.hstrips_up.cache_clear()
    Y.borodin_lhs("01010", 20)
    assert P.hstrips_down.cache_info().currsize <= 300


def test_necklace_is_the_greatest_rotation():
    assert Y.necklace("01010") == "10100"
    assert Y.necklace("0011") == "1100"
    assert Y.necklace("000") == "000"
    for t in range(1, 7):
        for bits in product("01", repeat=t):
            pi = "".join(bits)
            turns = {pi[k:] + pi[:k] for k in range(t)}
            assert Y.necklace(pi) == max(turns) and Y.necklace(Y.rotate_profile(pi)) == max(turns)
            if "0" in pi and "1" in pi:
                assert Y.necklace(pi)[0] + Y.necklace(pi)[-1] == "10", pi


def test_a_cached_count_never_answers_a_pinned_one():
    # each count is one cached walk, keyed by the profile walked, W and the
    # bases, so no key answers for a different walk
    Y._closed_walks.cache_clear()
    Y.borodin_lhs("0110", 12)
    assert Y._closed_walks.cache_info().currsize == 1
    assert Y.borodin_lhs("0110", 12, (1,)) == _listed_counts("0110", 12, (1,))
    assert Y.borodin_lhs("0011", 12, ()) == _listed_counts("0011", 12, ())
    # a pinned count is shared with the reverse complement, never a rotation
    for pi, base in (("0110", (1,)), ("110100", ()), ("110100", (2, 1)), ("10", (1,))):
        rc, _ = _reverse_complement(pi, ())
        for profile in (pi, rc):
            assert Y.borodin_lhs(profile, 10, base) == _listed_counts(profile, 10, base), (profile, base)
    # on 10 below weight 2 the walk of the necklace and the walk pinned at ()
    # are one walk: 10 is its own valley cut and reverse complement, and ()
    # is its one base of weight <= W // 2
    for W, order in product((0, 1), ([None, ()], [(), None])):
        Y._closed_walks.cache_clear()
        want = _listed_counts("10", W)
        assert want == _listed_counts("10", W, ())
        assert [Y.borodin_lhs("10", W, base) for base in order] == [want, want]
        assert Y._closed_walks.cache_info().currsize == 1


def test_the_count_is_the_sum_of_the_pinned_counts():
    # beyond the listing's reach: the count walked from the light bases of
    # the valley cut against the pinned counts of every base of weight <= W,
    # which skip no base and cut nothing
    for pi, W in (("10", 24), ("1100", 24), ("10100", 24), ("110100", 22)):
        total = [0] * (W + 1)
        for base in P.partitions_upto(W):
            for w, n in enumerate(Y.borodin_lhs(pi, W, base)):
                total[w] += n
        assert Y.borodin_lhs(pi, W) == total, pi


def _reverse_complement(pi, seq):
    flip = {"0": "1", "1": "0"}
    return "".join(flip[c] for c in reversed(pi)), seq[::-1]


def test_reverse_complement_is_a_bijection_on_cpps():
    # read backwards, each '1' step up becomes a '0' step down and the other
    # way round; mu^0 = mu^T stays the base and the weight is the same sum
    for t in range(1, 6):
        for bits in product("01", repeat=t):
            pi = "".join(bits)
            cpps = Y.enumerate_cpps(pi, 8)
            images = set()
            for seq in cpps:
                rc, image = _reverse_complement(pi, seq)
                assert image[0] == seq[0] and Y.cpp_weight(image) == Y.cpp_weight(seq)
                images.add(image)
            assert images == set(Y.enumerate_cpps(rc, 8)) and len(images) == len(cpps), pi


def test_borodin_identity_small():
    for pi in ["10", "110", "100", "010"]:
        assert Y.borodin_lhs(pi, 7) == Y.borodin_rhs(pi, 7)


def test_borodin_identity_pure():
    for pi in ["11", "111"]:
        assert Y.borodin_lhs(pi, 7) == Y.borodin_rhs(pi, 7)


def test_borodin_refined_small():
    for pi in ["10", "110"]:
        lhs = Y.borodin_refined_lhs(pi, 5)
        rhs = Y.borodin_refined_rhs(pi, 5)
        keys = {e for e in rhs if sum(e) <= 5} | set(lhs)
        for e in keys:
            assert lhs.get(e, 0) == rhs.get(e, 0), (pi, e)
        assert all(type(c) is int for c in rhs.values())


def test_box_validity_and_hooks():
    pi = "10"
    assert Y.is_valid_box(pi, (1, 2, 0))
    assert not Y.is_valid_box(pi, (2, 1, 0))
    assert Y.is_valid_box(pi, (1, 2, 1))
    assert Y.box_hook(pi, (1, 2, 1)) == 3
    assert sorted(sum(v) for v in Y.hook_vectors(pi, 7)[1]) == [1, 3, 5, 7]


def test_alcd_stats():
    pi = "10100"
    labels = {(1, 2, 0): 2, (3, 5, 0): 1, (1, 4, 1): 3}
    Y.validate_alcd(pi, labels)
    assert Y.alcd_weight(pi, labels) == 2 * 1 + 1 * 2 + 3 * 8


def test_enumerate_alcds_lists_each_diagram_once_by_the_hook_product():
    # a diagram is a label m >= 0 on each box, weighing m * hook: by weight
    # the listing counts prod_boxes 1/(1 - z^hook), the count that
    # enumerate --kind alcds charges
    W = 8
    for pi in mixed_profiles(4):
        alcds = Y.enumerate_alcds(pi, W)
        assert len({tuple(sorted(a.items())) for a in alcds}) == len(alcds), pi
        counts = [0] * (W + 1)
        for labels in alcds:
            assert Y.validate_alcd(pi, labels) == labels
            counts[Y.alcd_weight(pi, labels)] += 1
        hooks = [(Y.box_hook(pi, box), -1) for box in Y.cylindric_boxes(pi, W)]
        assert counts == series.z_coefficients(hooks, W), pi


def test_phi_tiny():
    gamma, labels = Y.phi("10", ((), (1,), ()))
    assert gamma == ()
    assert labels == {(1, 2, 0): 1}
    assert Y.psi("10", (), {(1, 2, 0): 1}) == ((), (1,), ())


def test_phi_example():
    gamma, labels = Y.phi(EXAMPLE_PI, EXAMPLE_SEQ)
    assert gamma == (3, 2)
    assert labels == {(1, 2, 0): 1, (1, 5, 0): 1, (1, 5, 1): 1, (3, 4, 0): 5, (3, 5, 1): 1}
    assert Y.psi(EXAMPLE_PI, gamma, labels) == EXAMPLE_SEQ


# phi and psi each stop after (weight + T + 2)(2T + 2) + 10 steps: at T = 5,
# 706 for the example CPP of weight 51 and 406 for its diagram of weight 26


def test_phi_gives_up_after_its_step_limit(monkeypatch):
    # with no column deleted, rotations keep the example's distinct shapes,
    # so the sequence never becomes constant
    monkeypatch.setattr(Y, "down_step", lambda seq, i: (0, seq))
    with pytest.raises(AssertionError, match=r"^no end after 706 steps$"):
        Y.phi(EXAMPLE_PI, EXAMPLE_SEQ)


def test_psi_gives_up_after_its_step_limit(monkeypatch):
    # a schedule that only rotates never reaches a labelled box
    def rotate_forever(pi):
        while True:
            yield None, None

    gamma, labels = Y.phi(EXAMPLE_PI, EXAMPLE_SEQ)
    assert Y.alcd_weight(EXAMPLE_PI, labels) == 26
    monkeypatch.setattr(Y, "sort_steps", rotate_forever)
    with pytest.raises(AssertionError, match=r"^no end after 406 steps$"):
        Y.psi(EXAMPLE_PI, gamma, labels)


def test_sort_steps_visit_each_box_once():
    # every box of the diagram is labelled by exactly one deletion
    for pi in mixed_profiles(6):
        steps = islice(Y.sort_steps(pi), 400)
        boxes = [box for i, box in steps if i is not None]
        assert len(set(boxes)) == len(boxes), pi
        assert set(Y.cylindric_boxes(pi, 3 * len(pi))) <= set(boxes), pi


def test_phi_psi_round_trip_small():
    for pi in ["10", "01", "110", "100"]:
        for seq in Y.enumerate_cpps(pi, 5):
            gamma, labels = Y.phi(pi, seq)
            w = Y.cpp_weight(seq)
            assert w == len(pi) * sum(gamma) + Y.alcd_weight(pi, labels)
            assert Y.psi(pi, gamma, labels) == seq


def test_psi_phi_round_trip_small():
    for pi in mixed_profiles(4):
        t = len(pi)
        for labels in Y.enumerate_alcds(pi, 4):
            for gamma in P.partitions_upto(2):
                seq = Y.psi(pi, gamma, labels)
                assert Y.cpp_weight(seq) == t * sum(gamma) + Y.alcd_weight(pi, labels)
                g2, l2 = Y.phi(pi, seq)
                assert (g2, l2) == (gamma, labels)


def test_diag_weights():
    for pi in ["10", "110", "100"]:
        t = len(pi)
        for seq in Y.enumerate_cpps(pi, 5):
            gamma, labels = Y.phi(pi, seq)
            diags = Y.alcd_refined_weight(pi, labels)
            assert sum(diags) == Y.alcd_weight(pi, labels)
            for k in range(1, t + 1):
                assert sum(seq[k]) == sum(gamma) + diags[k - 1], (pi, seq, k)


def test_refined_bijection_multiset():
    # multiset of refined weights matches on both sides of the bijection
    pi = "100"
    lhs = sorted(Y.cpp_refined_weight(s) for s in Y.enumerate_cpps(pi, 5))
    rhs = []
    for labels in Y.enumerate_alcds(pi, 5):
        for gamma in P.partitions_upto((5 - Y.alcd_weight(pi, labels)) // 3):
            vec = tuple(sum(gamma) + w for w in Y.alcd_refined_weight(pi, labels))
            if sum(vec) <= 5:
                rhs.append(vec)
    assert lhs == sorted(rhs)


def test_local_commutation():
    pi = "0101"
    for seq in Y.enumerate_cpps(pi, 3):
        for mi in range(3):
            for mj in range(3):
                local_commutation_check(pi, seq, 1, 3, mi, mj)


def test_up_step_inverts_down_step():
    # at both linear peaks of the example; each deletion leaves a CPP over
    # the profile with that peak turned into a valley
    for i in (1, 3):
        m, seq = Y.down_step(EXAMPLE_SEQ, i)
        Y.validate_cpp(EXAMPLE_PI[: i - 1] + "01" + EXAMPLE_PI[i + 1 :], seq)
        assert Y.up_step(seq, i, m) == EXAMPLE_SEQ


def test_invalid_cpp_rejected():
    with pytest.raises(AssertionError):
        Y.validate_cpp("10", ((), (1,), (1,)))
    with pytest.raises(AssertionError):
        Y.validate_alcd("10", {(2, 1, 0): 1})
