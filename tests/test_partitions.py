from itertools import zip_longest

from hypothesis import given, strategies as st

from partition_forge import partitions as P
from path_model import partition_of_profile


def parts(max_len=6, max_part=8):
    return st.lists(
        st.integers(1, max_part), min_size=0, max_size=max_len
    ).map(lambda xs: tuple(sorted(xs, reverse=True)))


def test_minimal_profile_example():
    assert P.minimal_profile((5, 3, 3, 2)) == "110100110"


def test_framed_profile_example():
    assert P.profile((5, 3, 3, 2), 8, 8) == "0000110100110111"


def test_profile_arm_leg_example():
    p = P.minimal_profile((5, 3, 3, 2))
    # the box of the '1' at position 2 and the '0' at position 6 has one '1'
    # (arm) and two '0's (leg) strictly between them
    assert (p[2:5].count("1"), p[2:5].count("0")) == (1, 2)


def test_partition_of_profile_examples():
    assert partition_of_profile("110100110") == (5, 3, 3, 2)
    assert partition_of_profile("0000110100110111") == (5, 3, 3, 2)
    assert partition_of_profile("") == ()
    assert partition_of_profile("0011") == ()


def test_conjugate_small():
    assert P.conjugate((5, 3, 3, 2)) == (4, 4, 3, 1, 1)
    assert P.conjugate(()) == ()


@given(parts())
def test_profile_round_trip(la):
    assert partition_of_profile(P.minimal_profile(la)) == la


@given(parts())
def test_generalized_profile_round_trip(la):
    zeros = len(la) + 2
    ones = (la[0] if la else 0) + 3
    p = P.profile(la, zeros, ones)
    assert len(p) == zeros + ones
    assert partition_of_profile(p) == la


@given(parts())
def test_conjugate_involution(la):
    assert P.conjugate(P.conjugate(la)) == la


@given(parts())
def test_hook_is_arm_plus_leg(la):
    for s in P.cells(la):
        assert P.hook(la, s) == P.arm(la, s) + P.leg(la, s) + 1


def test_partition_counts():
    # p(0)..p(10)
    want = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [len(P.partitions_of(n)) for n in range(11)] == want


@given(parts(4, 5))
def test_hstrips_down(la):
    downs = P.hstrips_down(la)
    assert len(set(downs)) == len(downs)
    for mu in downs:
        assert P.is_horizontal_strip(la, mu)
    # every subdiagram that is a horizontal strip shows up
    for mu in P.partitions_upto(sum(la)):
        if P.is_horizontal_strip(la, mu):
            assert mu in downs


@given(parts(3, 4), st.integers(0, 3))
def test_hstrips_up(mu, extra):
    cap = sum(mu) + extra
    ups = P.hstrips_up(mu, cap)
    assert len(set(ups)) == len(ups)
    for la in ups:
        assert P.is_horizontal_strip(la, mu)
        assert sum(la) <= cap
    for la in P.partitions_upto(cap):
        if P.is_horizontal_strip(la, mu):
            assert la in ups



def strip_by_columns(la, mu):
    """la/mu is a horizontal strip by its definition: mu inside la, and no
    column of la longer than the same column of mu by more than one box."""
    if len(mu) > len(la) or any(a < b for a, b in zip(la, mu)):
        return False
    columns = zip_longest(P.conjugate(la), P.conjugate(mu), fillvalue=0)
    return all(a - b <= 1 for a, b in columns)


def test_strips_match_the_column_definition():
    # content and order of both strip tables, and the predicate on lists too
    small = P.partitions_upto(8)
    for la in small:
        for mu in small:
            want = strip_by_columns(la, mu)
            assert P.is_horizontal_strip(la, mu) == want, (la, mu)
            assert P.is_horizontal_strip(list(la), list(mu)) == want, (la, mu)
        downs = [mu for mu in P.partitions_upto(sum(la)) if strip_by_columns(la, mu)]
        assert list(P.hstrips_down(la)) == sorted(downs), la
        for cap in range(sum(la), sum(la) + 5):
            ups = [nu for nu in P.partitions_upto(cap) if strip_by_columns(nu, la)]
            assert list(P.hstrips_up(la, cap)) == sorted(ups), (la, cap)
