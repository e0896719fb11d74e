import pytest
from hypothesis import example, given, settings, strategies as st

from partition_forge import series


def plain_fold(pairs, nvars, keep):
    out = series.one(nvars)
    for exps, power in pairs:
        out = series.mul(out, series.binomial_factor(exps, power, keep), keep)
    return out


@st.composite
def factor_pairs(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    return nvars, draw(st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=5))


KEEPS = {
    "degree_cap": series.degree_cap(6),
    "mixed": lambda e: e[0] <= 4 and sum(e[1:]) <= 3,
}


@settings(max_examples=80, deadline=None)
@given(factor_pairs(), st.sampled_from(sorted(KEEPS)))
def test_product_is_the_plain_fold_in_any_order(case, keep_name):
    nvars, pairs = case
    keep = KEEPS[keep_name]
    got = series.product(pairs, nvars, keep)
    assert got == plain_fold(pairs, nvars, keep)
    # keep is downward closed, so truncation commutes with the order
    assert got == series.product(pairs[::-1], nvars, keep)
    assert all(keep(e) and c for e, c in got.items())


def test_z_coefficients_counts_partitions():
    parts = series.z_coefficients([(k, -1) for k in range(1, 10)], 9)
    assert parts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    # (1 - z)^3 is a finite product, and higher factors leave it alone
    assert series.z_coefficients([(1, 3), (7, -2)], 5) == [1, -3, 3, -1, 0, 0]


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(-3, 3)), max_size=6),
    st.integers(0, 12),
)
@example([], 0)
@example([], 7)
@example([(6, -2), (5, 3)], 4)
def test_z_coefficients_is_the_plain_fold(pairs, max_weight):
    # the recurrence against the fold it replaced, with factors above the
    # weight and the empty product among the cases
    want = plain_fold([((h,), p) for h, p in pairs], 1, series.degree_cap(max_weight))
    got = series.z_coefficients(pairs, max_weight)
    assert got == [want.get((w,), 0) for w in range(max_weight + 1)]
    assert all(type(c) is int for c in got)


def test_z_coefficients_refuses_a_zero_exponent():
    for h in (0, -1):
        with pytest.raises(AssertionError):
            series.z_coefficients([(1, -1), (h, 2)], 5)
