from hypothesis import given, settings, strategies as st

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
