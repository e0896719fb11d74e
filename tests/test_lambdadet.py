import random
from fractions import Fraction

import pytest

from partition_forge import lambdadet as D
from partition_forge.lambdadet import (
    lp_add,
    lp_eval,
    lp_monomial,
    lp_mul,
    lp_rename,
    shifted,
)
from pyramid_model import Laurent, corollary_symbolic, symbolic_pyramid


def identity(v):
    return v


def test_laurent_arithmetic():
    a = lp_monomial({("l", 1, 1): 2}, 3)
    b = lp_monomial({("l", 1, 1): -2}, Fraction(1, 3))
    assert lp_mul(a, b) == {(): 1}
    assert lp_add(a, lp_monomial({("l", 1, 1): 2}, -3)) == {}
    assert Laurent(a) + b == lp_add(a, b)
    assert Laurent(a) * b == {(): 1}
    unit = lp_monomial({("l", 1, 1): 2, ("x", 1, 2): -1})
    assert Laurent(a) / unit == lp_monomial({("x", 1, 2): 1}, 3)
    assert Laurent(a) / unit * unit == a
    assert Laurent(a) / {(): 1} == a


def test_laurent_divides_only_by_a_monic_monomial():
    a = Laurent(lp_monomial({("x", 1, 1): 1}))
    for divisor in (
        {},
        {(): 2},
        lp_monomial({("x", 1, 1): 1}, -1),
        lp_monomial({("x", 1, 1): 1}, Fraction(1, 2)),
        lp_add(lp_monomial({("x", 1, 1): 1}), lp_monomial({("y", 1, 1): 1})),
    ):
        with pytest.raises(AssertionError):
            a / divisor


def test_rename_merges_drops_and_cancels():
    a, b, c = ("a", 1, 1), ("b", 1, 1), ("c", 1, 1)
    poly = lp_add(
        lp_monomial({a: 2, b: 3, c: 1}, 5),
        lp_add(lp_monomial({a: 1, c: 4}), lp_monomial({b: 1}, -1)),
    )
    # b becomes a and c becomes 1: 5 a^2 b^3 c becomes 5 a^5, and a c^4
    # cancels -b
    merged = {a: a, b: a}
    assert lp_rename(poly, merged.get) == lp_monomial({a: 5}, 5)
    assert lp_rename(poly, identity) == poly
    assert lp_rename(lp_monomial({c: 3}, 7), merged.get) == {(): 7}


def test_eval_matches_a_fraction_product_per_variable():
    rng = random.Random(5)
    names = [("v", i, 1) for i in range(4)]

    def value():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))

    for _ in range(60):
        poly = {}
        for _ in range(rng.randint(0, 6)):
            exps = {v: rng.randint(-4, 4) for v in rng.sample(names, rng.randint(0, 4))}
            coeff = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
            poly = lp_add(poly, lp_monomial(exps, coeff))
        point = {v: value() for v in names}
        oracle = Fraction(0)
        for k, c in poly.items():
            for v, e in k:
                c = c * point[v] ** e
            oracle += c
        assert lp_eval(poly, point) == oracle
    assert lp_eval(lp_monomial({names[0]: -2}, 3), {names[0]: Fraction(-2, 5)}) == Fraction(75, 4)
    with pytest.raises(ZeroDivisionError):
        lp_eval(lp_monomial({names[0]: -1}), {names[0]: 0})


def test_base_case_two_terms():
    # the 2 by 2 apex is (mu X11 X22 + lam X12 X21) / Y22
    n = 2
    levels = symbolic_pyramid(n)
    num = lp_add(
        lp_monomial({("m", 1, 1): 1, ("x", 1, 1): 1, ("x", 2, 2): 1}),
        lp_monomial({("l", 1, 1): 1, ("x", 1, 2): 1, ("x", 2, 1): 1}),
    )
    assert levels[2][0][0] == lp_mul(num, lp_monomial({("y", 2, 2): -1}))


def closed_forms(n):
    return [D.closed_form_symbolic(n, k) for k in range(1, n + 1)]


def test_closed_form_matches_recurrence_symbolically():
    # entry (i, j) of level k is the apex form renamed by shifted(., i - 1,
    # j - 1); the recurrence that condenses checks at the apex is this one
    # renamed, so it holds at every entry
    for n in (2, 3):
        levels = symbolic_pyramid(n)
        forms = [lp_monomial({("y", 1, 1): 1})] + closed_forms(n)
        for k, level in enumerate(levels):
            for i, row in enumerate(level, 1):
                for j, entry in enumerate(row, 1):
                    assert entry == shifted(forms[k], i - 1, j - 1), (n, k, i, j)
        apex = symbolic_pyramid(n, D.one_parameter)[n][0][0]
        assert apex == D.robbins_rumsey_symbolic(n)
    # the apex of n = 4 divides by an entry of level 2, a sum of two monomials
    with pytest.raises(AssertionError):
        symbolic_pyramid(4, D.one_parameter)


def test_closed_forms_condense_at_every_level():
    # levels 0 and 1 fix the pyramid, so this proves every closed form up
    # to n = 5 with no division
    for n in range(2, 6):
        forms = closed_forms(n)
        for k in range(1, n + 1):
            assert D.condenses(n, k, forms), (n, k)


def test_a_wrong_form_does_not_condense():
    for n in (3, 4):
        forms = closed_forms(n)
        for key in forms[2]:
            dropped = {kk: c for kk, c in forms[2].items() if kk != key}
            wrong = forms[:2] + [dropped] + forms[3:]
            assert not all(D.condenses(n, k, wrong) for k in range(1, n + 1)), (n, key)
        x11 = forms[0]
        for first in (
            lp_monomial({("x", 1, 2): 1}),
            lp_monomial({("x", 1, 1): 1}, 2),
            lp_add(x11, lp_monomial({("y", 1, 1): 1})),
        ):
            wrong = [first] + forms[1:]
            assert not D.condenses(n, 1, wrong), (n, first)
            # the level above reads level 1 too
            assert not D.condenses(n, 2, wrong), (n, first)


def test_term_count_is_boolean_lattice_sum():
    # one monomial per pair (B, A), each its own: sum over B of 2^(number of
    # -1 entries) monomials, all with coefficient 1
    from partition_forge import asm as A

    for n in (3, 4):
        for k in range(1, n + 1):
            want = sum(
                2 ** sum(1 for row in b for v in row if v == -1)
                for b in A.enumerate_asms(k)
            )
            form = D.closed_form_symbolic(n, k)
            assert len(form) == want and set(form.values()) == {1}


def random_matrix(rng, n):
    def rnd():
        v = 0
        while v == 0:
            v = rng.randint(-9, 9)
        return Fraction(v)

    return [[rnd() for _ in range(n)] for _ in range(n)]


def test_closed_form_matches_recurrence_numerically():
    rng = random.Random(20260823)
    for n in (2, 3, 4):
        ok = 0
        while ok < 20:
            lam = random_matrix(rng, n)
            mu = random_matrix(rng, n)
            x = random_matrix(rng, n)
            y = random_matrix(rng, n + 1)
            try:
                levels = D.pyramid(n, lam, mu, x, y)
            except (ZeroDivisionError, AssertionError):
                continue  # degenerate point, resample
            for k in range(1, n + 1):
                assert levels[k][0][0] == D.closed_form_value(
                    D.closed_form_symbolic(n, k), lam, mu, x, y
                ), (n, k)
            ok += 1


def unit_base(v):
    return None if v[0] == "y" else v


def test_corollary_with_unit_base():
    for n in (2, 3):
        apex = symbolic_pyramid(n, unit_base)[n][0][0]
        assert apex == corollary_symbolic(n, identity)


def test_corollary_is_the_closed_form_at_unit_base():
    for n in (1, 2, 3, 4):
        assert lp_rename(D.closed_form_symbolic(n, n), unit_base) == corollary_symbolic(n, identity)


def test_robbins_rumsey_sum_is_the_renamed_corollary():
    # the stated sum against the unit-base corollary under one_parameter,
    # whose (mu + lam) factors become (1 + lam) and whose dual inversions drop
    for n in range(6):
        want = lp_rename(corollary_symbolic(n, identity), D.one_parameter)
        assert D.robbins_rumsey_symbolic(n) == want, n


def test_one_parameter_specialization():
    rng = random.Random(5)
    for n in (2, 3, 4):
        lv = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        m = random_matrix(rng, n)
        lam = [[lv] * n for _ in range(n)]
        mu = [[Fraction(1)] * n for _ in range(n)]
        y = [[Fraction(1)] * (n + 1) for _ in range(n + 1)]
        apex = D.pyramid(n, lam, mu, m, y)[n][0][0]
        point = {("x", i, j): v for i, row in enumerate(m, 1) for j, v in enumerate(row, 1)}
        point[("l", 0, 0)] = lv
        assert apex == lp_eval(D.robbins_rumsey_symbolic(n), point)
        assert apex == lp_eval(corollary_symbolic(n, identity), D._point(lam, mu, m))


def test_determinant_specialization():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        m = random_matrix(rng, n)
        assert D.lambda_determinant(n, m) == D.det_cofactor(m)
    # 2x2 sanity
    assert D.det_cofactor([[1, 2], [3, 4]]) == -2


def test_zero_denominator_raises():
    y = [[Fraction(1)] * 3 for _ in range(3)]
    y[1][1] = Fraction(0)
    m = [[Fraction(1)] * 2 for _ in range(2)]
    with pytest.raises(ZeroDivisionError):
        D.pyramid(2, m, m, m, y)
