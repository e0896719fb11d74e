"""Truncated multivariate power series with integer coefficients.

A series is a dict mapping exponent tuples to nonzero ints.  A product
truncated by total degree is expanded by product_by_degree.  The fold
(product, mul, binomial_factor) takes any truncation, driven by a `keep`
predicate on exponent tuples; every operation drops the terms for which it
returns False, so keep must be downward closed (keep(e) implies keep of
anything componentwise smaller).
"""

from itertools import chain
from math import comb


def accumulate(pairs):
    """Dict of key -> sum of the values paired with it, zero sums dropped."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def monomial(exps, coeff=1):
    return {tuple(exps): coeff} if coeff else {}


def one(nvars):
    return monomial((0,) * nvars)


def add(a, b):
    return accumulate(chain(a.items(), b.items()))


def mul(a, b, keep):
    # accumulate inlined: this is the hot loop
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if keep(e):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def binomial_factor(exps, power, keep):
    """(1 - x^exps)^power truncated; power may be negative."""
    exps = tuple(exps)
    if not any(exps):
        raise AssertionError("zero exponent %r" % (exps,))
    out = {}
    k = 0
    while True:
        e = tuple(k * x for x in exps)
        if k > 0 and not keep(e):
            break
        if power >= 0:
            if k > power:
                break
            c = (-1) ** k * comb(power, k)
        else:
            c = comb(k - power - 1, -power - 1)
        out[e] = c
        k += 1
    return out


def product(factors, nvars, keep):
    """prod (1 - x^exps)^power over the (exps, power) pairs, truncated by
    keep and multiplied in the order given."""
    out = one(nvars)
    for exps, power in factors:
        out = mul(out, binomial_factor(exps, power, keep), keep)
    return out


def product_by_degree(factors, nvars, cap):
    """prod (1 - x^exps)^power over the (exps, power) pairs, truncated at
    total degree <= cap, by the Euler recurrence rather than a fold.

    With F = sum_n F_n graded by total degree, the degree operator gives
    n F_n = sum_{m=1..n} G_m F_{n-m}, where G_m = -sum power * d * x^(k exps)
    over the factors of degree d and the k >= 1 with k d = m; the division
    by n is exact because every coefficient is an integer.  Each G_m and F_n
    is held as (key, coefficient) pairs, the key being the exponent vector
    packed in base cap + 1: no coordinate of a kept term exceeds cap, so
    multiplying monomials adds their keys and no digit carries.
    """
    base = cap + 1
    g = [{} for _ in range(cap + 1)]
    for exps, power in factors:
        if len(exps) != nvars:
            raise AssertionError("%r is not a vector of %d exponents" % (exps, nvars))
        if not any(exps):
            raise AssertionError("zero exponent %r" % (exps,))
        if min(exps) < 0:
            raise AssertionError("negative exponent in %r" % (exps,))
        d = sum(exps)
        key = 0
        for x in reversed(exps):
            key = key * base + x
        for k in range(1, cap // d + 1):
            gm = g[k * d]
            gm[k * key] = gm.get(k * key, 0) - power * d
    grades = [(m, tuple(gm.items())) for m, gm in enumerate(g) if gm]
    f = [((0, 1),)]
    for n in range(1, cap + 1):
        out = {}
        for m, gm in grades:
            if m > n:
                break
            fr = f[n - m]
            for kg, cg in gm:
                for kf, cf in fr:
                    out[kg + kf] = out.get(kg + kf, 0) + cg * cf
        f.append(tuple((k, c // n) for k, c in out.items() if c))
    out = {}
    for fn in f:
        for key, c in fn:
            exps = []
            for _ in range(nvars):
                key, x = divmod(key, base)
                exps.append(x)
            out[tuple(exps)] = c
    return out


def z_coefficients(factors, max_weight):
    """Coefficients of z^0..z^max_weight in prod (1 - z^h)^power over (h, power):
    the one-variable product_by_degree, listed."""
    f = product_by_degree([((h,), power) for h, power in factors], 1, max_weight)
    return [f.get((w,), 0) for w in range(max_weight + 1)]
