"""Truncated multivariate power series with integer coefficients.

A series is a dict mapping exponent tuples to nonzero ints.  Truncation
is driven by a `keep` predicate on exponent tuples; every operation drops the
terms for which it returns False, so keep must be downward closed
(keep(e) implies keep of anything componentwise smaller).
"""

from itertools import chain
from math import comb


def accumulate(pairs):
    """Dict of key -> sum of the values paired with it, zero sums dropped."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def degree_cap(cap):
    """keep predicate: total degree <= cap."""

    def keep(exps):
        return sum(exps) <= cap

    return keep


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


def z_coefficients(factors, max_weight):
    """Coefficients of z^0..z^max_weight in prod (1 - z^h)^power over (h, power).

    By the Euler recurrence rather than a fold: z f'/f = sum_m g_m z^m with
    g_m = -sum_{h | m} power * h, so n f_n = sum_{m=1..n} g_m f_{n-m}, and the
    division by n is exact because every f_n is an integer.
    """
    g = [0] * (max_weight + 1)
    for h, power in factors:
        if h < 1:
            raise AssertionError("exponent %r < 1" % (h,))
        for m in range(h, max_weight + 1, h):
            g[m] -= power * h
    f = [1]
    for n in range(1, max_weight + 1):
        f.append(sum(g[m] * f[n - m] for m in range(1, n + 1)) // n)
    return f
