"""Two-parameter deformation of the determinant.

The pyramid recurrence condenses an (n+1) by (n+1) matrix Y and an n by n
matrix X down to a single value, with one deformation parameter matrix for
each term of the two-by-two cross rule.  Its closed form is a sum of Laurent
monomials indexed by pairs of interlacing sign matrices.

Laurent polynomials are dicts mapping a sorted tuple of (variable, exponent)
pairs to a nonzero coefficient (an int wherever the math is integral);
variables are tuples like ("l", i, j).
"""

from fractions import Fraction
from itertools import product

from . import asm as A
from . import series


# ---------------------------------------------------------------------------
# Laurent polynomials and rational functions


def lp_const(c):
    return {(): c} if c else {}


def lp_monomial(exps, coeff=1):
    if not coeff:
        return {}
    key = tuple(sorted((v, e) for v, e in exps.items() if e))
    return {key: coeff}


lp_add = series.add


def lp_mul(a, b):
    # a key is a sorted tuple of (variable, exponent) pairs; summing the
    # exponents of the concatenated keys multiplies the monomials
    return series.accumulate(
        (tuple(sorted(series.accumulate(ka + kb).items())), ca * cb)
        for ka, ca in a.items()
        for kb, cb in b.items()
    )


def lp_eval(a, point):
    total = Fraction(0)
    for k, c in a.items():
        for v, e in k:
            c = c * Fraction(point[v]) ** e
        total += c
    return total


class Rat(object):
    """Quotient of two Laurent polynomials, compared by cross multiplying."""

    def __init__(self, num, den=None):
        self.num = num
        self.den = lp_const(1) if den is None else den
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    def __add__(self, other):
        return Rat(
            lp_add(lp_mul(self.num, other.den), lp_mul(other.num, self.den)),
            lp_mul(self.den, other.den),
        )

    def __mul__(self, other):
        return Rat(lp_mul(self.num, other.num), lp_mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero")
        return Rat(lp_mul(self.num, other.den), lp_mul(self.den, other.num))

    def __eq__(self, other):
        return lp_mul(self.num, other.den) == lp_mul(other.num, self.den)

    def __ne__(self, other):
        return not self == other


def rat_var(name):
    return Rat(lp_monomial({name: 1}))


# ---------------------------------------------------------------------------
# the pyramid recurrence


def pyramid(n, lam, mu, x, y):
    """All levels of the recurrence; level k is (n+1-k) square.

    Entries may be Fractions or Rat instances; division by an exact zero at
    an intermediate entry raises.
    """
    levels = [
        [[y[i][j] for j in range(n + 1)] for i in range(n + 1)],
        [[x[i][j] for j in range(n)] for i in range(n)],
    ]
    for k in range(1, n):
        size = n - k
        prev, cur = levels[k - 1], levels[k]
        nxt = [
            [
                (
                    mu[i - 1][n - k - j] * cur[i - 1][j - 1] * cur[i][j]
                    + lam[i - 1][j - 1] * cur[i - 1][j] * cur[i][j - 1]
                )
                / prev[i][j]
                for j in range(1, size + 1)
            ]
            for i in range(1, size + 1)
        ]
        levels.append(nxt)
    return levels


def symbolic_pyramid(n):
    lam = [[rat_var(("l", i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    mu = [[rat_var(("m", i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    x = [[rat_var(("x", i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    y = [[rat_var(("y", i, j)) for j in range(1, n + 2)] for i in range(1, n + 2)]
    return pyramid(n, lam, mu, x, y)


# ---------------------------------------------------------------------------
# closed form


def closed_form_terms(n, k):
    """Monomials of the apex of level k, one per interlacing pair."""
    if not 1 <= k <= n:
        raise AssertionError("level %d outside 1..%d" % (k, n))
    out = []
    for b in A.enumerate_asms(k):
        fb = A.f_weight_exponents(b)
        gb = A.g_weight_exponents(b)
        signs = sum(1 for row in b for v in row if v == -1)
        for bits in product((0, 1), repeat=signs):
            a = A.left_below_family(b, bits) if k > 1 else ()
            fa = A.f_weight_exponents(a)
            ga = A.g_weight_exponents(a)
            exps = {}

            def bump(v, e):
                if e:
                    exps[v] = exps.get(v, 0) + e

            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    bump(("l", i, j), fb[i - 1][j - 1])
                    bump(("m", i, n + 1 - j), gb[i - 1][j - 1])
                    bump(("x", i, j), b[i - 1][j - 1])
            for i in range(1, k):
                for j in range(1, k):
                    bump(("l", i + 1, j + 1), -fa[i - 1][j - 1])
                    bump(("m", i + 1, n + 1 - j), -ga[i - 1][j - 1])
                    bump(("y", i + 1, j + 1), -a[i - 1][j - 1])
            out.append(lp_monomial(exps))
    return out


def closed_form_symbolic(n, k):
    return series.accumulate(
        kv for term in closed_form_terms(n, k) for kv in term.items()
    )


def closed_form_value(form, lam, mu, x, y):
    """A closed form of closed_form_symbolic evaluated at a numeric point."""
    n = len(x)
    point = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            point[("l", i, j)] = lam[i - 1][j - 1]
            point[("m", i, j)] = mu[i - 1][j - 1]
            point[("x", i, j)] = x[i - 1][j - 1]
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            point[("y", i, j)] = y[i - 1][j - 1]
    return lp_eval(form, point)


def corollary_symbolic(n):
    """Apex with the base level set to all ones, as a sum over single sign
    matrices with inversion and dual inversion exponents."""
    total = lp_const(0)
    for b in A.enumerate_asms(n):
        exps = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if b[i - 1][j - 1]:
                    exps[("x", i, j)] = b[i - 1][j - 1]
        for i, j in A.inversions(b):
            exps[("l", i, j)] = exps.get(("l", i, j), 0) + 1
        for i, j in A.dual_inversions(b):
            key = ("m", i, n + 1 - j)
            exps[key] = exps.get(key, 0) + 1
        term = lp_monomial(exps)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if b[i - 1][j - 1] == -1:
                    term = lp_mul(
                        term,
                        lp_add(
                            lp_monomial({("m", i, n + 1 - j): 1}),
                            lp_monomial({("l", i, j): 1}),
                        ),
                    )
        total = lp_add(total, term)
    return total


def corollary_value(n, lam, mu, m):
    point = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            point[("l", i, j)] = lam[i - 1][j - 1]
            point[("m", i, j)] = mu[i - 1][j - 1]
            point[("x", i, j)] = m[i - 1][j - 1]
    return lp_eval(corollary_symbolic(n), point)


def robbins_rumsey_symbolic(n):
    """One-parameter specialization (Robbins and Rumsey 1986): every lam entry
    is ("l", 0, 0) and mu = y = 1, giving the sum over sign matrices of
    lam^inversions (1 + lam)^(number of -1 entries) times the monomial."""
    one_plus = lp_add(lp_const(1), lp_monomial({("l", 0, 0): 1}))
    total = lp_const(0)
    for b in A.enumerate_asms(n):
        exps = {("x", i + 1, j + 1): v for i, row in enumerate(b) for j, v in enumerate(row)}
        exps[("l", 0, 0)] = len(A.inversions(b))
        term = lp_monomial(exps)
        for _ in range(sum(1 for row in b for v in row if v == -1)):
            term = lp_mul(term, one_plus)
        total = lp_add(total, term)
    return total


def robbins_rumsey_value(n, lam, m):
    """robbins_rumsey_symbolic(n) at the value lam and the matrix m."""
    point = {("l", 0, 0): lam}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            point[("x", i, j)] = m[i - 1][j - 1]
    return lp_eval(robbins_rumsey_symbolic(n), point)


def lambda_determinant(n, m):
    """The specialization lam = -1, mu = 1 of the closed form."""
    return robbins_rumsey_value(n, -1, m)


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * det_cofactor(minor)
    return total
