"""Two-parameter deformation of the determinant.

The pyramid recurrence condenses an (n+1) by (n+1) matrix Y and an n by n
matrix X down to a single value, with one deformation parameter matrix for
each term of the two-by-two cross rule.  Its closed form is a sum of Laurent
monomials indexed by pairs of interlacing sign matrices.

Laurent polynomials are dicts mapping a sorted tuple of (variable, exponent)
pairs to a nonzero coefficient (an int wherever the math is integral);
variables are tuples like ("l", i, j).  A specialization is a renaming of
the variables (lp_rename).  The pyramid itself runs on numbers only; its
levels 0 and 1 fix it, so the closed forms are proved symbolically by the
recurrence with the division multiplied out (condenses).
"""

from fractions import Fraction
from itertools import product

from . import asm as A
from . import series


# ---------------------------------------------------------------------------
# Laurent polynomials


def _key(pairs):
    """Monomial key of (variable, exponent) pairs; a repeated variable's
    exponents add, and a zero exponent drops out."""
    return tuple(sorted(series.accumulate(pairs).items()))


def lp_monomial(exps, coeff=1):
    if not coeff:
        return {}
    return {_key(exps.items()): coeff}


lp_add = series.add


def lp_mul(a, b):
    # summing the exponents of the concatenated keys multiplies the monomials
    return series.accumulate(
        (_key(ka + kb), ca * cb) for ka, ca in a.items() for kb, cb in b.items()
    )


def lp_rename(a, rename):
    """a with each variable v replaced by rename(v), or by 1 where that is None."""
    return series.accumulate(
        (_key((rename(v), e) for v, e in k if rename(v) is not None), c) for k, c in a.items()
    )


def lp_eval(a, point):
    """a at point, one integer numerator and denominator per monomial."""
    powers = {}  # (variable, exponent) -> its value at point as (num, den)
    total = Fraction(0)
    for k, c in a.items():
        num = den = 1
        for ve in k:
            if ve not in powers:
                v, e = Fraction(point[ve[0]]), ve[1]
                if e < 0:
                    v, e = 1 / v, -e
                powers[ve] = v.numerator ** e, v.denominator ** e
            top, bottom = powers[ve]
            num, den = num * top, den * bottom
        total += Fraction(c * num, den)
    return total


# ---------------------------------------------------------------------------
# the pyramid recurrence


def pyramid(n, lam, mu, x, y):
    """All levels of the recurrence on numeric grids; level k is (n+1-k)
    square.  Division by an exact zero at an intermediate entry raises
    ZeroDivisionError."""
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
        top = []
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                top += [
                    (("l", i, j), fb[i - 1][j - 1]),
                    (("m", i, n + 1 - j), gb[i - 1][j - 1]),
                    (("x", i, j), b[i - 1][j - 1]),
                ]
        for bits in product((0, 1), repeat=signs):
            a = A.left_below_family(b, bits)
            fa = A.f_weight_exponents(a)
            ga = A.g_weight_exponents(a)
            pairs = list(top)
            for i in range(1, k):
                for j in range(1, k):
                    pairs += [
                        (("l", i + 1, j + 1), -fa[i - 1][j - 1]),
                        (("m", i + 1, n + 1 - j), -ga[i - 1][j - 1]),
                        (("y", i + 1, j + 1), -a[i - 1][j - 1]),
                    ]
            out.append({_key(pairs): 1})
    return out


def closed_form_symbolic(n, k):
    return series.accumulate(
        kv for term in closed_form_terms(n, k) for kv in term.items()
    )


def shifted(a, di, dj):
    """a with its apex moved to entry (1 + di, 1 + dj) of its level: the l, x
    and y indices shift by (di, dj), and the m indices by (di, -dj)."""
    return lp_rename(a, lambda v: (v[0], v[1] + di, v[2] + (-dj if v[0] == "m" else dj)))


def condenses(n, k, forms):
    """Whether level k of forms (forms[k - 1] the apex of level k of the
    order-n pyramid) satisfies the recurrence, with the division by the apex
    of level k - 2 multiplied out; level 0 is y11 and level 1 must be x11."""
    if k == 1:
        return forms[0] == lp_monomial({("x", 1, 1): 1})
    below = forms[k - 3] if k > 2 else lp_monomial({("y", 1, 1): 1})
    e = forms[k - 2]
    return lp_mul(forms[k - 1], shifted(below, 1, 1)) == lp_add(
        lp_mul(lp_monomial({("m", 1, n + 1 - k): 1}), lp_mul(e, shifted(e, 1, 1))),
        lp_mul(lp_monomial({("l", 1, 1): 1}), lp_mul(shifted(e, 0, 1), shifted(e, 1, 0))),
    )


def _point(lam=(), mu=(), x=(), y=()):
    """The value of each grid variable (c, i, j) at numeric grids."""
    return {
        (name, i, j): v
        for name, grid in (("l", lam), ("m", mu), ("x", x), ("y", y))
        for i, row in enumerate(grid, 1)
        for j, v in enumerate(row, 1)
    }


def closed_form_value(form, lam, mu, x, y):
    """A closed form of closed_form_symbolic evaluated at a numeric point."""
    return lp_eval(form, _point(lam, mu, x, y))


def corollary_symbolic(n, rename):
    """Apex with the base level set to all ones, as a sum over single sign
    matrices with inversion and dual inversion exponents.  Each sign matrix's
    term and its (mu + lam) factors are renamed (see lp_rename) as they are
    built, before they are multiplied out."""

    def monomial(pairs):
        return lp_rename({_key(pairs): 1}, rename)

    terms = []
    for b in A.enumerate_asms(n):
        entries = [(i, j, v) for i, row in enumerate(b, 1) for j, v in enumerate(row, 1) if v]
        term = monomial(
            [(("x", i, j), v) for i, j, v in entries]
            + [(("l", i, j), 1) for i, j in A.inversions(b)]
            + [(("m", i, n + 1 - j), 1) for i, j in A.dual_inversions(b)]
        )
        for i, j, v in entries:
            if v == -1:
                mu = monomial([(("m", i, n + 1 - j), 1)])
                term = lp_mul(term, lp_add(mu, monomial([(("l", i, j), 1)])))
        terms.append(term)
    return series.accumulate(kv for term in terms for kv in term.items())


def one_parameter(v):
    """Robbins and Rumsey's specialization as a renaming: every lam entry
    becomes ("l", 0, 0), mu and y become 1, and x is kept."""
    if v[0] == "l":
        return ("l", 0, 0)
    return v if v[0] == "x" else None


def robbins_rumsey_symbolic(n):
    """The corollary under one_parameter (Robbins and Rumsey 1986): the sum
    over sign matrices of lam^inversions (1 + lam)^(number of -1 entries)
    times the monomial."""
    return corollary_symbolic(n, one_parameter)


def lambda_determinant(n, m):
    """The specialization lam = -1, mu = 1 of the closed form."""
    return lp_eval(robbins_rumsey_symbolic(n), {**_point(x=m), ("l", 0, 0): -1})


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * det_cofactor(minor)
    return total
