"""The λ-pyramid run symbolically, kept as the tests' oracle for the closed
forms that lambdadet.condenses proves, and the unit-base corollary, kept as
the oracle for lambdadet.robbins_rumsey_symbolic.

Laurent is a Laurent-polynomial dict (see lambdadet) with + and *; its /
divides only by a monic monomial and raises AssertionError for any other
divisor.  Up to n = 3 every division of the pyramid is by a renamed x or y
variable, so symbolic_pyramid runs lambdadet.pyramid on Laurent grids and
gives every entry of every level as a plain dict.
"""

from partition_forge.asm import enumerate_asms, inversions, is_dual_inversion
from partition_forge.lambdadet import lp_add, lp_monomial, lp_mul, lp_rename, pyramid
from partition_forge.series import accumulate


class Laurent(dict):
    """A Laurent polynomial dict with + and *; it divides only by a monic
    monomial, which is all the symbolic pyramid needs up to n = 3."""

    def __add__(self, other):
        return Laurent(lp_add(self, other))

    def __mul__(self, other):
        return Laurent(lp_mul(self, other))

    def __truediv__(self, other):
        if list(other.values()) != [1]:
            raise AssertionError("divisor is not a monic monomial: %r" % (other,))
        (k,) = other
        return self * {tuple((v, -e) for v, e in k): 1}


def symbolic_pyramid(n, rename=lambda v: v):
    """The pyramid on the variables (c, i, j) of the grids c = "l", "m", "x"
    and "y", each renamed as lp_rename does."""

    def var(v):
        return Laurent(lp_rename(lp_monomial({v: 1}), rename))

    def grid(name, size):
        side = range(1, size + 1)
        return [[var((name, i, j)) for j in side] for i in side]

    return pyramid(n, grid("l", n), grid("m", n), grid("x", n), grid("y", n + 1))


def corollary_symbolic(n, rename):
    """Apex with the base level set to all ones, as a sum over single sign
    matrices with inversion and dual inversion exponents.  Each sign matrix's
    term and its (mu + lam) factors are renamed (see lp_rename) as they are
    built, before they are multiplied out."""

    def monomial(exps):
        return lp_rename(lp_monomial(exps), rename)

    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    terms = []
    for b in enumerate_asms(n):
        term = monomial(
            {("x", i, j): b[i - 1][j - 1] for i, j in cells if b[i - 1][j - 1]}
            | {("l", i, j): 1 for i, j in inversions(b)}
            | {("m", i, n + 1 - j): 1 for i, j in cells if is_dual_inversion(b, i, j)}
        )
        for i, j in cells:
            if b[i - 1][j - 1] == -1:
                mu = monomial({("m", i, n + 1 - j): 1})
                term = lp_mul(term, lp_add(mu, monomial({("l", i, j): 1})))
        terms.append(term)
    return accumulate(kv for term in terms for kv in term.items())
