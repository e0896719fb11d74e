"""The λ-pyramid run symbolically, kept as the tests' oracle for the closed
forms that lambdadet.condenses proves.

Laurent is a Laurent-polynomial dict (see lambdadet) with + and *; its /
divides only by a monic monomial and raises AssertionError for any other
divisor.  Up to n = 3 every division of the pyramid is by a renamed x or y
variable, so symbolic_pyramid runs lambdadet.pyramid on Laurent grids and
gives every entry of every level as a plain dict.
"""

from partition_forge.lambdadet import lp_add, lp_monomial, lp_mul, lp_rename, pyramid


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
