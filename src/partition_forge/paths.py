"""The peak/valley alphabet of a cylindric plane partition.

The thesis defines the alphabet by a family of non-intersecting lattice paths
on a cylinder: a cube pairs an occupied site with an empty site above it at
one vertical, and counts +1 where the path through the occupied site dips to a
local minimum (a peak) and -1 where it tops out (a valley).  The cubes at one vertical depend only on the two profile letters and
the three layers around it, so dc_alphabet sums a per-layer table instead of
building the paths.  The path model itself is the tests' oracle
(tests/path_model.py).
"""

from functools import lru_cache

from . import series
from .partitions import conjugate
from .cylindric import check_closed


@lru_cache(maxsize=None)
def _layer_alphabet(step_in, step_out, before, mu, after):
    """Peak-minus-valley terms of the cubes at the vertical that carries mu,
    in a CPP that runs before -> mu -> after with profile letters step_in,
    then step_out: a tuple of ((arm, leg), coefficient) pairs.

    There the sites read the profile of mu padded with ones, and the path
    through the i-th occupied site is column i of mu.  The paths run against
    the CPP: with c = conjugate, the path's step from the vertical of `after`
    to this one is c_i(after) - c_i(mu), and its step on to the vertical of
    `before` is c_i(mu) - c_i(before), each plus one on a '0' letter.  Both
    are 0 or 1 exactly when the two CPP steps are horizontal strips; the
    table raises otherwise.  The cubes of column i are its boxes in mu,
    counted +1 where the path dips to a local minimum (steps 0, then 1: a
    peak) and -1 where it tops out (1, then 0: a valley).  Cached for the
    process.
    """
    conjs = [conjugate(la) for la in (before, mu, after)]
    width = max(map(len, conjs))
    cb, cm, ca = (c + (0,) * (width - len(c)) for c in conjs)
    pairs = []
    for i in range(width):
        into = cm[i] - cb[i] + (step_in != "1")
        out = ca[i] - cm[i] + (step_out != "1")
        if into not in (0, 1) or out not in (0, 1):
            raise AssertionError("column %d steps %r, %r" % (i + 1, into, out))
        if into != out:
            pairs += [((mu[r] - i - 1, cm[i] - r - 1), into - out) for r in range(cm[i])]
    return tuple(series.accumulate(pairs).items())


def dc_alphabet(pi, seq):
    """Peak-minus-valley alphabet: dict (arm, leg) -> integer coefficient.

    The sum over the verticals of the per-layer table; by definition it is
    the sum over the cubes of the whole path family, which the tests check
    against the path model.
    """
    seq = check_closed(pi, seq)
    T = len(pi)
    return series.accumulate(
        pair
        for k in range(1, T + 1)
        for pair in _layer_alphabet(
            pi[k - 1], pi[k % T], seq[k - 1], seq[k], seq[k % T + 1]
        )
    )
