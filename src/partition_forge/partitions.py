"""Integer partitions and their boundary profiles.

Partitions are tuples of weakly decreasing positive integers; the empty
partition is ().  Profiles are 1-indexed strings of '0'/'1' characters read
along the boundary of the diagram, '1' for a horizontal step and '0' for a
vertical one.

The strip and partition tables (hstrips_down, hstrips_up, partitions_upto)
are pure, so each is cached for the life of the process; they return tuples,
and their arguments must be hashable (partitions as tuples).
"""

from functools import lru_cache
from itertools import product, zip_longest


def check_partition(la):
    la = tuple(la)
    if any(a < b for a, b in zip(la, la[1:])) or any(a <= 0 for a in la):
        raise AssertionError("not a partition: %r" % (la,))
    return la


def conjugate(la):
    """Transpose the diagram; zero parts count for nothing."""
    if not la:
        return ()
    return tuple(sum(1 for a in la if a >= j) for j in range(1, la[0] + 1))


def cells(la):
    """Yield the boxes (row, col), 1-indexed."""
    for i, part in enumerate(la, 1):
        for j in range(1, part + 1):
            yield (i, j)


def arm(la, s):
    i, j = s
    return la[i - 1] - j


def leg(la, s):
    i, j = s
    return sum(1 for a in la if a >= j) - i


def hook(la, s):
    return arm(la, s) + leg(la, s) + 1


def profile(la, zeros, ones):
    """Profile of la inside a zeros x ones frame (zeros rows, ones columns).

    The k-th '0' from the left sits at position la[zeros+1-k] + k, reading la
    padded with zero parts.
    """
    la = tuple(la)
    if len(la) > zeros or (la and la[0] > ones):
        raise AssertionError("%r does not fit a %d x %d frame" % (la, zeros, ones))
    padded = la + (0,) * (zeros - len(la))
    zpos = {padded[zeros - k] + k for k in range(1, zeros + 1)}
    return "".join("0" if p in zpos else "1" for p in range(1, zeros + ones + 1))


def minimal_profile(la):
    """Profile with no leading zeros or trailing ones; '' for the empty partition."""
    if not la:
        return ""
    return profile(la, len(la), la[0])


def is_horizontal_strip(la, mu):
    """Whether la/mu is a horizontal strip (at most one box per column): mu
    interlaces la, la_{i+1} <= mu_i <= la_i for every i."""
    return all(
        lo <= m <= hi for hi, m, lo in zip_longest(la, mu, la[1:], fillvalue=0)
    )


@lru_cache(maxsize=None)
def hstrips_down(la):
    """All mu with la/mu a horizontal strip: mu_i ranges over [la_{i+1},
    la_i] independently of the other rows."""
    rows = product(*(range(lo, hi + 1) for hi, lo in zip(la, la[1:] + (0,))))
    return tuple(tuple(a for a in mu if a > 0) for mu in rows)


@lru_cache(maxsize=None)
def hstrips_up(mu, max_size):
    """All la with la/mu a horizontal strip and |la| <= max_size.

    The cap is required: without it the set is infinite.
    """
    budget = max_size - sum(mu)
    if budget < 0:
        raise AssertionError("cap %d below |%r|" % (max_size, mu))
    # la_i ranges over [mu_i, mu_{i-1}] (la_1 over [mu_1, max_size]), with
    # at most budget boxes added over all rows: (rows so far, boxes left)
    strips = [((), budget)]
    for cur, top in zip(mu + (0,), (max_size,) + mu):
        strips = [
            (la + (v,), left - (v - cur))
            for la, left in strips
            for v in range(cur, min(top, cur + left) + 1)
        ]
    return tuple(tuple(a for a in la if a > 0) for la, _ in strips)


def partitions_of(n, max_part=None):
    """All partitions of n, largest part at most max_part."""
    if n == 0:
        return [()]
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def partitions_upto(n):
    """All partitions of weight at most n."""
    return tuple(la for k in range(n + 1) for la in partitions_of(k))

