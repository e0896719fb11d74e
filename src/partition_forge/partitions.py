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


def check_partition(la):
    la = tuple(la)
    if any(a < b for a, b in zip(la, la[1:])) or any(a <= 0 for a in la):
        raise AssertionError("not a partition: %r" % (la,))
    return la


def conjugate(la):
    """Transpose the diagram."""
    if not la:
        return ()
    return tuple(sum(1 for a in la if a >= j) for j in range(1, la[0] + 1))


def contains(la, mu):
    """Whether the diagram of la contains the diagram of mu."""
    if len(mu) > len(la):
        return False
    return all(a >= b for a, b in zip(la, mu))


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


def partition_of_profile(p):
    """Partition cut out by a profile string; inverse of profile()."""
    zpos = [i for i, b in enumerate(p, 1) if b == "0"]
    n = len(zpos)
    la = tuple(zpos[n - k] - (n - k + 1) for k in range(1, n + 1))
    return tuple(a for a in la if a > 0)


def is_horizontal_strip(la, mu):
    """Whether la/mu is a horizontal strip (at most one box per column)."""
    if not contains(la, mu):
        return False
    mu = tuple(mu) + (0,) * (len(la) - len(mu))
    return all(la[i + 1] <= mu[i] for i in range(len(la) - 1))


@lru_cache(maxsize=None)
def hstrips_down(la):
    """All mu with la/mu a horizontal strip."""
    out = []

    def rec(i, acc):
        if i == len(la):
            out.append(tuple(a for a in acc if a > 0))
            return
        lo = la[i + 1] if i + 1 < len(la) else 0
        hi = min(la[i], acc[-1]) if acc else la[i]
        for v in range(lo, hi + 1):
            rec(i + 1, acc + [v])

    rec(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def hstrips_up(mu, max_size):
    """All la with la/mu a horizontal strip and |la| <= max_size.

    The cap is required: without it the set is infinite.
    """
    budget = max_size - sum(mu)
    if budget < 0:
        raise AssertionError("cap %d below |%r|" % (max_size, mu))
    out = []
    rows = len(mu) + 1

    def rec(i, acc, used):
        if i == rows:
            out.append(tuple(a for a in acc if a > 0))
            return
        cur = mu[i] if i < len(mu) else 0
        above = mu[i - 1] if i >= 1 else None
        hi = cur + (budget - used)
        if above is not None:
            hi = min(hi, above)
        if i >= 1 and acc[i - 1] < cur:
            return
        for v in range(cur, hi + 1):
            rec(i + 1, acc + [v], used + v - cur)

    rec(0, [], 0)
    return tuple(out)


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

