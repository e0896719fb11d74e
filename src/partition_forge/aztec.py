"""Domino tilings of the Aztec diamond and their pairs of sign matrices.

The order-n diamond consists of the unit cells whose four corners (x, y)
satisfy |x| + |y| <= n + 1.  A domino is a triple (dir, x, y) with dir "h"
covering cells (x, y), (x+1, y) and dir "v" covering (x, y), (x, y+1).

A domino's middle edge is the unit edge between its two cells.  Each entry
of the pair reads a lattice vertex with |x| + |y| <= n and the number m of
dominoes whose middle edge meets it: the vertices of one parity give the
n by n sign matrix with entries m - 1, those of the other the (n+1) by (n+1)
one with entries 1 - m (Elkies, Kuperberg, Larsen and Propp 1992).
"""

from functools import lru_cache

from .asm import validate_asm


def cell_in_region(n, x, y):
    return max(abs(x), abs(x + 1)) + max(abs(y), abs(y + 1)) <= n + 1


def diamond_cells(n):
    out = [
        (x, y)
        for x in range(-n - 1, n + 1)
        for y in range(-n - 1, n + 1)
        if cell_in_region(n, x, y)
    ]
    if len(out) != 2 * n * (n + 1):
        raise AssertionError("order %d diamond has %d cells" % (n, len(out)))
    return out


def domino_cells(d):
    kind, x, y = d
    return [(x, y), (x + 1, y)] if kind == "h" else [(x, y), (x, y + 1)]


def validate_tiling(n, tiling):
    covered = set()
    for d in tiling:
        if d[0] not in ("h", "v"):
            raise AssertionError("not a domino: %r" % (d,))
        for c in domino_cells(d):
            if not cell_in_region(n, *c) or c in covered:
                raise AssertionError("domino %r leaves the region or overlaps" % (d,))
            covered.add(c)
    if len(covered) != 2 * n * (n + 1):
        raise AssertionError("tiling leaves cells of the order %d diamond uncovered" % n)
    return frozenset(tiling)


def middle_edges(tiling, x, y):
    """How many dominoes of the tiling have their middle edge at (x, y)."""
    return (
        (("h", x - 1, y) in tiling)
        + (("h", x - 1, y - 1) in tiling)
        + (("v", x, y - 1) in tiling)
        + (("v", x - 1, y - 1) in tiling)
    )


def vertex(k, r, c):
    """The lattice vertex that entry (r, c) of a k by k marking reads.

    The n by n sign matrix reads the vertices of one parity, the (n+1) by
    (n+1) one those of the other.
    """
    return (r + c - k - 1, c - r)


def tiling_to_asms(n, tiling):
    tiling = validate_tiling(n, tiling)
    return tuple(
        validate_asm([
            [sign * (middle_edges(tiling, *vertex(k, r, c)) - 1) for c in range(1, k + 1)]
            for r in range(1, k + 1)
        ])
        for k, sign in ((n, 1), (n + 1, -1))
    )


def _moves(n):
    """The dominoes each cell may start, indexed by the cell's (y, x) rank.

    Dominoes come "h" before "v", each with the offset of its second cell in
    that order.  Every walk over tilings covers the first uncovered cell next,
    keeping the covered cells from it on as a bitmask (bit k is the cell k
    places later).
    """
    order = sorted(diamond_cells(n), key=lambda c: (c[1], c[0]))
    index = {c: i for i, c in enumerate(order)}
    return [
        [
            (d, index[domino_cells(d)[1]] - i)
            for d in (("h", x, y), ("v", x, y))
            if domino_cells(d)[1] in index
        ]
        for i, (x, y) in enumerate(order)
    ]


def enumerate_tilings(n):
    """All tilings, listed by a depth-first walk over _moves(n)."""
    moves = _moves(n)
    out = []
    dominoes = []

    def rec(idx, mask):
        while mask & 1:
            idx, mask = idx + 1, mask >> 1
        if idx == len(moves):
            out.append(frozenset(dominoes))
            return
        for d, off in moves[idx]:
            if not mask >> off & 1:
                dominoes.append(d)
                rec(idx, mask | 1 | 1 << off)
                dominoes.pop()

    rec(0, 0)
    return out


@lru_cache(maxsize=1)
def _counter(n):
    """The moves and the memoised count of the tilings completing a state.

    A state of the walk is the index of the first uncovered cell and the
    bitmask of the covered cells from it on.  Only the latest n is kept, so
    counting and then unranking one diamond builds its table once.
    """
    moves = _moves(n)
    memo = {}

    def count(idx, mask):
        while mask & 1:
            idx, mask = idx + 1, mask >> 1
        if idx == len(moves):
            return 1
        if (idx, mask) not in memo:
            memo[idx, mask] = sum(
                count(idx, mask | 1 | 1 << off)
                for _, off in moves[idx]
                if not mask >> off & 1
            )
        return memo[idx, mask]

    return moves, count


def count_tilings(n):
    _, count = _counter(n)
    return count(0, 0)


def tilings_at(n, ranks):
    """The tilings at the given positions of enumerate_tilings(n), unlisted."""
    moves, count = _counter(n)
    total = count(0, 0)
    out = []
    for rank in ranks:
        if not 0 <= rank < total:
            raise IndexError("no tiling of rank %d among %d" % (rank, total))
        dominoes = []
        idx = mask = 0
        while True:
            while mask & 1:
                idx, mask = idx + 1, mask >> 1
            if idx == len(moves):
                break
            for d, off in moves[idx]:
                if mask >> off & 1:
                    continue
                below = count(idx, mask | 1 | 1 << off)
                if rank < below:
                    break
                rank -= below
            else:
                raise AssertionError("counts of the order %d diamond disagree" % n)
            dominoes.append(d)
            mask |= 1 | 1 << off
        out.append(frozenset(dominoes))
    return out


def asms_to_tiling(n, a, b):
    """Invert the middle-edge marking in one walk over _moves(n).

    At the first uncovered cell (x, y), of the dominoes with a middle edge at
    its corner (x+1, y) only ("h", x, y) is undecided.  When both dominoes
    fit, that corner is marked, and ("h", x, y) is taken exactly when the
    corner's marked count is one more than the dominoes placed there so far.
    A pair that marks no tiling fails the final check.
    """
    a, b = validate_asm(a), validate_asm(b)
    target = {}
    for m, sign in ((a, 1), (b, -1)):
        for r, row in enumerate(m, 1):
            for c, v in enumerate(row, 1):
                target[vertex(len(m), r, c)] = sign * v + 1
    moves = _moves(n)
    tiling = set()
    idx = mask = 0
    while True:
        while mask & 1:
            idx, mask = idx + 1, mask >> 1
        if idx == len(moves):
            break
        free = [(d, off) for d, off in moves[idx] if not mask >> off & 1]
        if not free:
            raise AssertionError("no tiling marks as %r, %r" % (a, b))
        d, off = free[0]
        if len(free) == 2:
            corner = (d[1] + 1, d[2])
            if middle_edges(tiling, *corner) + 1 != target.get(corner):
                d, off = free[1]
        tiling.add(d)
        mask |= 1 | 1 << off
    if tiling_to_asms(n, tiling) != (a, b):
        raise AssertionError("tiling does not mark back as %r, %r" % (a, b))
    return frozenset(tiling)
