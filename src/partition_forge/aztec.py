"""Domino tilings of the Aztec diamond and their pairs of sign matrices.

The order-n diamond consists of the unit cells whose four corners (x, y)
satisfy |x| + |y| <= n + 1.  A domino is a triple (dir, x, y) with dir "h"
covering cells (x, y), (x+1, y) and dir "v" covering (x, y), (x, y+1).

Marking the interior lattice vertices of one parity with their edge degrees
in the tiling picture yields an n by n sign matrix; the other parity, with
the tiling extended to the whole plane by horizontal bricks, yields an
(n+1) by (n+1) one.
"""

from .asm import validate_asm

A_DEGREE = {3: 0, 2: 1, 4: -1}
B_DEGREE = {3: 0, 4: 1, 2: -1}


def in_region(n, x, y):
    return abs(x) + abs(y) <= n + 1


def cell_in_region(n, x, y):
    return all(
        in_region(n, x + dx, y + dy) for dx in (0, 1) for dy in (0, 1)
    )


def cells(n):
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


def _row_span(n, y):
    """Exterior brick phase: region cells of row y occupy [-t, t)."""
    t = max(n - y, 0) if y >= 0 else max(n + 1 + y, 0)
    return t


def vertical_edge_crack(n, tiling, x, y):
    """Whether the edge from (x, y) to (x, y+1) is drawn in the picture."""
    if cell_in_region(n, x - 1, y) and cell_in_region(n, x, y):
        return ("h", x - 1, y) not in tiling
    t = _row_span(n, y)
    if x >= t:
        return not (x > t and (x - t - 1) % 2 == 0)
    if x <= -t:
        return not (x < -t and (-t - 1 - x) % 2 == 0)
    raise AssertionError((x, y))


def horizontal_edge_crack(n, tiling, x, y):
    return ("v", x, y - 1) not in tiling


def vertex_degree(n, tiling, x, y):
    return (
        int(vertical_edge_crack(n, tiling, x, y))
        + int(vertical_edge_crack(n, tiling, x, y - 1))
        + int(horizontal_edge_crack(n, tiling, x, y))
        + int(horizontal_edge_crack(n, tiling, x - 1, y))
    )


def a_vertex(n, r, c):
    return (-(n - 1) + (r - 1) + (c - 1), c - r)


def b_vertex(n, r, c):
    return (-n + (r - 1) + (c - 1), c - r)


def tiling_to_asms(n, tiling):
    tiling = validate_tiling(n, tiling)
    a = [
        [
            A_DEGREE[vertex_degree(n, tiling, *a_vertex(n, r, c))]
            for c in range(1, n + 1)
        ]
        for r in range(1, n + 1)
    ]
    b = [
        [
            B_DEGREE[vertex_degree(n, tiling, *b_vertex(n, r, c))]
            for c in range(1, n + 2)
        ]
        for r in range(1, n + 2)
    ]
    return validate_asm(a), validate_asm(b)


def _search(n, targets):
    """All tilings; with degree targets, prune once a vertex is decided."""
    all_cells = sorted(cells(n), key=lambda c: (c[1], c[0]))
    cell_set = set(all_cells)
    out = []
    covered = set()
    dominoes = set()

    def decided(x, y):
        # a vertex degree is final once its four surrounding cells are done
        return all(
            (cx, cy) not in cell_set or (cx, cy) in covered
            for cx in (x - 1, x)
            for cy in (y - 1, y)
        )

    def check(d):
        if targets is None:
            return True
        for cx, cy in domino_cells(d):
            for vx in (cx, cx + 1):
                for vy in (cy, cy + 1):
                    v = (vx, vy)
                    if v in targets and decided(vx, vy):
                        if vertex_degree(n, dominoes, vx, vy) != targets[v]:
                            return False
        return True

    def rec(idx):
        while idx < len(all_cells) and all_cells[idx] in covered:
            idx += 1
        if idx == len(all_cells):
            out.append(frozenset(dominoes))
            return
        x, y = all_cells[idx]
        for d in (("h", x, y), ("v", x, y)):
            partner = domino_cells(d)[1]
            if partner in cell_set and partner not in covered:
                covered.update(domino_cells(d))
                dominoes.add(d)
                if check(d):
                    rec(idx)
                covered.difference_update(domino_cells(d))
                dominoes.remove(d)

    rec(0)
    return out


def enumerate_tilings(n):
    return _search(n, None)


def _counter(n):
    """Tiling counts over _search's state, memoised.

    The state is the index of the first uncovered cell in _search's (y, x)
    order and the bitmask of the covered cells from it on (bit k is the cell
    k places later).  Returns the dominoes each cell may start, in the order
    _search tries them ("h" before "v") with the offset of their second cell,
    and the count of the tilings that complete a state.
    """
    order = sorted(cells(n), key=lambda c: (c[1], c[0]))
    index = {c: i for i, c in enumerate(order)}
    moves = [
        [
            (d, index[domino_cells(d)[1]] - i)
            for d in (("h", x, y), ("v", x, y))
            if domino_cells(d)[1] in index
        ]
        for i, (x, y) in enumerate(order)
    ]
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
                    dominoes.append(d)
                    mask |= 1 | 1 << off
                    break
                rank -= below
            else:
                raise AssertionError("counts of the order %d diamond disagree" % n)
        out.append(frozenset(dominoes))
    return out


def asms_to_tiling(n, a, b):
    """Invert the degree marking; the pair determines the tiling."""
    targets = {}
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            targets[a_vertex(n, r, c)] = {v: k for k, v in A_DEGREE.items()}[
                a[r - 1][c - 1]
            ]
    for r in range(1, n + 2):
        for c in range(1, n + 2):
            targets[b_vertex(n, r, c)] = {v: k for k, v in B_DEGREE.items()}[
                b[r - 1][c - 1]
            ]
    found = _search(n, targets)
    if len(found) != 1:
        raise AssertionError("%d tilings mark as %r, %r" % (len(found), a, b))
    tiling = found[0]
    if tiling_to_asms(n, tiling) != (validate_asm(a), validate_asm(b)):
        raise AssertionError("tiling does not mark back as %r, %r" % (a, b))
    return tiling


def all_vertical_tiling(n):
    tiling = set()
    seen = set()
    for x, y in sorted(cells(n), key=lambda c: (c[0], c[1])):
        if (x, y) in seen:
            continue
        tiling.add(("v", x, y))
        seen.update({(x, y), (x, y + 1)})
    return validate_tiling(n, tiling)


def all_horizontal_tiling(n):
    tiling = set()
    seen = set()
    for x, y in sorted(cells(n), key=lambda c: (c[1], c[0])):
        if (x, y) in seen:
            continue
        tiling.add(("h", x, y))
        seen.update({(x, y), (x + 1, y)})
    return validate_tiling(n, tiling)


def flip_sites(tiling):
    """Lower-left cells of two-by-two blocks covered by a domino pair."""
    out = []
    for kind, x, y in tiling:
        if kind == "h" and ("h", x, y + 1) in tiling:
            out.append((x, y))
        if kind == "v" and ("v", x + 1, y) in tiling:
            out.append((x, y))
    return sorted(out)


def elementary_flip(n, tiling, x, y):
    tiling = set(tiling)
    if ("h", x, y) in tiling and ("h", x, y + 1) in tiling:
        tiling -= {("h", x, y), ("h", x, y + 1)}
        tiling |= {("v", x, y), ("v", x + 1, y)}
    elif ("v", x, y) in tiling and ("v", x + 1, y) in tiling:
        tiling -= {("v", x, y), ("v", x + 1, y)}
        tiling |= {("h", x, y), ("h", x, y + 1)}
    else:
        raise AssertionError("no flippable pair at %r" % ((x, y),))
    return validate_tiling(n, tiling)
