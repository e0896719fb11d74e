"""Growth-diagram correspondences: Robinson, RSK and the Burge variant.

Tableaux are stored as chains of partitions: chain[k] is the shape after the
first k letters, so a standard tableau on n letters is a chain of length n+1
starting at () with one box added per step.
"""

from .partitions import (
    add_box,
    conjugate,
    contains,
    intersect,
    is_horizontal_strip,
    remove_box,
    union,
)


def fomin_forward(rho, mu, nu, x):
    """Forward local rule: bottom-left rho, left mu, bottom nu, cell entry x."""
    if x == 1:
        assert mu == nu == rho
        return add_box(rho, 1)
    assert x == 0
    if mu == nu == rho:
        return rho
    if mu == rho and nu != rho:
        return nu
    if nu == rho and mu != rho:
        return mu
    if mu != nu:
        assert mu != rho and nu != rho
        return union(mu, nu)
    # mu == nu != rho: mu/rho is one box, add the next one a row lower
    assert mu == nu and mu != rho
    row = next(i for i in range(1, len(mu) + 1) if mu[i - 1] != (rho + (0,) * len(mu))[i - 1])
    return add_box(mu, row + 1)


def fomin_reverse(la, mu, nu):
    """Reverse local rule: recover (rho, x) from top-right la, left mu, bottom nu."""
    if mu == nu and mu != la:
        row = next(i for i in range(1, len(la) + 1) if la[i - 1] != (mu + (0,) * len(la))[i - 1])
        if row == 1:
            return mu, 1
        return remove_box(mu, row - 1), 0
    if mu == nu == la:
        return la, 0
    if mu == la and nu != la:
        return nu, 0
    if nu == la and mu != la:
        return mu, 0
    assert mu != nu and mu != la and nu != la
    return intersect(mu, nu), 0


def growth_diagram(matrix, left=None, bottom=None):
    """Run the forward rules over a 0/1 matrix, optionally with skew boundary.

    matrix[i][j] is the entry in row i+1, column j+1; rows are numbered from
    the bottom of the diagram, so grid[i][j] is the shape of the submatrix
    using the first i rows and j columns.  Returns the full grid.
    """
    r, c = len(matrix), len(matrix[0]) if matrix else 0
    if left is None:
        left = [()] * (r + 1)
    if bottom is None:
        bottom = [()] * (c + 1)
    assert left[0] == bottom[0]
    grid = [[None] * (c + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        grid[i][0] = left[i]
    for j in range(c + 1):
        grid[0][j] = bottom[j]
    for i in range(1, r + 1):
        for j in range(1, c + 1):
            grid[i][j] = fomin_forward(
                grid[i - 1][j - 1], grid[i][j - 1], grid[i - 1][j], matrix[i - 1][j - 1]
            )
    return grid


def permutation_matrix(perm):
    """0/1 matrix with a one at (perm[j], j) for each column j, rows from bottom."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm, 1):
        m[i - 1][j - 1] = 1
    return m


def robinson(perm):
    """Permutation -> (value chain, position chain) of standard tableaux."""
    grid = growth_diagram(permutation_matrix(perm))
    n = len(perm)
    value = tuple(grid[i][n] for i in range(n + 1))
    position = tuple(grid[n][j] for j in range(n + 1))
    return value, position


def reverse_robinson(value, position):
    """Recover the permutation from its pair of standard chains."""
    n = len(value) - 1
    assert len(position) == n + 1 and value[n] == position[n]
    grid = [[None] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        grid[i][n] = value[i]
    for j in range(n + 1):
        grid[n][j] = position[j]
    matrix = [[0] * n for _ in range(n)]
    for i in range(n, 0, -1):
        for j in range(n, 0, -1):
            rho, x = fomin_reverse(grid[i][j], grid[i][j - 1], grid[i - 1][j])
            grid[i - 1][j - 1] = rho
            matrix[i - 1][j - 1] = x
    return big_to_perm(matrix)


def chain_content(chain):
    """Sequence of sizes of the skew steps."""
    return tuple(
        sum(chain[k]) - sum(chain[k - 1]) for k in range(1, len(chain))
    )


def is_ssyt_chain(chain):
    return all(
        is_horizontal_strip(chain[k], chain[k - 1]) for k in range(1, len(chain))
    )


def standardize(chain):
    """Refine a semistandard chain to a standard one.

    Within each horizontal strip the boxes are numbered in increasing column
    order, which keeps every prefix a partition.
    """
    assert is_ssyt_chain(chain)
    out = [chain[0]]
    for k in range(1, len(chain)):
        lo, hi = out[-1], chain[k]
        boxes = []
        lo_pad = tuple(lo) + (0,) * (len(hi) - len(lo))
        for i in range(len(hi)):
            for j in range(lo_pad[i] + 1, hi[i] + 1):
                boxes.append((j, i + 1))  # (column, row)
        for _, row in sorted(boxes):
            out.append(add_box(out[-1], row))
    return tuple(out)


def destandardize(chain, content):
    """Coarsen a standard chain to the semistandard chain with given content."""
    assert sum(content) == len(chain) - 1
    out = [chain[0]]
    pos = 0
    for c in content:
        pos += c
        out.append(chain[pos])
    assert is_ssyt_chain(out)
    return tuple(out)


def conjugate_chain(chain):
    return tuple(conjugate(la) for la in chain)


def block_encode_rsk(matrix):
    """Blow a nonnegative matrix up to a 0/1 block permutation matrix.

    Block rows and columns are laid out in increasing order and each block is
    filled along its diagonal.
    """
    r, c = len(matrix), len(matrix[0])
    row_sums = [sum(matrix[i]) for i in range(r)]
    col_sums = [sum(matrix[i][j] for i in range(r)) for j in range(c)]
    n = sum(row_sums)
    assert n == sum(col_sums)
    big = [[0] * n for _ in range(n)]
    row_off = [sum(row_sums[:i]) for i in range(r)]
    col_off = [sum(col_sums[:j]) for j in range(c)]
    row_used = [0] * r
    col_used = [0] * c
    # within block row i, rows are handed out to blocks j = 1, 2, ... in order,
    # and within block column j, columns to blocks i = 1, 2, ...; each block
    # gets a diagonal of ones
    for i in range(r):
        for j in range(c):
            for _ in range(matrix[i][j]):
                big[row_off[i] + row_used[i]][col_off[j] + col_used[j]] = 1
                row_used[i] += 1
                col_used[j] += 1
    return big, tuple(row_sums), tuple(col_sums)


def block_encode_burge(matrix):
    """Burge variant: reversed hand-out order and anti-diagonal blocks.

    Block row i hands its rows bottom-to-top to blocks j = 1, 2, ...; block
    column j hands its columns right-to-left to blocks i = 1, 2, ...; inside a
    block the ones run along the anti-diagonal.
    """
    r, c = len(matrix), len(matrix[0])
    row_sums = [sum(matrix[i]) for i in range(r)]
    col_sums = [sum(matrix[i][j] for i in range(r)) for j in range(c)]
    n = sum(row_sums)
    assert n == sum(col_sums)
    row_off = [sum(row_sums[:i]) for i in range(r)]
    col_off = [sum(col_sums[:j]) for j in range(c)]
    rows_of = {}
    cols_of = {}
    for i in range(r):
        nxt = row_off[i] + row_sums[i] - 1
        for j in range(c):
            rows_of[i, j] = [nxt - k for k in range(matrix[i][j])]
            nxt -= matrix[i][j]
    for j in range(c):
        nxt = col_off[j] + col_sums[j] - 1
        for i in range(r):
            cols_of[i, j] = [nxt - k for k in range(matrix[i][j])]
            nxt -= matrix[i][j]
    big = [[0] * n for _ in range(n)]
    for i in range(r):
        for j in range(c):
            for a, b in zip(sorted(rows_of[i, j]), sorted(cols_of[i, j], reverse=True)):
                big[a][b] = 1
    return big, tuple(row_sums), tuple(col_sums)


def block_decode(big, row_sums, col_sums):
    """Count the ones inside each block."""
    row_off = [sum(row_sums[:i]) for i in range(len(row_sums))]
    col_off = [sum(col_sums[:j]) for j in range(len(col_sums))]
    out = []
    for i, rs in enumerate(row_sums):
        row = []
        for j, cs in enumerate(col_sums):
            row.append(
                sum(
                    big[row_off[i] + a][col_off[j] + b]
                    for a in range(rs)
                    for b in range(cs)
                )
            )
        out.append(row)
    return out


def big_to_perm(big):
    n = len(big)
    perm = [0] * n
    for j in range(n):
        ones = [i for i in range(n) if big[i][j]]
        assert len(ones) == 1
        perm[j] = ones[0] + 1
    return tuple(perm)


def rsk(matrix):
    """Nonnegative integer matrix -> (value tableau, position tableau) chains."""
    big, row_sums, col_sums = block_encode_rsk(matrix)
    value, position = robinson(big_to_perm(big))
    t = destandardize(value, row_sums)
    tp = destandardize(position, col_sums)
    return t, tp


def rsk_inverse(t, tp):
    """Recover the matrix from an RSK pair of semistandard chains."""
    assert t[-1] == tp[-1]
    value = standardize(t)
    position = standardize(tp)
    perm = reverse_robinson(value, position)
    big = permutation_matrix(perm)
    return block_decode(big, chain_content(t), chain_content(tp))


def burge(matrix):
    """Burge correspondence; the standard chains get conjugated before coarsening."""
    big, row_sums, col_sums = block_encode_burge(matrix)
    value, position = robinson(big_to_perm(big))
    t = destandardize(conjugate_chain(value), row_sums)
    tp = destandardize(conjugate_chain(position), col_sums)
    return t, tp


def burge_inverse(t, tp):
    assert t[-1] == tp[-1]
    value = conjugate_chain(standardize(t))
    position = conjugate_chain(standardize(tp))
    perm = reverse_robinson(value, position)
    big = permutation_matrix(perm)
    row_sums, col_sums = chain_content(t), chain_content(tp)
    # undo the Burge hand-out order by re-counting block by block, which
    # does not depend on the order the ones were handed out in
    return block_decode(big, row_sums, col_sums)


def burge_down(alpha, beta, la):
    """Column deletion: la covers both alpha and beta by horizontal strips.

    Returns (m, mu) with mu below alpha and beta and m the number of removed
    columns that fell off the left edge.
    """
    lc, ac, bc = list(conjugate(la)), conjugate(alpha), conjugate(beta)
    ac = ac + (0,) * (len(lc) - len(ac))
    bc = bc + (0,) * (len(lc) - len(bc))
    abar = {i for i in range(1, len(lc) + 1) if lc[i - 1] > ac[i - 1]}
    bbar = {i for i in range(1, len(lc) + 1) if lc[i - 1] > bc[i - 1]}
    taken = set()
    m = 0
    for i in sorted(abar & bbar, reverse=True):
        d = i - 1
        while d > 0 and (d in abar or d in bbar or d in taken):
            d -= 1
        if d > 0:
            taken.add(d)
        else:
            m += 1
    removal = abar | bbar | taken
    mu_c = [lc[i - 1] - (1 if i in removal else 0) for i in range(1, len(lc) + 1)]
    mu = conjugate(tuple(a for a in mu_c if a > 0))
    return m, mu


def burge_up(alpha, beta, m, mu):
    """Column insertion, inverse to burge_down."""
    mc = list(conjugate(mu))
    ac, bc = conjugate(alpha), conjugate(beta)
    size = max(len(mc), len(ac), len(bc)) + m + len(ac) + len(bc) + 1
    mc = mc + [0] * (size - len(mc))
    acp = tuple(ac) + (0,) * (size - len(ac))
    bcp = tuple(bc) + (0,) * (size - len(bc))
    aset = {i for i in range(1, size + 1) if acp[i - 1] > mc[i - 1]}
    bset = {i for i in range(1, size + 1) if bcp[i - 1] > mc[i - 1]}
    taken = set()
    for i in sorted(aset & bset):
        e = i + 1
        while e in aset or e in bset or e in taken:
            e += 1
        assert e <= size
        taken.add(e)
    free = [i for i in range(1, size + 1) if i not in aset | bset | taken]
    dset = set(free[:m])
    growth = aset | bset | taken | dset
    lc = [mc[i - 1] + (1 if i in growth else 0) for i in range(1, size + 1)]
    return conjugate(tuple(a for a in lc if a > 0))
