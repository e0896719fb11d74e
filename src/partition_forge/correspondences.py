"""Growth-diagram correspondences: Robinson, RSK and the Burge variant.

Tableaux are stored as chains of partitions: chain[k] is the shape after the
first k letters, so a standard tableau on n letters is a chain of length n+1
starting at () with one box added per step, and a semistandard one adds a
horizontal strip per step.

All three correspondences run on one growth diagram (Fomin, "Schensted
algorithms for dual graded graphs", 1995).  A local rule up(alpha, beta, m,
mu) gives the shape at the top-right corner of a cell from its left and bottom
shapes alpha and beta, its bottom-left shape mu and its entry m; the matching
down(alpha, beta, la) undoes it.  rsk_up/rsk_down is row insertion and gives
Robinson and RSK; burge_up/burge_down is column insertion and gives Burge.
"""

from itertools import zip_longest

from .partitions import check_partition, conjugate, is_horizontal_strip


def growth_diagram(matrix, up):
    """Run the local rule up over a nonnegative integer matrix.

    matrix[i][j] is the entry in row i+1, column j+1; rows are numbered from
    the bottom of the diagram, so grid[i][j] is the shape of the submatrix
    using the first i rows and j columns.  Returns the full grid.
    """
    r, c = len(matrix), len(matrix[0]) if matrix else 0
    grid = [[()] * (c + 1) for _ in range(r + 1)]
    for i in range(1, r + 1):
        for j in range(1, c + 1):
            grid[i][j] = up(
                grid[i][j - 1], grid[i - 1][j], matrix[i - 1][j - 1], grid[i - 1][j - 1]
            )
    return grid


def _grow(matrix, up):
    """(right edge, top edge) of the growth diagram: the row and column chains."""
    grid = growth_diagram(matrix, up)
    return tuple(row[-1] for row in grid), tuple(grid[-1])


def _ungrow(value, position, down):
    """Recover the matrix from the right edge (value) and top edge (position)
    of its growth diagram by running the inverse rule from the top right."""
    r, c = len(value) - 1, len(position) - 1
    grid = [[None] * (c + 1) for _ in range(r + 1)]
    for i in range(r + 1):
        grid[i][c] = value[i]
    grid[r] = list(position)
    matrix = [[0] * c for _ in range(r)]
    for i in range(r, 0, -1):
        for j in range(c, 0, -1):
            m, mu = down(grid[i][j - 1], grid[i - 1][j], grid[i][j])
            matrix[i - 1][j - 1], grid[i - 1][j - 1] = m, mu
    return matrix


def _check_pair(t, tp, standard):
    """Both chains semistandard (standard) from () to one common shape."""
    chains = []
    for chain in (t, tp):
        chain = tuple(check_partition(la) for la in chain)
        if not chain or chain[0] != ():
            raise AssertionError("chain does not start at (): %r" % (chain,))
        if not is_ssyt_chain(chain):
            raise AssertionError("not a semistandard chain: %r" % (chain,))
        if standard and any(c != 1 for c in chain_content(chain)):
            raise AssertionError("not a standard chain: %r" % (chain,))
        chains.append(chain)
    if chains[0][-1] != chains[1][-1]:
        raise AssertionError("chains end in different shapes: %r, %r" % (t[-1], tp[-1]))
    return chains


def permutation_matrix(perm):
    """0/1 matrix with a one at (perm[j], j) for each column j, rows from bottom."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm, 1):
        m[i - 1][j - 1] = 1
    return m


def big_to_perm(big):
    n = len(big)
    perm = [0] * n
    for j in range(n):
        ones = [i for i in range(n) if big[i][j]]
        if len(ones) != 1:
            raise AssertionError("column %d is not a permutation column: %r" % (j + 1, big))
        perm[j] = ones[0] + 1
    return tuple(perm)


def robinson(perm):
    """Permutation -> (value chain, position chain) of standard tableaux."""
    return _grow(permutation_matrix(perm), rsk_up)


def reverse_robinson(value, position):
    """Recover the permutation from its pair of standard chains."""
    value, position = _check_pair(value, position, True)
    return big_to_perm(_ungrow(value, position, rsk_down))


def chain_content(chain):
    """Sequence of sizes of the skew steps."""
    return tuple(
        sum(chain[k]) - sum(chain[k - 1]) for k in range(1, len(chain))
    )


def is_ssyt_chain(chain):
    return all(
        is_horizontal_strip(chain[k], chain[k - 1]) for k in range(1, len(chain))
    )


def rsk(matrix):
    """Nonnegative integer matrix -> (value tableau, position tableau) chains."""
    return _grow(matrix, rsk_up)


def rsk_inverse(t, tp):
    """Recover the matrix from an RSK pair of semistandard chains."""
    t, tp = _check_pair(t, tp, False)
    return _ungrow(t, tp, rsk_down)


def burge(matrix):
    """Burge correspondence: the growth diagram under column insertion."""
    return _grow(matrix, burge_up)


def burge_inverse(t, tp):
    t, tp = _check_pair(t, tp, False)
    return _ungrow(t, tp, burge_down)


def rsk_up(alpha, beta, m, mu):
    """Row insertion: la_i = max(alpha_i, beta_i) + c_i, where c_1 = m and
    c_{i+1} = min(alpha_i, beta_i) - mu_i counts the boxes bumped from row i."""
    la, c = [], m
    for a, b, u in zip_longest(alpha, beta, mu, fillvalue=0):
        la.append(max(a, b) + c)
        c = min(a, b) - u
    return tuple(la + [c]) if c else tuple(la)


def rsk_down(alpha, beta, la):
    """Row deletion, inverse to rsk_up: returns (m, mu)."""
    c = [x - max(a, b) for a, b, x in zip_longest(alpha, beta, la, fillvalue=0)] + [0]
    mu = [min(a, b) - d for a, b, d in zip(alpha, beta, c[1:])]
    return c[0], tuple(x for x in mu if x)


def burge_down(alpha, beta, la):
    """Column deletion, inverse to burge_up: the same carry scan, run from
    the right, with each box it places removed instead.

    Returns (m, mu) with mu below alpha and beta and m the boxes carried past
    the first column.
    """
    columns = zip_longest(conjugate(alpha), conjugate(beta), conjugate(la), fillvalue=0)
    mu_c, c = [], 0
    for a, b, x in reversed(list(columns)):
        if x > a or x > b:
            mu_c.append(x - 1)
            c += x > a and x > b
        elif c:
            mu_c.append(x - 1)
            c -= 1
        else:
            mu_c.append(x)
    return c, conjugate(tuple(reversed(mu_c)))


def burge_up(alpha, beta, m, mu):
    """Column insertion, inverse to burge_down: a carry scan along the
    columns, the mirror of rsk_up's carry down the rows.  A column where
    alpha or beta exceeds mu gains a box, and hands one more to the carry if
    both do; the carry starts with the m new boxes, and a column that gains
    nothing by itself takes one box from it, if it holds any.  Boxes still in
    the carry after the last column each start a new column of height 1."""
    la_c, c = [], m
    for a, b, u in zip_longest(conjugate(alpha), conjugate(beta), conjugate(mu), fillvalue=0):
        if a > u or b > u:
            la_c.append(u + 1)
            c += a > u and b > u
        elif c:
            la_c.append(u + 1)
            c -= 1
        else:
            la_c.append(u)
    return conjugate(tuple(la_c + [1] * c))
