"""Alternating sign matrices, corner sums and interlacing families.

Matrices are tuples of tuples, 1-indexed in the interfaces below via explicit
offsets.  Left corner sums accumulate above-and-to-the-left, right corner
sums above-and-to-the-right.  Every right-hand construction is its
left-hand twin conjugated by reverse_columns.
"""

from itertools import accumulate, combinations
from math import factorial

from . import series


def validate_asm(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise AssertionError("not a square matrix: %r" % (m,))
    for line in list(m) + list(zip(*m)):
        # partial sums in {0, 1} ending at 1; the entries then lie in {-1, 0, 1}
        if not set(accumulate(line)) <= {0, 1} or sum(line) != 1:
            raise AssertionError("not an alternating sign matrix: %r" % (m,))
    return tuple(tuple(r) for r in m)


def asm_count_formula(n):
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    if num % den:
        raise AssertionError("%d / %d is not an integer" % (num, den))
    return num // den


def _interlacing_rows(prev, n):
    """Monotone-triangle rows over columns 1..n of size len(prev) + 1 that
    interlace prev."""
    for cur in combinations(range(1, n + 1), len(prev) + 1):
        if all(cur[i] <= prev[i] <= cur[i + 1] for i in range(len(prev))):
            yield cur


def enumerate_asms(n):
    """Build matrices row by row: chains of interlacing rows, one per layer,
    and matrix row i is [j in chain[i]] - [j in chain[i - 1]]."""
    chains = [((),)]
    for _ in range(n):
        chains = [chain + (cur,) for chain in chains for cur in _interlacing_rows(chain[-1], n)]
    return [
        validate_asm([
            tuple((j in cur) - (j in prev) for j in range(1, n + 1))
            for prev, cur in zip(chain, chain[1:])
        ])
        for chain in chains
    ]


def x_enumeration(n, x):
    """Sum of x^(number of -1 entries) over ASM(n), without listing them.

    x = 1 counts the matrices; x = 2 is the 2-enumeration 2^(n(n-1)/2).

    The chains of enumerate_asms are walked as a dynamic programme over their
    last row: a matrix row has a -1 in each column that the previous chain
    row holds and the next one drops.
    """
    weights = {(): 1}
    for _ in range(n):
        weights = series.accumulate(
            (cur, w * x ** len(set(prev) - set(cur)))
            for prev, w in weights.items()
            for cur in _interlacing_rows(prev, n)
        )
    return weights.get(tuple(range(1, n + 1)), 0)


def is_inversion(m, i, j):
    """A zero with row sum 1 to its right and column sum 1 below it."""
    return (
        m[i - 1][j - 1] == 0
        and sum(m[i - 1][j:]) == 1
        and sum(r[j - 1] for r in m[i:]) == 1
    )


def is_dual_inversion(m, i, j):
    """A zero with row sum 1 to its left and column sum 1 below it: an
    inversion of the column reversal at (i, n + 1 - j)."""
    return is_inversion(reverse_columns(m), i, len(m) + 1 - j)


def inversions(m):
    n = len(m)
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if is_inversion(m, i, j)]


def dual_inversions(m):
    n = len(m)
    return sorted((i, n + 1 - j) for i, j in inversions(reverse_columns(m)))


def left_corner_sums(m):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = (
                m[i][j]
                + (out[i - 1][j] if i else 0)
                + (out[i][j - 1] if j else 0)
                - (out[i - 1][j - 1] if i and j else 0)
            )
    return tuple(map(tuple, out))


def right_corner_sums(m):
    return reverse_columns(left_corner_sums(reverse_columns(m)))


def asm_from_left_sums(bar):
    n = len(bar)

    def g(i, j):
        return bar[i - 1][j - 1] if 1 <= i <= n and 1 <= j <= n else 0

    return validate_asm(
        [
            [g(i, j) + g(i - 1, j - 1) - g(i, j - 1) - g(i - 1, j) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


def f_weight_exponents(m):
    """F(X): min(i, j) minus the left corner sum."""
    n = len(m)
    bar = left_corner_sums(m)
    return tuple(
        tuple(min(i, j) - bar[i - 1][j - 1] for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def g_weight_exponents(m):
    """G(X): min(i, n+1-j) minus the right corner sum."""
    return reverse_columns(f_weight_exponents(reverse_columns(m)))


def reverse_columns(m):
    return tuple(tuple(reversed(r)) for r in m)


# ---------------------------------------------------------------------------
# interlacing families
#
# The sign positions of B are scanned top to bottom, left to right; each sign
# contributes one binary choice, 0 picking the smaller stored corner-sum value.


def _signs(b, sign):
    n = len(b)
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if b[i - 1][j - 1] == sign]


def left_below_family(b, bits):
    """n by n matrices left interlacing below the (n+1) by (n+1) matrix b."""
    n = len(b) - 1
    bar = left_corner_sums(b)

    def g(i, j):
        return bar[i - 1][j - 1]

    choices = {}
    for pos, bit in zip(_signs(b, -1), bits):
        i, j = pos
        choices[(i - 1, j - 1)] = bit
    out = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lo = max(g(i, j), g(i + 1, j + 1) - 1)
            hi = min(g(i, j + 1), g(i + 1, j))
            if hi - lo not in (0, 1):
                raise AssertionError("corner sums %d..%d at %r" % (lo, hi, (i, j)))
            if hi > lo:
                out[i - 1][j - 1] = hi if choices[(i, j)] else lo
            else:
                out[i - 1][j - 1] = lo
    return asm_from_left_sums(out)


def _mirror_bits(b, bits):
    """Re-order bits, given in the order of the -1s of b, into the order of
    the -1s of reverse_columns(b), so that every -1 keeps its bit."""
    n = len(b)
    bit = dict(zip(_signs(b, -1), bits))
    return tuple(bit[(i, n + 1 - j)] for i, j in _signs(reverse_columns(b), -1))


def right_below_family(b, bits):
    """n by n matrices right interlacing below the (n+1) by (n+1) matrix b."""
    r = reverse_columns(b)
    return reverse_columns(left_below_family(r, _mirror_bits(b, bits)))
