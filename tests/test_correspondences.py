from itertools import permutations, product

from hypothesis import given, settings, strategies as st

from partition_forge import partitions as P
from partition_forge import correspondences as C


def rows_of_standard(chain):
    """Standard chain -> list of rows of letters."""
    rows = []
    for k in range(1, len(chain)):
        prev = chain[k - 1] + (0,) * (len(chain[k]) - len(chain[k - 1]))
        r = next(i for i in range(len(chain[k])) if chain[k][i] != prev[i])
        while len(rows) <= r:
            rows.append([])
        rows[r].append(k)
    return rows


def matrices(rows=3, cols=3, top=2):
    return st.lists(
        st.lists(st.integers(0, top), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).filter(lambda m: sum(map(sum, m)) > 0)


T_CHAIN = ((), (2,), (2, 2), (3, 2, 2))
TP_CHAIN = ((), (1,), (2, 1), (3, 2, 1), (3, 2, 2))
MATRIX = [[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0]]


def test_robinson_example():
    value, position = C.robinson((5, 3, 6, 1, 4, 7, 2))
    assert rows_of_standard(value) == [[1, 2, 7], [3, 4], [5, 6]]
    assert value[-1] == position[-1] == (3, 2, 2)
    assert rows_of_standard(position) == [[1, 3, 6], [2, 5], [4, 7]]


def test_robinson_round_trip_s4():
    for perm in permutations(range(1, 5)):
        value, position = C.robinson(perm)
        assert C.reverse_robinson(value, position) == perm


def test_robinson_inverse_swaps_tableaux():
    # the pair of the inverse permutation is the swapped pair
    for perm in permutations(range(1, 5)):
        inv = tuple(perm.index(j) + 1 for j in range(1, 5))
        assert C.robinson(inv) == C.robinson(perm)[::-1]


def test_growth_faces_balance():
    for up in (C.rsk_up, C.burge_up):
        for m in [C.permutation_matrix(p) for p in permutations(range(1, 5))] + [MATRIX]:
            grid = C.growth_diagram(m, up)
            for i in range(1, len(m) + 1):
                for j in range(1, len(m[0]) + 1):
                    assert sum(grid[i][j]) + sum(grid[i - 1][j - 1]) == sum(
                        grid[i][j - 1]
                    ) + sum(grid[i - 1][j]) + m[i - 1][j - 1]


def ssyt_chains(shape, length, _cache={}):
    """All semistandard chains from () to shape in `length` strips."""
    key = (shape, length)
    if key not in _cache:
        if length == 0:
            _cache[key] = [((),)] if shape == () else []
        else:
            out = []
            for mu in P.hstrips_down(shape):
                for head in ssyt_chains(mu, length - 1):
                    out.append(head + (shape,))
            _cache[key] = out
    return _cache[key]


def test_rsk_example():
    t, tp = C.rsk(MATRIX)
    assert t == T_CHAIN
    assert tp == TP_CHAIN
    assert C.rsk_inverse(T_CHAIN, TP_CHAIN) == MATRIX


def test_burge_example():
    t, tp = C.burge(MATRIX)
    assert t == ((), (2,), (4,), (6, 1))
    assert tp == ((), (1,), (3,), (5, 1), (6, 1))
    assert C.burge_inverse(t, tp) == MATRIX


def two_line_insertion(matrix, column):
    """Textbook insertion of the bottom line of the two-line array.

    The pairs (i, j), one per unit of matrix[i - 1][j - 1], are read with i
    ascending; j is inserted and i recorded in the new box.  Row insertion
    (RSK) reads j ascending within one i, and x bumps the smallest entry > x
    of a row.  Column insertion (Burge; Fulton, Young Tableaux, Appendix A)
    reads j descending within one i, and x bumps the smallest entry >= x of a
    column.  The bumped entry moves on to the next row (column).  Returns the
    (recording, insertion) chains, whose contents are the row and column sums.
    """
    lines, recording = [], []
    for i, row in enumerate(matrix, 1):
        letters = range(len(row), 0, -1) if column else range(1, len(row) + 1)
        for j in letters:
            for _ in range(row[j - 1]):
                x, r = j, 0
                while True:
                    if r == len(lines):
                        lines.append([x])
                        recording.append([i])
                        break
                    line = lines[r]
                    k = next(
                        (k for k, y in enumerate(line) if y > x or (column and y == x)),
                        None,
                    )
                    if k is None:
                        line.append(x)
                        recording[r].append(i)
                        break
                    line[k], x = x, line[k]
                    r += 1

    def chain(tableau, letters):
        shapes = (
            tuple(n for n in (sum(1 for y in line if y <= k) for line in tableau) if n)
            for k in range(letters + 1)
        )
        return tuple(map(P.conjugate, shapes) if column else shapes)

    return chain(recording, len(matrix)), chain(lines, len(matrix[0]))


def small_matrices():
    """Every nonzero matrix up to 3 x 3 with entries <= 2."""
    for r in (1, 2, 3):
        for c in (1, 2, 3):
            for flat in product(range(3), repeat=r * c):
                if any(flat):
                    yield [list(flat[i * c:(i + 1) * c]) for i in range(r)]


def test_rsk_matches_schensted_insertion():
    for m in small_matrices():
        assert C.rsk(m) == two_line_insertion(m, column=False)
    for n in range(1, 7):
        for perm in permutations(range(1, n + 1)):
            m = C.permutation_matrix(perm)
            assert C.robinson(perm) == two_line_insertion(m, column=False)


def test_burge_matches_column_insertion():
    for m in small_matrices():
        assert C.burge(m) == two_line_insertion(m, column=True)


@settings(deadline=None)
@given(matrices())
def test_rsk_round_trip(m):
    t, tp = C.rsk(m)
    assert C.is_ssyt_chain(t) and C.is_ssyt_chain(tp)
    assert C.chain_content(t) == tuple(map(sum, m))
    assert C.chain_content(tp) == tuple(sum(r[j] for r in m) for j in range(len(m[0])))
    assert C.rsk_inverse(t, tp) == m


@settings(deadline=None)
@given(matrices())
def test_burge_round_trip(m):
    t, tp = C.burge(m)
    assert C.is_ssyt_chain(t) and C.is_ssyt_chain(tp)
    assert C.chain_content(t) == tuple(map(sum, m))
    assert C.burge_inverse(t, tp) == m


def test_cauchy_counts():
    # pairs of same-shape semistandard chains match matrices with given margins
    for rows, cols in [((2, 1), (1, 2)), ((2, 2, 1), (3, 2)), ((1, 1, 2), (2, 2))]:
        n = sum(rows)
        assert sum(cols) == n
        matrices_count = 0

        def fill(pos, remaining_rows, colleft, acc):
            nonlocal matrices_count
            if pos == len(rows):
                if all(c == 0 for c in colleft):
                    matrices_count += 1
                return
            from itertools import product

            for row in product(*(range(min(remaining_rows[pos], c) + 1) for c in colleft)):
                if sum(row) == remaining_rows[pos]:
                    fill(
                        pos + 1,
                        remaining_rows,
                        [c - r for c, r in zip(colleft, row)],
                        acc,
                    )

        fill(0, rows, list(cols), [])
        pair_count = 0
        for shape in P.partitions_of(n):
            ts = [c for c in ssyt_chains(shape, len(rows)) if C.chain_content(c) == rows]
            tps = [c for c in ssyt_chains(shape, len(cols)) if C.chain_content(c) == cols]
            pair_count += len(ts) * len(tps)
        assert pair_count == matrices_count


def test_factorial_sum_of_squares():
    for n in range(1, 6):
        total = 0
        for shape in P.partitions_of(n):
            chains = [
                c
                for c in ssyt_chains(shape, n)
                if C.chain_content(c) == (1,) * n
            ]
            total += len(chains) ** 2
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert total == fact


def test_burge_down_example():
    m, mu = C.burge_down((6, 5, 5, 3), (6, 6, 5, 2), (7, 6, 5, 3, 1))
    assert (m, mu) == (1, (6, 5, 4, 2))
    assert C.burge_up((6, 5, 5, 3), (6, 6, 5, 2), 1, (6, 5, 4, 2)) == (7, 6, 5, 3, 1)


def test_burge_up_base_cases():
    for m in range(5):
        assert C.burge_up((), (), m, ()) == ((m,) if m else ())
    for gamma in [(3, 1), (2, 2, 1), ()]:
        assert C.burge_down(gamma, gamma, gamma) == (0, gamma)


@given(st.integers(0, 500))
def test_burge_round_trip_random(seed):
    import random

    rng = random.Random(seed)
    la = tuple(
        sorted((rng.randint(1, 5) for _ in range(rng.randint(0, 4))), reverse=True)
    )
    downs = P.hstrips_down(la)
    alpha = rng.choice(downs)
    beta = rng.choice(downs)
    m, mu = C.burge_down(alpha, beta, la)
    assert P.is_horizontal_strip(alpha, mu)
    assert P.is_horizontal_strip(beta, mu)
    assert sum(la) + sum(mu) == sum(alpha) + sum(beta) + m
    assert C.burge_up(alpha, beta, m, mu) == la


def check_up_down_all_small(up, down):
    # every valid upward move is undone by the downward rule
    for mu in P.partitions_upto(4):
        for alpha in P.hstrips_up(mu, sum(mu) + 2):
            for beta in P.hstrips_up(mu, sum(mu) + 2):
                for m in range(3):
                    la = up(alpha, beta, m, mu)
                    assert P.is_horizontal_strip(la, alpha)
                    assert P.is_horizontal_strip(la, beta)
                    assert down(alpha, beta, la) == (m, mu)


def test_burge_up_down_all_small():
    check_up_down_all_small(C.burge_up, C.burge_down)


def test_rsk_up_down_all_small():
    check_up_down_all_small(C.rsk_up, C.rsk_down)
