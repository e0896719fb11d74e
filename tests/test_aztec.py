from itertools import product

import pytest

from partition_forge import asm as A
from partition_forge import aztec as Z

FIXTURE_A3 = ((0, 1, 0), (1, -1, 1), (0, 1, 0))
FIXTURE_B3 = (
    (0, 0, 1, 0),
    (0, 1, -1, 1),
    (1, -1, 1, 0),
    (0, 1, 0, 0),
)


def antidiagonal(n):
    return tuple(
        tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n)
    )


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@pytest.fixture(scope="module")
def tilings5():
    return Z.enumerate_tilings(5)


def test_cell_counts():
    for n in range(1, 6):
        assert len(Z.diamond_cells(n)) == 2 * n * (n + 1)
    assert sorted(Z.diamond_cells(1)) == [(-1, -1), (-1, 0), (0, -1), (0, 0)]


def test_tiling_counts():
    for n in range(1, 5):
        assert len(Z.enumerate_tilings(n)) == 2 ** (n * (n + 1) // 2)


def test_counting_and_ranking_match_listing(tilings5):
    for n in range(1, 5):
        assert Z.tilings_at(n, range(Z.count_tilings(n))) == Z.enumerate_tilings(n)
    assert Z.tilings_at(5, range(Z.count_tilings(5))) == tilings5
    for n in range(1, 9):
        assert Z.count_tilings(n) == 2 ** (n * (n + 1) // 2)


def test_count_identity_with_sign_matrices():
    # number of tilings equals the 2^(number of -1) generating count
    for n in range(1, 5):
        s = sum(
            2 ** sum(1 for row in b for v in row if v == -1)
            for b in A.enumerate_asms(n + 1)
        )
        assert s == 2 ** (n * (n + 1) // 2)


def test_degree_marking_fixture():
    found = [
        t
        for t in Z.enumerate_tilings(3)
        if Z.tiling_to_asms(3, t) == (FIXTURE_A3, FIXTURE_B3)
    ]
    assert len(found) == 1


def test_extreme_tilings():
    for n in range(1, 5):
        # rank 0 takes "h" at every cell that allows it, the last rank "v"
        first, last = Z.tilings_at(n, [0, Z.count_tilings(n) - 1])
        assert {kind for kind, _, _ in first} == {"h"}
        assert {kind for kind, _, _ in last} == {"v"}
        a, b = Z.tiling_to_asms(n, last)
        assert (a, b) == (antidiagonal(n), antidiagonal(n + 1))
        a, b = Z.tiling_to_asms(n, first)
        assert (a, b) == (identity(n), identity(n + 1))


def test_marking_injective_and_interlacing():
    for n in range(1, 4):
        pairs = set()
        for t in Z.enumerate_tilings(n):
            a, b = Z.tiling_to_asms(n, t)
            pairs.add((a, b))
            k = sum(1 for row in b for v in row if v == -1)
            fam = {
                A.left_below_family(b, bits)
                for bits in product((0, 1), repeat=k)
            }
            assert a in fam, (n, a, b)
        assert len(pairs) == 2 ** (n * (n + 1) // 2)


def test_round_trip_small():
    for n in range(1, 5):
        for t in Z.enumerate_tilings(n):
            a, b = Z.tiling_to_asms(n, t)
            assert Z.asms_to_tiling(n, a, b) == t


def test_round_trip_sample_n5(tilings5):
    for t in tilings5[:: len(tilings5) // 40]:
        a, b = Z.tiling_to_asms(5, t)
        assert Z.asms_to_tiling(5, a, b) == t


def test_decoder_accepts_exactly_the_marked_pairs():
    # every pair in ASM(n) x ASM(n+1) decodes to a tiling marking back to it,
    # or is refused
    for n, count in enumerate((1, 2, 8, 64)):
        decoded = 0
        for a, b in product(A.enumerate_asms(n), A.enumerate_asms(n + 1)):
            try:
                t = Z.asms_to_tiling(n, a, b)
            except AssertionError:
                continue
            assert Z.tiling_to_asms(n, t) == (a, b)
            decoded += 1
        assert decoded == count, n


def flips(t):
    """The tilings one elementary flip from t: two parallel dominoes that
    cover a two-by-two block, turned the other way."""
    for kind, x, y in t:
        horizontal = {("h", x, y), ("h", x, y + 1)}
        vertical = {("v", x, y), ("v", x + 1, y)}
        if kind == "h" and horizontal <= t:
            yield (t - horizontal) | vertical
        if kind == "v" and vertical <= t:
            yield (t - vertical) | horizontal


def test_flip_changes_one_matrix_locally():
    for n in (2, 3):
        for t in list(Z.enumerate_tilings(n))[:20]:
            for t2 in flips(t):
                assert t in set(flips(t2))
                a1, b1 = Z.tiling_to_asms(n, t)
                a2, b2 = Z.tiling_to_asms(n, t2)
                da = [
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if a1[i][j] != a2[i][j]
                ]
                db = [
                    (i, j)
                    for i in range(n + 1)
                    for j in range(n + 1)
                    if b1[i][j] != b2[i][j]
                ]
                # exactly one of the two matrices changes, in a 2x2 block
                assert (len(da), len(db)) in ((0, 4), (4, 0))
                for diff, m1, m2 in ((da, a1, a2), (db, b1, b2)):
                    if not diff:
                        continue
                    (i0, j0) = diff[0]
                    assert diff == [
                        (i0, j0),
                        (i0, j0 + 1),
                        (i0 + 1, j0),
                        (i0 + 1, j0 + 1),
                    ]
                    delta = {
                        (i - i0, j - j0): m2[i][j] - m1[i][j] for i, j in diff
                    }
                    assert delta in (
                        {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1},
                        {(0, 0): -1, (0, 1): 1, (1, 0): 1, (1, 1): -1},
                    )

