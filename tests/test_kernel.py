"""The integer Gauss-Jordan loop that every exact row reduction uses."""

import random

from orthoql.kernel import rref_gauss


def test_known_reduction():
    # Second row is a multiple of the first, so one pivot survives.
    rows = [[2, 0, 4, 0], [1, 0, 2, 0]]
    reduced, pivots = rref_gauss([r[:] for r in rows], 2)
    assert pivots == [0]
    assert reduced[1] == [0, 0, 0, 0]
    # Pivot rows keep an integral scale; the caller normalizes.
    assert reduced[0][0] != 0
    assert reduced[0][2] * reduced[0][0] == reduced[0][0] * reduced[0][2]
    # No rows: nothing to reduce and no pivots.
    assert rref_gauss([], 3) == ([], [])


def test_eliminated_columns_are_clear():
    rng = random.Random(11)
    for _ in range(40):
        ncols = rng.randint(1, 5)
        nrows = rng.randint(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(2 * ncols)] for _ in range(nrows)]
        reduced, pivots = rref_gauss([r[:] for r in rows], ncols)
        for r, c in enumerate(pivots):
            assert reduced[r][2 * c] or reduced[r][2 * c + 1]
            for k in range(nrows):
                if k != r:
                    assert reduced[k][2 * c] == 0 and reduced[k][2 * c + 1] == 0
        for k in range(len(pivots), nrows):
            assert all(v == 0 for v in reduced[k])


def test_real_rows_stay_real():
    # linalg._leading_one_row divides a Q row by its real pivot alone,
    # which is exact only if zero imaginary halves stay zero.
    rng = random.Random(29)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        nrows = rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = [0] * (2 * ncols)
            row[0::2] = [rng.randint(-7, 7) for _ in range(ncols)]
            rows.append(row)
        reduced, pivots = rref_gauss(rows, ncols)
        assert all(v == 0 for row in reduced for v in row[1::2])
        for r, c in enumerate(pivots):
            assert reduced[r][2 * c] != 0
