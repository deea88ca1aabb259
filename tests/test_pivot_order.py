"""The row loop takes the columns right to left, pivots on the row that
ends first and retires pivot rows by zeroing them; its ranks against
Gaussian elimination on Python lists, over prime fields up to 2^31 - 1
and over F_16, F_27 and F_1331, on sparse banded matrices with planted
rank deficits, wide matrices with zero rows and columns, unreduced
inputs, and stacks whose groups split down to one mid-elimination."""

import numpy as np
import pytest

from cicensus import Field
from cicensus import macaulay
from cicensus.macaulay import rank_over_field
from test_delayed_reduction import _low_rank

PRIMES = (2, 3, 101, 20011, 2 ** 31 - 1)
FIELDS = [(p, 1) for p in PRIMES] + [(2, 4), (3, 3), (11, 3)]


def reference_rank(rows, field):
    """Gaussian elimination over F_q on Python lists, through the field's
    scalar operations; entries of a prime field are reduced first."""
    rows = [[x % field.p if field.k == 1 else x for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        rows[rank] = [field.mul(v, inv) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(v, field.mul(f, w))
                           for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _nonzero(rng, field, size):
    return rng.integers(1, field.q, size=size, dtype=np.int64)


def _banded(rng, field, nrows, ncols, rank, width):
    """A (left) times B (right) in shuffled row order: B has `rank` rows,
    each of `width` columns or fewer from a start that moves right down B,
    and each row of A mixes up to three neighbouring rows of B, so every
    row is a narrow band and the rank is at most `rank`."""
    right = np.zeros((rank, ncols), dtype=np.int64)
    for t in range(rank):
        start = t * max(ncols - width, 0) // max(rank - 1, 1)
        stop = min(start + width, ncols)
        right[t, start:stop] = rng.integers(0, field.q, size=stop - start)
        right[t, start] = _nonzero(rng, field, 1)[0]
    out = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        centre = i * rank // nrows
        for t in range(max(centre - 1, 0), min(centre + 2, rank)):
            if rng.random() < 0.7:
                coef = int(_nonzero(rng, field, 1)[0])
                out[i] = field.add(out[i], field.mul(right[t], coef))
    return out[rng.permutation(nrows)]


def _check(mat, field):
    assert rank_over_field(mat, field) == reference_rank(mat.tolist(), field)


@pytest.mark.parametrize("p,k", FIELDS)
def test_banded_matrices_with_planted_deficits(p, k):
    field = Field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for _ in range(10):
        ncols = int(rng.integers(4, 30))
        nrows = int(rng.integers(ncols, 2 * ncols + 1))
        rank = int(rng.integers(1, ncols))  # at least one column short
        width = int(rng.integers(1, 8))
        mat = _banded(rng, field, nrows, ncols, rank, width)
        want = reference_rank(mat.tolist(), field)
        assert want <= rank < ncols
        assert rank_over_field(mat, field) == want
        # full-rank bands, and one row repeated as a combination of two
        full = _banded(rng, field, nrows, ncols, ncols, width)
        extra = field.add(full[0], field.mul(full[1], 2 % field.q))
        _check(np.vstack([full, extra]), field)


@pytest.mark.parametrize("p,k", FIELDS)
def test_wide_matrices_with_zero_rows_and_columns(p, k):
    field = Field(p, k)
    rng = np.random.default_rng(p * 7 + k)
    for _ in range(10):
        nrows = int(rng.integers(2, 15))
        ncols = int(rng.integers(nrows + 1, 3 * nrows + 2))
        rank = int(rng.integers(1, nrows + 1))
        mat = _banded(rng, field, nrows, ncols, rank, int(rng.integers(1, 6)))
        mat[rng.choice(nrows, size=int(rng.integers(1, nrows)),
                       replace=False)] = 0
        mat[:, rng.choice(ncols, size=int(rng.integers(1, ncols)),
                          replace=False)] = 0
        _check(mat, field)
    _check(np.zeros((3, 7), dtype=np.int64), field)
    one = np.zeros((2, 9), dtype=np.int64)
    one[1, 4] = 1
    assert rank_over_field(one, field) == 1


@pytest.mark.parametrize("p", PRIMES)
def test_unreduced_inputs(p):
    # every entry, zeros too, gets a multiple of p added: zeros that are
    # nonzero in int64 stretch the row ends, and entries reach 2^61
    field = Field(p)
    rng = np.random.default_rng(p % 1013)
    for _ in range(10):
        ncols = int(rng.integers(4, 25))
        nrows = int(rng.integers(2, 2 * ncols))
        rank = int(rng.integers(1, min(nrows, ncols) + 1))
        mat = _banded(rng, field, nrows, ncols, rank, int(rng.integers(1, 9)))
        big = mat + p * rng.integers(0, 2 ** 61 // p, size=mat.shape)
        assert (big >= p).any()
        _check(big, field)
        assert rank_over_field(big, field) == rank_over_field(mat, field)


@pytest.mark.parametrize("p", PRIMES)
def test_dense_low_rank_matrices(p):
    # many updates land on one entry: near 2^31 the interval is 2, so
    # a missed reduction wraps int64
    field = Field(p)
    rng = np.random.default_rng(p % 577)
    for _ in range(6):
        nrows, ncols = (int(x) for x in rng.integers(8, 24, size=2))
        rank = int(rng.integers(1, min(nrows, ncols)))
        mat = _low_rank(rng, p, nrows, ncols, rank)
        assert rank_over_field(mat, field) == reference_rank(mat, field)


@pytest.mark.parametrize("p", PRIMES)
def test_stacks_hand_unreduced_matrices_to_the_row_loop(p, monkeypatch):
    # matrix b of a stack repeats its column 2 + b as a combination of the
    # columns left of it, so the lockstep group splits there, and each
    # matrix finishes in the row loop after lockstep updates
    field = Field(p)
    rng = np.random.default_rng(p % 331)
    handed = []
    row_loop = macaulay._echelon

    def recording(a, fld):
        handed.append(bool((a < 0).any() or (a >= p).any()))
        return row_loop(a, fld)

    monkeypatch.setattr(macaulay, "_echelon", recording)
    for nb in (2, 3, 5):
        mats = []
        for b in range(nb):
            mat = np.array(_low_rank(rng, p, 16, 12, 12), dtype=np.int64)
            dep = 2 + b
            coef = rng.integers(0, p, size=dep).tolist()
            mat[:, dep] = [sum(int(x) * c for x, c in zip(row[:dep], coef))
                           % p for row in mat.tolist()]
            mats.append(mat.tolist())
        ranks = rank_over_field(np.array(mats, dtype=np.int64), field)
        assert ranks.tolist() == [reference_rank(m, field) for m in mats]
    if p > 3:  # over F_2 and F_3 a random column may split earlier
        assert any(handed)
