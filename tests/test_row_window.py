"""The row loop's window of candidate rows: ranks of banded matrices in
shuffled row order, row-major and column-major, and of matrices whose
rows end before later rows start, against Gaussian elimination on Python
lists; both updates, the slice of a dense column and the gather of a
sparse one; the slice's reduction over F_p near 2^31; and one-matrix
stacks in start order against the canonical Macaulay matrix."""

import numpy as np
import pytest

from cicensus import (CERTS, Field, build_test_system, cert_recipe,
                      coordinate_slice, decide, macaulay_instance,
                      sample_system)
from cicensus import macaulay
from cicensus.macaulay import _eliminate, rank_over_field
from test_delayed_reduction import _worst_case
from test_pivot_order import _banded, reference_rank

FIELDS = ((3, 1), (20011, 1), (2 ** 31 - 1, 1), (2, 4), (3, 3))


def _check(mat, field):
    want = reference_rank(mat.tolist(), field)
    for layout in (np.ascontiguousarray(mat), np.asfortranarray(mat)):
        assert rank_over_field(layout, field) == want


@pytest.mark.parametrize("p,k", FIELDS)
def test_shuffled_bands_in_both_layouts(p, k):
    field = Field(p, k)
    rng = np.random.default_rng(p % 4099 + k)
    for _ in range(8):
        ncols = int(rng.integers(4, 40))
        nrows = int(rng.integers(ncols // 2, 2 * ncols + 1))
        rank = int(rng.integers(1, ncols + 1))
        # _banded shuffles its rows
        _check(_banded(rng, field, nrows, ncols, rank,
                       int(rng.integers(1, 9))), field)


def _short_rows(rng, field, nrows, ncols):
    """Rows of random width placed left to right, some zero: a row that
    ends before the next starts moves the window's lower end."""
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        first = i * ncols // nrows
        stop = min(first + int(rng.integers(1, 4)), ncols)
        mat[i, first:stop] = rng.integers(0, field.q, size=stop - first)
    mat[rng.random(nrows) < 0.2] = 0
    return mat


@pytest.mark.parametrize("p,k", FIELDS)
def test_zero_rows_and_rows_that_end_early(p, k):
    field = Field(p, k)
    rng = np.random.default_rng(p % 2053 + 3 * k)
    for _ in range(8):
        ncols = int(rng.integers(3, 30))
        mat = _short_rows(rng, field, int(rng.integers(2, 2 * ncols)), ncols)
        _check(mat, field)
        _check(mat[rng.permutation(len(mat))], field)
    _check(np.zeros((4, 6), dtype=np.int64), field)


@pytest.mark.parametrize("p,k", ((20011, 1), (2, 4)))
def test_dense_and_sparse_columns_take_both_updates(p, k, monkeypatch):
    # twelve dense rows on columns 3 to 11 and two short rows on columns
    # 0 to 3: right to left, column 11 hits all twelve rows of its window
    # and takes the slice; column 3, after eight pivots, hits the four
    # dense rows still live and the two short rows, 6 of a 14-row window,
    # and takes the gather
    field = Field(p, k)
    rng = np.random.default_rng(5)
    mat = np.zeros((14, 12), dtype=np.int64)
    mat[:12, 3:] = rng.integers(1, field.q, size=(12, 9))
    mat[12:, :4] = rng.integers(1, field.q, size=(2, 4))
    kinds = []
    subtract = macaulay._subtract

    def recording(a, rows, mult, prow, fld):
        kinds.append("slice" if isinstance(rows[0], slice) else "gather")
        return subtract(a, rows, mult, prow, fld)

    monkeypatch.setattr(macaulay, "_subtract", recording)
    for layout in (np.ascontiguousarray(mat), np.asfortranarray(mat)):
        kinds.clear()
        assert _eliminate(layout.copy(order="K"), field) == reference_rank(
            mat.tolist(), field)
        assert {"slice", "gather"} <= set(kinds)


def test_a_slice_reduces_only_the_rows_it_updates():
    # the row of all p lies in the window of every column, reads 0 in each
    # and takes multiplier 0 in every slice update; the slices of the
    # worst case reach the reduction check, which must leave it as it was
    p = 2 ** 31 - 1
    mat = np.array(_worst_case(p, 12, 12, 9), dtype=np.int64)
    mat = np.insert(mat, 6, p, axis=0)
    kinds = []
    subtract = macaulay._subtract

    def recording(a, rows, mult, prow, fld):
        kinds.append(isinstance(rows[0], slice))
        return subtract(a, rows, mult, prow, fld)

    assert reference_rank(mat.tolist(), Field(p)) == 9
    for layout in (mat.copy(order="C"), mat.copy(order="F")):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(macaulay, "_subtract", recording)
            assert _eliminate(layout, Field(p)) == 9
        assert (layout[6] == p).all()
    assert any(kinds)


PATTERNS = ((3, 2, (2, 2)), (4, 2, (2, 2)), (5, 3, (2, 2, 2)))


@pytest.mark.parametrize("q", (16, 27, 1009, 20011))
def test_one_matrix_stacks_match_the_canonical_build(q):
    for n, s, d in PATTERNS:
        system = sample_system(n, s, d, q, f"row-window:{n}")
        for cert in CERTS:
            # over F_27 the 6237x3003 nons matrix takes about 5 s
            if (n, cert, q) == (5, "nons", 27):
                continue
            v = s + len(cert_recipe(cert, n, s)[0])
            ts = coordinate_slice(build_test_system(system, cert),
                                  range(v, n + 1))
            mat = macaulay_instance(ts)
            rank = rank_over_field(mat, ts.field)
            got = decide(system, cert)
            assert (got.empty, got.rank, got.nrows, got.ncols) == (
                rank == mat.shape[1], rank, *mat.shape), (n, cert, q)
