"""The elimination kernels over F_p leave the rows they update unreduced
in int64 and reduce the rows an update leaves unable to take another,
a check that runs iff L^2 < DEFAULT_MAX_CELLS, L =
``_reduction_interval(p)``, on the matrices under that cap; their ranks
against Gaussian elimination on Python ints, at p = 2 and 3, a mid-size
p, and the two largest intervals' ends: L = 3 near 1.7e9 and L = 2 at
2^31 - 1."""

import numpy as np
import pytest

from cicensus import Field, is_prime
from cicensus.macaulay import (_eliminate, _reduction_interval,
                               rank_over_field)
from test_kernel import reference_rank

P_L3 = next(p for p in range(1_700_000_000, 1_800_000_000) if is_prime(p))
PRIMES = (2, 3, 20011, P_L3, 2 ** 31 - 1)
INT64_MAX = 2 ** 63 - 1


def test_interval_is_the_largest_that_fits_int64():
    for p in PRIMES + (5, 101, 65537):
        n = _reduction_interval(p)
        assert n * (p - 1) ** 2 + p <= INT64_MAX < (n + 1) * (p - 1) ** 2 + p
    assert _reduction_interval(P_L3) == 3
    assert _reduction_interval(2 ** 31 - 1) == 2


def _low_rank(rng, p, nrows, ncols, rank):
    """A dense nrows x ncols matrix over F_p of rank at most `rank`."""
    left = rng.integers(0, p, size=(nrows, rank)).tolist()
    right = rng.integers(0, p, size=(rank, ncols)).tolist()
    return [[sum(row[t] * right[t][j] for t in range(rank)) % p
             for j in range(ncols)] for row in left]


def _worst_case(p, nrows, ncols, rank):
    """L U over F_p with L unit lower and U unit upper triangular, every
    other entry p - 1: each pivot step subtracts (p-1)^2 from every entry
    it updates, so at p = 2^31 - 1 a third unreduced update wraps int64."""
    low = [[1 if i == j else p - 1 if i > j else 0 for j in range(rank)]
           for i in range(nrows)]
    up = [[1 if i == j else p - 1 if j > i else 0 for j in range(ncols)]
          for i in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*up)]
            for row in low]


@pytest.mark.parametrize("p", PRIMES)
def test_single_matrices_match_the_reference(p):
    rng = np.random.default_rng(p % 1000)
    field = Field(p)
    for _ in range(12):
        nrows, ncols = (int(x) for x in rng.integers(1, 16, size=2))
        rank = int(rng.integers(0, min(nrows, ncols) + 1))
        mat = _low_rank(rng, p, nrows, ncols, rank)
        assert rank_over_field(mat, field) == reference_rank(mat, p)
    mat = _worst_case(p, 12, 12, 9)
    assert rank_over_field(mat, field) == reference_rank(mat, p) == 9


@pytest.mark.parametrize("p", PRIMES)
def test_split_stacks_match_the_reference(p):
    rng = np.random.default_rng(p % 997)
    field = Field(p)
    for _ in range(8):
        nb = int(rng.integers(2, 7))
        nrows, ncols = (int(x) for x in rng.integers(2, 14, size=2))
        mats = []
        for _ in range(nb):
            mat = _low_rank(rng, p, nrows, ncols,
                            int(rng.integers(0, min(nrows, ncols) + 1)))
            # zero columns at different places split the lockstep groups
            for j in rng.choice(ncols, size=int(rng.integers(0, ncols)),
                                replace=False).tolist():
                for row in mat:
                    row[j] = 0
            mats.append(mat)
        ranks = rank_over_field(np.array(mats, dtype=np.int64), field)
        assert ranks.tolist() == [reference_rank(m, p) for m in mats]


@pytest.mark.parametrize("copies", (1, 2))
def test_split_groups_keep_the_stack_count(copies):
    # every matrix takes two unreduced updates in lockstep, the interval at
    # 2^31 - 1; the second has a zero column 2 and goes on the worklist,
    # alone (row loop) or with its copy (stack), and must reduce before
    # its next update, as must the first
    p = 2 ** 31 - 1
    first = _worst_case(p, 14, 12, 10)
    second = [row[:2] + [0] + row[2:-1] for row in first]
    mats = [first] * copies + [second] * copies
    ranks = rank_over_field(np.array(mats, dtype=np.int64), Field(p))
    assert ranks.tolist() == [reference_rank(m, p) for m in mats]
    assert ranks.tolist() == [10] * 2 * copies


@pytest.mark.parametrize("p", (3, 2 ** 31 - 1))
def test_callers_array_is_left_as_it_was(p):
    rng = np.random.default_rng(7)
    stack = np.array([_low_rank(rng, p, 9, 8, 5) for _ in range(3)],
                     dtype=np.int64)
    kept = stack.copy()
    rank_over_field(stack, Field(p))
    rank_over_field(stack[0], Field(p))
    assert np.array_equal(stack, kept)


def test_rows_no_pivot_updates_are_left_as_they_were():
    # the last row reads p, which is 0 mod p, so it never holds a pivot
    # and no update reaches it; a reduction of the whole array would
    # rewrite it
    p = 2 ** 31 - 1
    mat = np.array(_worst_case(p, 12, 12, 9) + [[p] * 12], dtype=np.int64)
    stack = np.array([mat, mat])
    assert _eliminate(mat, Field(p)) == 9
    assert _eliminate(stack, Field(p)).tolist() == [9, 9]
    assert (mat[-1] == p).all() and (stack[:, -1] == p).all()


@pytest.mark.parametrize("ncols", (3, 4))
def test_the_check_is_skipped_up_to_the_interval(ncols):
    # L = 3, so L^2 < DEFAULT_MAX_CELLS and the check runs on every
    # matrix at this p (p > 39,901,857), of 3 columns as of 4, alone and
    # in a stack; every update takes (p-1)^2
    mat = _worst_case(P_L3, 6, ncols, ncols)
    field = Field(P_L3)
    assert rank_over_field(mat, field) == reference_rank(mat, P_L3) == ncols
    ranks = rank_over_field([mat, mat], field)
    assert ranks.tolist() == [ncols, ncols]


def test_a_checked_group_of_one_keeps_its_check():
    # the check runs at this p (p > 39,901,857, L = 3), in lockstep and
    # in the row loop alike: the first matrix takes three updates in the
    # stack of 7x6 matrices before its group splits down to it at column
    # 3, and its 4x3 rest in the row loop must check too, or two more
    # updates would wrap int64 and give rank 6
    first = [[-3, 0, -2, 6, 0, 1], [-2, -1, 0, 2, 3, 2],
             [0, 2, 3, -3, 3, 5], [0, -1, -1, 3, -1, -2],
             [-3, 3, -1, -1, 1, 1], [-1, -2, -1, 7, 0, 0],
             [1, 0, 0, 4, -2, -1]]
    first = [[x % P_L3 for x in row] for row in first]
    second = [row[:2] + [0] + row[2:-1] for row in first]
    ranks = rank_over_field([first, second], Field(P_L3))
    assert ranks.tolist() == [reference_rank(m, P_L3) for m in
                              (first, second)] == [5, 5]
