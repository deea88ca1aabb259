"""census._points_at, the one index-to-point rule of the point search,
the system enumeration and the rooted draws of oracle_check, against a
reference on Python ints."""

import numpy as np
import pytest

from cicensus.bounds import projective_count
from cicensus.census import _points_at


def reference_point(q, n, i):
    """Point i of P^n(F_q) in the order of projective_points: q^(n-L)
    points have lead L, and the coordinates after X_L are the rest of
    the index in base q, most significant first."""
    lead = 0
    while i >= q ** (n - lead):
        i -= q ** (n - lead)
        lead += 1
    tail = [i // q ** (n - j) % q for j in range(lead + 1, n + 1)]
    return [0] * lead + [1] + tail


def lead_starts(q, n):
    """The first index of each lead, L = 0..n."""
    return [sum(q ** (n - j) for j in range(lead)) for lead in range(n + 1)]


def check(q, n, indices):
    i = np.array(indices, dtype=np.int64)
    pts = _points_at(q, n, i)
    assert pts.dtype == np.int64
    assert pts.shape == (len(indices), n + 1)
    assert pts.tolist() == [reference_point(q, n, x) for x in indices]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 5), (3, 3), (4, 2), (5, 2),
                                 (9, 3), (243, 2), (2, 20)])
def test_every_lead_boundary_and_its_neighbours(q, n):
    total = projective_count(n, q)
    indices = sorted({x + d for x in lead_starts(q, n) + [total - 1]
                      for d in (-1, 0, 1) if 0 <= x + d < total})
    check(q, n, indices)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (7, 3), (16, 2)])
def test_unsorted_and_repeated_indices(q, n):
    total = projective_count(n, q)
    rng = np.random.default_rng(q * 10 + n)
    indices = rng.integers(0, total, size=300).tolist()
    indices += indices[:40] + [0, total - 1, 0]
    check(q, n, indices)


def test_every_index_of_small_spaces():
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            check(q, n, list(range(projective_count(n, q))))


def test_empty_index_array():
    for n in (0, 1, 3):
        check(3, n, [])


def test_projective_zero_space():
    for q in (2, 11, 243):
        check(q, 0, [0, 0])


def test_largest_space_the_point_blocks_accept():
    # P^18(F_11) has 6.1e18 points, below 2^63, but i + 11^18 is not
    q, n = 11, 18
    total = projective_count(n, q)
    assert total < 2 ** 63 <= total + q ** n
    starts = lead_starts(q, n)
    check(q, n, [0, total - 1] + starts + [x - 1 for x in starts[1:]]
          + [total - 2, total - 1 - q ** 2])
