"""The nons minors J_k with k >= s + 3 take their first s - 1 columns along
directions of their own; the other minors keep the coordinate partials."""

import pytest

from cicensus import (Poly, PolySystem, decide, jacobian_minor, run_census,
                      sample_system, trial_seed)
from cicensus.poly import determinant

PATTERNS = ((3, 2, (2, 1)), (3, 2, (2, 2)), (4, 2, (2, 2)), (4, 3, (2, 2, 1)),
            (5, 2, (3, 2)), (5, 3, (2, 2, 2)), (4, 1, (3,)))


def _coordinate_minor(system, k):
    """J_k with the columns X_1..X_{s-1}, X_{k-1} for every k."""
    n, s = system.pattern.n, system.pattern.s
    cols = list(range(1, s)) + [k - 1]
    rows = [[f.partial(j) for j in cols] for f in system.forms]
    return determinant(rows, system.field, n + 1, system.pattern.sigma)


@pytest.mark.parametrize("q", (3, 16, 101))
def test_minors_up_to_s_plus_2_keep_coordinate_columns(q):
    for n, s, d in PATTERNS:
        system = sample_system(n, s, d, q, trial_seed("minor", n * 10 + s))
        for k in range(s + 1, n + 2):
            minor = jacobian_minor(system, k)
            assert minor.degree == system.pattern.sigma
            if k <= s + 2 or s == 1:
                assert minor == _coordinate_minor(system, k)


@pytest.mark.parametrize("q", (3, 16, 101))
def test_every_minor_vanishes_at_a_singular_point(q):
    # without their X_0^{d_i} terms, and f_1 also without its X_0^{d_1-1} X_j
    # terms, the forms cut out a Z(f) that is singular at (1:0:...:0),
    # where the first row of the Jacobian is 0
    for n, s, d in PATTERNS:
        system = sample_system(n, s, d, q, trial_seed("sing", n * 10 + s))
        forms = []
        for i, f in enumerate(system.forms):
            top = f.degree - 1 if i == 0 else f.degree
            forms.append(Poly(f.field, f.nvars, f.degree,
                              {e: c for e, c in f.terms.items()
                               if e[0] < top}))
        if any(f.is_zero() for f in forms):
            continue
        sing = PolySystem(system.pattern, system.field, tuple(forms))
        point = (1,) + (0,) * n
        assert all(g.eval_at(point) == 0 for g in sing.forms)
        for k in range(s + 1, n + 2):
            assert jacobian_minor(sing, k).eval_at(point) == 0
        if n <= 4:  # the nons matrix of (5,3,(2,2,2)) is 6237x3003
            assert not decide(sing, "nons").empty


def test_nons_census_4_2_22_is_consistent():
    report = run_census(4, 2, (2, 2), 1009, "monte_carlo", trials=30, seed=1,
                        certs=("nons",))
    assert report.per_cert["nons"].guard_met
    assert report.per_cert["nons"].verdict == "consistent"
    for i in range(30):
        system = sample_system(4, 2, (2, 2), 1009, trial_seed(1, i))
        assert decide(system, "nons").deficit == 0


def test_nons_passes_at_5_2_22():
    system = sample_system(5, 2, (2, 2), 4001, trial_seed(1, 0))
    verdict = decide(system, "nons")
    assert (verdict.nrows, verdict.ncols, verdict.deficit) == (1512, 792, 0)
