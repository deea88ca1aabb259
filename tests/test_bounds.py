"""Closed forms: stats, degree bounds, probability floors, combinatorics."""

import itertools
import math
from fractions import Fraction

import pytest

from cicensus import (HypothesisViolated, PatternViolation, bell_number,
                      chow_class, degree_bounds, extract_bound,
                      factorization_count, factorizations, g_of_b,
                      hypersurface_census_bounds, linear_independent_count,
                      multihomog_zero_bound, pattern_landscape, pattern_stats,
                      probability_lower_bound, projective_count,
                      top_coefficient)
from cicensus.bounds import _divisors_from


def test_pattern_stats_examples():
    st = pattern_stats(3, 2, (2, 2))
    assert (st.delta, st.sigma, st.big_d, st.big_d_total) == (4, 2, (9, 9), 18)
    st = pattern_stats(2, 1, (3,))
    assert (st.delta, st.sigma, st.big_d, st.big_d_total) == (3, 2, (9,), 9)
    st = pattern_stats(4, 3, (12, 1, 1))
    assert (st.delta, st.sigma, st.big_d, st.big_d_total) == (12, 11, (1819, 4, 4), 1827)


def test_degree_bounds_examples():
    assert degree_bounds(3, 2, (2, 2), "stci").per_i == (2, 2)
    db = degree_bounds(3, 2, (2, 2), "ci")
    assert db.per_i == (8, 8) and db.concise == 16
    db = degree_bounds(2, 1, (3,), "nons")
    assert db.per_i == (16,) and db.concise == 24


def test_per_i_bounds_never_exceed_concise():
    for n in range(2, 7):
        for s in range(1, n):
            for d in itertools.combinations_with_replacement(range(1, 5), s):
                d = tuple(sorted(d, reverse=True))
                if d[0] < 2:
                    continue
                for cert in ("stci", "ci", "nons", "irr"):
                    db = degree_bounds(n, s, d, cert)
                    assert max(db.per_i) <= db.concise


def test_probability_examples():
    pb = probability_lower_bound(3, 2, (2, 1), 101, "ci")
    assert pb.bound == Fraction(93, 101) and pb.guard_met
    assert pb.e_per_i == (3, 4)
    assert pb.product_bound == Fraction(9506, 10201)
    pb = probability_lower_bound(3, 2, (2, 1), 101, "nons")
    assert pb.bound == Fraction(85, 101) and pb.guard_met
    pb = probability_lower_bound(3, 2, (2, 1), 101, "irr")
    assert pb.bound == Fraction(89, 101) and pb.guard_met
    assert pb.guard_threshold == 4  # s * sigma^2 * delta


def test_probability_relations():
    for q in (7, 11, 101, 1009):
        for cert in ("stci", "ci", "nons", "irr"):
            pb = probability_lower_bound(3, 2, (2, 2), q, cert)
            assert pb.bound <= 1
            if pb.guard_met and pb.product_valid:
                assert pb.bound <= pb.product_bound <= 1
    for cert in ("stci", "ci", "nons", "irr"):
        bounds = [probability_lower_bound(3, 2, (2, 2), q, cert).bound
                  for q in (7, 11, 101, 1009)]
        assert bounds == sorted(bounds)


def test_projective_count_examples():
    assert projective_count(2, 2) == 7
    assert projective_count(5, 2) == 63
    assert projective_count(0, 97) == 1


def test_multihomog_zero_bound_examples():
    assert multihomog_zero_bound((1, 1), (1, 1), 2) == 5
    assert multihomog_zero_bound((1,), (2,), 3) == 4
    assert multihomog_zero_bound((2, 1), (1, 1), 2) == 7
    with pytest.raises(HypothesisViolated):
        multihomog_zero_bound((3, 1), (1, 1), 2)


def test_g_of_b_examples():
    assert g_of_b(4, 2).value == 3
    assert g_of_b(7, 3).value == 0 and g_of_b(7, 3).rho is None
    assert g_of_b(6, 3).value == 54
    g = g_of_b(4, 3)
    assert g.convexity_lower == 15


def test_g_of_b_properties():
    for b in range(2, 61):
        for n in range(2, 9):
            g = g_of_b(b, n)
            if g.rho is not None:  # composite
                assert g.value >= 1
            if b % 2 == 0 and b >= 4:
                assert g.value >= g.convexity_lower


def _oracle_factorizations(b, s):
    """Independent count: ordered factor sequences, deduplicated as multisets."""
    seen = set()

    def rec(rem, seq):
        if rem == 1 and seq:
            seen.add(tuple(sorted(seq)))
        if len(seq) == s:
            return
        for f in range(2, rem + 1):
            if rem % f == 0:
                rec(rem // f, seq + [f])
    rec(b, [])
    return len(seen)


def test_factorization_count_examples():
    assert factorization_count(12, 2).count == 3 == _oracle_factorizations(12, 2)
    assert factorization_count(12, 3).count == 4 == _oracle_factorizations(12, 3)
    fc = factorization_count(8, 3)
    assert fc.count == 3 == _oracle_factorizations(8, 3)
    assert fc.count <= fc.lemma_bound
    assert abs(fc.lemma_bound - 8 ** math.log2(3)) < 1e-9


def test_factorization_count_vs_oracle_sweep():
    for b in range(2, 80):
        for s in (1, 2, 3, 4):
            assert factorization_count(b, s).count == _oracle_factorizations(b, s)


def test_divisors_from_match_the_brute_force_list():
    for b in range(-2, 5001):
        assert _divisors_from(b) == tuple(f for f in range(2, b + 1)
                                          if b % f == 0)


def test_factorizations_enumeration_matches_count():
    for b, s in ((12, 3), (24, 4), (30, 2)):
        pats = list(factorizations(b, s))
        assert len(pats) == factorization_count(b, s).count
        assert len(set(pats)) == len(pats)
        for pat in pats:
            prod = 1
            for x in pat:
                prod *= x
            assert prod == b and all(x >= 2 for x in pat)
            assert list(pat) == sorted(pat, reverse=True)


def test_bell_numbers():
    assert bell_number(0) == 1
    assert bell_number(3) == 5
    assert bell_number(4) == 15
    assert [bell_number(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_linear_independent_count_examples():
    assert linear_independent_count(2, 2, 2) == 7
    assert linear_independent_count(2, 3, 2) == 42
    assert linear_independent_count(3, 1, 5) == 1  # empty product


def test_hypersurface_census_bounds_example():
    r = hypersurface_census_bounds(4, 2, 4, 9)
    assert r.g_b == 40 and r.m_s_b == 2
    assert r.hyp_rel_error == Fraction(2, 59049) + Fraction(2, 9 ** 40)
    assert not r.exceptional
    assert r.n_ind == linear_independent_count(4, 2, 9)
    assert r.reference == projective_count(r.d_b, 9) * projective_count(4, 9)


def test_hypersurface_census_bounds_exceptional_case():
    r = hypersurface_census_bounds(5, 2, 2, 3)
    assert r.exceptional  # b = 2 and n - s = 3
    assert r.irr_pattern_rel_error == Fraction(14 * 9, 3 ** 6)
    r2 = hypersurface_census_bounds(6, 2, 2, 3)
    assert not r2.exceptional
    assert r2.p_irr_lower <= 1


def test_pattern_landscape_examples():
    pl = pattern_landscape(12, 4, 3)
    dims = {e.pattern: e.big_d_total for e in pl.entries}
    assert dims == {(12, 1, 1): 1827, (6, 2, 1): 227, (4, 3, 1): 107,
                    (3, 2, 2): 62}
    assert pl.m_s_b == 4 and pl.dominance_strict
    assert pl.best_rival_margin == 1600 and pl.g_b == 1595 and pl.margin_ok

    pl = pattern_landscape(5, 3, 2)
    assert [e.pattern for e in pl.entries] == [(5, 1)]
    assert pl.g_b == 0 and pl.dominance_strict and pl.margin_ok

    # direct binomial arithmetic: |D(4,1)| = (C(7,3)-1) + (C(4,3)-1) = 37
    pl = pattern_landscape(4, 3, 2)
    dims = {e.pattern: e.big_d_total for e in pl.entries}
    assert dims == {(4, 1): 37, (2, 2): 18}
    assert pl.g_b == 15 and pl.best_rival_margin == 19 and pl.margin_ok


def test_degree_bounds_equal_chow_extraction():
    for n in range(2, 7):
        for s in range(1, n):
            for d in itertools.combinations_with_replacement(range(1, 5), s):
                d = tuple(sorted(d, reverse=True))
                if d[0] < 2:
                    continue
                nb = degree_bounds(n, s, d, "nons")
                ib = degree_bounds(n, s, d, "irr")
                ncls = chow_class("nons", n, s, d)
                icls = chow_class("irr", n, s, d)
                st = pattern_stats(n, s, d)
                for i in range(1, s + 1):
                    assert extract_bound(ncls, i) == nb.per_i[i - 1]
                    assert extract_bound(icls, i) == ib.per_i[i - 1]
                assert top_coefficient(ncls) == st.sigma ** (n - s + 1) * st.delta
                assert top_coefficient(icls) == st.sigma ** 2 * st.delta


def test_pattern_violations():
    with pytest.raises(PatternViolation):
        pattern_stats(2, 2, (2, 1))
    with pytest.raises(PatternViolation):
        pattern_landscape(1, 3, 2)
    with pytest.raises(PatternViolation):
        hypersurface_census_bounds(2, 2, 4, 3)
