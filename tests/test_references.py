"""Shared primitives against the hand-written constructions they replaced,
kept here as references: extension embeddings, the monomial list, the
oracle's degree tuples, the point budget of the brute-force search, the
size of a system space, and the closed-form cap on every Macaulay matrix
the gate builds."""

import itertools

import pytest

from cicensus import (Field, Poly, SearchSpaceTooLarge, TestSystem, TooLarge,
                      bounds_report, brute_force_empty, build_test_system,
                      decide, enumerate_systems, macaulay_instance, monomials,
                      projective_count, projective_empty, sample_system,
                      system_space_size)
from cicensus import census as census_mod
from cicensus import macaulay as mac_mod
from cicensus.bounds import macaulay_shape
from cicensus.poly import grevlex_key

# (p, k, m): towers F_{p^k} -> F_{p^(km)} over every non-prime base field
# small enough to scan, in characteristics 2, 3, 5 and 7
TOWERS = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 2, 3),
          (5, 2, 2), (3, 3, 2), (7, 2, 2))


def _scalar_extension(base: Field, m: int):
    """The embedding table of base into F_{q^m}, one element at a time:
    the first root of the base modulus in encoding order by Horner's
    rule, then sum c_i root^i for each base element."""
    ext = Field(base.p, base.k * m)
    root = None
    for r in ext.elements():
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, r), c % base.p)
        if acc == 0:
            root = r
            break
    emb = []
    for a in base.elements():
        img, rp = 0, 1
        for c in base.coeffs(a):
            img = ext.add(img, ext.mul(c, rp))
            rp = ext.mul(rp, root)
        emb.append(img)
    return ext, emb


@pytest.mark.parametrize("p,k,m", TOWERS)
def test_extension_embedding_equals_the_scalar_construction(p, k, m):
    base = Field(p, k)
    ext, emb = base.extension(m)
    ref_ext, ref_emb = _scalar_extension(base, m)
    assert ext == ref_ext and ext.q == p ** (k * m)
    assert emb == ref_emb and all(type(x) is int for x in emb)


def test_monomials_equal_the_sorted_brute_force_list():
    for nvars in range(1, 7):
        by_degree = {}
        for e in itertools.product(range(9), repeat=nvars):
            if sum(e) <= 8:
                by_degree.setdefault(sum(e), []).append(e)
        for degree in range(9):
            ref = tuple(sorted(by_degree[degree], key=grevlex_key))
            assert monomials(nvars, degree) == ref
    assert monomials(1, 0) == ((0,),) and monomials(4, 0) == ((0,) * 4,)


def _recursive_degree_tuples(nforms, max_product):
    out = []

    def rec(prefix, prod):
        if len(prefix) == nforms:
            out.append(tuple(prefix))
            return
        e = 1
        while prod * e <= max_product:
            rec(prefix + [e], prod * e)
            e += 1
    rec([], 1)
    return tuple(out)


def test_degree_tuples_equal_the_recursion():
    for nforms in range(1, 6):
        for m in range(1, 13):
            assert (census_mod._degree_tuples(nforms, m)
                    == _recursive_degree_tuples(nforms, m))


def test_brute_force_budget_is_inclusive():
    field = Field(3)
    forms = (Poly.monomial(field, 3, (2, 0, 0)), Poly.variable(field, 3, 1),
             Poly.variable(field, 3, 2))
    ts = TestSystem("t", field, 3, forms, (2, 1, 1))
    total = sum(projective_count(2, 3 ** m) for m in range(1, 4))
    v = brute_force_empty(ts, max_ext=3, point_cap=total)
    assert not v.nonempty and v.searched_up_to == 3
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_empty(ts, max_ext=3, point_cap=total - 1)


def test_system_space_size_matches_report_and_enumeration():
    for n, s, d, q in ((2, 1, (2,), 2), (2, 1, (2,), 3), (3, 2, (2, 1), 2)):
        size = system_space_size(n, s, d, q)
        assert size == bounds_report(n, s, d, q).p_big_d
        assert size == sum(1 for _ in enumerate_systems(n, s, d, q))
    assert census_mod.system_space_size is system_space_size


def test_macaulay_shape_is_the_built_shape():
    field = Field(5)
    for degrees in ((1,), (2, 2), (3, 1, 2), (2, 2, 2, 1)):
        v = len(degrees)
        forms = tuple(Poly.monomial(field, v, (e,) + (0,) * (v - 1))
                      for e in degrees)
        ts = TestSystem("t", field, v, forms, degrees)
        assert macaulay_instance(ts).shape == macaulay_shape(degrees)


def test_every_matrix_the_gate_builds_is_capped(monkeypatch):
    system = sample_system(3, 2, (2, 2), 101, 0)
    ts = build_test_system(system, "ci")
    assert macaulay_shape(ts.degrees) == (50, 35)
    monkeypatch.setattr(mac_mod, "DEFAULT_MAX_CELLS", 100)

    def built(*args):
        raise AssertionError("a matrix was built past the cap")
    monkeypatch.setattr(mac_mod, "shift_index", built)
    monkeypatch.setattr(mac_mod, "_stack", built)
    with pytest.raises(TooLarge):
        decide(system, "ci")
    with pytest.raises(TooLarge):
        projective_empty(ts)
    with pytest.raises(TooLarge):
        macaulay_instance(ts)
