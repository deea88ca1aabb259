"""Point search on int64 blocks: the block order, counts and witnesses
against the scalar Poly.eval_at reference."""

import numpy as np
import pytest

from cicensus import (DegreePattern, Field, PolySystem, TestSystem,
                      brute_force_empty, build_test_system, count_zf_points,
                      field_from_order, poly_parse, projective_points,
                      sample_system, trial_seed)
from cicensus.census import _BLOCK, _common_zeros, _point_blocks


def _scalar_zeros(forms, field, n, m):
    """Common zeros in P^n(F_{q^m}), one eval_at per point and form."""
    ext, _ = field.extension(m)
    return [x for x in projective_points(ext, n)
            if all(f.eval_at(x, ext) == 0 for f in forms)]


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (3, 2), (3, 4), (16, 2),
                                 (2 ** 13, 1), (64, 2), (16, 3)])
def test_blocks_follow_projective_points(q, n):
    field = field_from_order(q)
    blocks = list(_point_blocks(field, n))
    assert all(b.dtype == np.int64 and b.shape[1] == n + 1 for b in blocks)
    assert all(0 < len(b) <= _BLOCK for b in blocks)
    assert (np.concatenate(blocks).tolist()
            == [list(x) for x in projective_points(field, n)])


def test_block_boundary_cases_cross_a_block():
    # 8193, 4161 and 4369 points: one point, or a few, past a full block
    sizes = [[len(b) for b in _point_blocks(field_from_order(q), n)]
             for q, n in [(2 ** 13, 1), (64, 2), (16, 3)]]
    assert sizes == [[_BLOCK, _BLOCK, 1], [_BLOCK, 65], [_BLOCK, 273]]


@pytest.mark.parametrize("q", (3, 4))
@pytest.mark.parametrize("n,s,d,exts", [(2, 1, (2,), (1, 2, 3)),
                                        (3, 2, (2, 1), (1, 2)),
                                        (3, 2, (2, 2), (1, 2))])
def test_count_matches_scalar_reference(q, n, s, d, exts):
    for i in range(3):
        system = sample_system(n, s, d, q, trial_seed("points", i))
        for m in exts:
            want = len(_scalar_zeros(system.forms, system.field, n, m))
            assert count_zf_points(system, ext_degree=m) == want


def test_count_over_several_blocks():
    # P^2(F_64) holds 4161 points, more than one block
    f4 = Field(2, 2)
    f = poly_parse("1:2,0,0 + 2:0,1,1 + 3:0,2,0", f4, 3)
    system = PolySystem(DegreePattern(2, 1, (2,)), f4, (f,))
    assert count_zf_points(system, ext_degree=3) == 65  # a smooth conic
    assert count_zf_points(system, ext_degree=3) == len(
        _scalar_zeros(system.forms, f4, 2, 3))


def _scalar_search(ts, max_ext):
    for m in range(1, max_ext + 1):
        zeros = _scalar_zeros(ts.forms, ts.field, ts.nvars - 1, m)
        if zeros:
            return zeros[0], m
    return None, None


@pytest.mark.parametrize("q", (2, 3, 4))
def test_witness_is_first_scalar_zero(q):
    found = 0
    for i in range(8):
        system = sample_system(2, 1, (2,), q, trial_seed("witness", i))
        for cert in ("stci", "nons"):
            ts = build_test_system(system, cert)
            verdict = brute_force_empty(ts, max_ext=2)
            witness, m = _scalar_search(ts, 2)
            assert verdict.witness == witness
            assert verdict.ext_degree == m
            assert verdict.nonempty == (witness is not None)
            assert verdict.searched_up_to == (2 if witness is None else m)
            assert witness is None or all(type(c) is int for c in witness)
            found += witness is not None
    assert found  # both outcomes of the search are exercised
    assert found < 16


def test_identically_zero_form_vanishes_everywhere():
    # over F_2, X0^2 + X1^2 + X2^2 = (X0 + X1 + X2)^2 has every partial 0,
    # so both nons minors collapse to zero forms
    f2 = Field(2)
    f = poly_parse("1:2,0,0 + 1:0,2,0 + 1:0,0,2", f2, 3)
    ts = build_test_system(PolySystem(DegreePattern(2, 1, (2,)), f2, (f,)),
                           "nons")
    assert [g.is_zero() for g in ts.forms] == [False, True, True]
    counts = []
    for m in (1, 2, 3):
        ext, emb = f2.extension(m)
        counts.append(sum(len(_common_zeros(ts.forms, ext, emb, pts))
                          for pts in _point_blocks(ext, 2)))
    assert counts == [3, 5, 9]  # the points of the line X0 + X1 + X2 = 0
    verdict = brute_force_empty(ts)
    assert (verdict.witness, verdict.ext_degree) == ((1, 0, 1), 1)
    zero = TestSystem("oracle", f2, 3, (ts.forms[1],) * 3, (1, 1, 1))
    assert brute_force_empty(zero).witness == (1, 0, 0)
