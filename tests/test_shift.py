"""The shift table behind every multiplication matrix, checked against
tuple addition, a per-term Macaulay reference and the smooth conic count,
and the stacked factor search against a per-candidate one."""

import numpy as np
import pytest

import cicensus.census as census
from cicensus import (DegreeMismatch, Field, TestSystem, brute_force_absirr,
                      build_test_system, cert_recipe, coordinate_slice,
                      enumerate_systems, macaulay_degree, macaulay_instance,
                      monomials, projective_empty, projective_points,
                      rank_over_field, sample_system, shift_index)


@pytest.mark.parametrize("nvars,degree,e", [
    (3, 4, 2), (3, 4, 4), (3, 4, 0), (4, 3, 1), (1, 5, 2), (1, 3, 3),
    (5, 4, 3)])
def test_shift_index_matches_tuple_addition(nvars, degree, e):
    mons = monomials(nvars, degree)
    table = shift_index(nvars, degree, e)
    assert table.shape == (len(monomials(nvars, degree - e)),
                           len(monomials(nvars, e)))
    for i, m in enumerate(monomials(nvars, degree - e)):
        for j, x in enumerate(monomials(nvars, e)):
            assert mons[table[i, j]] == tuple(a + b for a, b in zip(m, x))
    assert not table.flags.writeable


def reference_matrix(ts):
    """One row per multiplier and form, one write per term."""
    n_deg = macaulay_degree(ts.degrees)
    cols = {x: j for j, x in enumerate(monomials(ts.nvars, n_deg))}
    rows = []
    for form, e in zip(ts.forms, ts.degrees):
        for m in monomials(ts.nvars, n_deg - e):
            row = [0] * len(cols)
            for x, c in form.terms.items():
                row[cols[tuple(a + b for a, b in zip(m, x))]] = c
            rows.append(row)
    return rows


@pytest.mark.parametrize("q", (3, 16, 101))
def test_macaulay_instance_matches_reference(q):
    system = sample_system(3, 2, (2, 2), q, "shift")
    coords = cert_recipe("ci", 3, 2)[1]
    for ts in (build_test_system(system, "nons"),
               coordinate_slice(build_test_system(system, "ci"), coords)):
        a = macaulay_instance(ts)
        assert a.dtype == np.int64
        assert a.tolist() == reference_matrix(ts)
    assert len(coords) and ts.nvars < system.pattern.n + 1


def test_a_form_listed_with_another_degree_is_refused():
    ts = build_test_system(sample_system(2, 1, (2,), 5, "shift"), "nons")
    wrong = TestSystem(ts.cert, ts.field, ts.nvars, ts.forms, (1, 1, 1))
    with pytest.raises(DegreeMismatch):
        projective_empty(wrong)


def test_rank_over_field_takes_lists_and_arrays_alike():
    field = Field(2, 4)
    rng = np.random.default_rng(7)
    a = rng.integers(0, field.q, size=(9, 7), dtype=np.int64)
    a[4] = a[1]
    a[:, 6] = 0
    before = a.copy()
    assert rank_over_field(a, field) == rank_over_field(a.tolist(), field) == 6
    assert np.array_equal(a, before)


@pytest.mark.parametrize("q", (2, 3))
def test_absirr_passes_exactly_the_smooth_conics(q):
    # P^5(F_q) holds (q^6 - 1)/(q - 1) conics, of which q^5 - q^2 are smooth
    passed = sum(brute_force_absirr(system.forms[0])
                 for system in enumerate_systems(2, 1, (2,), q))
    assert passed == q ** 5 - q ** 2


def _absirr_reference(f):
    """brute_force_absirr one candidate factor g at a time, in the order
    of projective_points, one rank_over_field call each."""
    deg, nv = f.degree, f.nvars
    f_vec = [f.terms.get(x, 0) for x in monomials(nv, deg)]
    for m in range(1, deg + 1):
        ext, emb = f.field.extension(m)
        for a in range(1, deg // 2 + 1):
            shift = shift_index(nv, deg, a)
            nb = len(shift)
            rows = np.zeros((nb + 1, len(f_vec)), dtype=np.int64)
            rows[nb] = [emb[c] for c in f_vec]
            for g in projective_points(ext, shift.shape[1] - 1):
                rows[np.arange(nb)[:, None], shift] = g
                if rank_over_field(rows, ext) == nb:
                    return False
    return True


@pytest.mark.parametrize("d,q,count", [
    (2, 2, None),  # every conic over F_2
    (2, 3, 60), (2, 4, 30), (3, 3, 12)])
def test_stacked_factor_search_equals_the_scalar_one(monkeypatch, d, q,
                                                      count):
    # blocks of 5 candidates: P^2(F_4) alone spans 5 blocks, so a search
    # that drops a block misses factors
    monkeypatch.setattr(census, "_BLOCK", 5)
    if count is None:
        forms = [x.forms[0] for x in enumerate_systems(2, 1, (d,), q)]
    else:
        forms = [sample_system(2, 1, (d,), q, f"factor:{i}").forms[0]
                 for i in range(count)]
    got = [brute_force_absirr(f) for f in forms]
    assert got == [_absirr_reference(f) for f in forms]
    assert len(set(got)) == 2  # both verdicts occur
