"""Emptiness gate: examples, invariances, and geometric consequences."""

import random

import pytest

from cicensus import (ArityMismatch, DegreePattern, EmptyInput, Field,
                      MixedFields, Poly, PolySystem, TestSystem,
                      build_test_system, certify, compose_linear,
                      count_zf_points, enumerate_systems, macaulay_degree,
                      macaulay_instance, monomials, poly_parse,
                      projective_count, projective_empty, rank_over_field,
                      recipe_macaulay_degree)

F2 = Field(2)
F3 = Field(3)


def _ts(field, forms, degrees, tag="t"):
    return TestSystem(tag, field, forms[0].nvars, tuple(forms), tuple(degrees))


def _lin(field, nvars, j):
    return Poly.variable(field, nvars, j)


def test_macaulay_degree_examples():
    assert macaulay_degree((2, 1, 1)) == 2
    assert macaulay_degree((3, 2, 2)) == 5
    assert macaulay_degree((2, 2, 2, 2)) == 5
    with pytest.raises(EmptyInput):
        macaulay_degree(())


def test_projective_empty_examples():
    v = projective_empty(_ts(F3, [poly_parse("1:2,0,0", F3, 3),
                                  _lin(F3, 3, 1), _lin(F3, 3, 2)], (2, 1, 1)))
    assert v.empty and v.rank == 6 and v.ncols == 6

    v = projective_empty(_ts(F3, [poly_parse("1:1,1,0", F3, 3),
                                  _lin(F3, 3, 1), _lin(F3, 3, 2)], (2, 1, 1)))
    assert not v.empty  # common zero (1:0:0)

    v = projective_empty(_ts(F2, [poly_parse("1:2,0,0 + 1:0,1,1", F2, 3),
                                  _lin(F2, 3, 2), _lin(F2, 3, 1)], (2, 1, 1)))
    assert v.empty


def test_zero_form_adds_zero_rows():
    ts = _ts(F3, [Poly.zero(F3, 3, 2), _lin(F3, 3, 1), _lin(F3, 3, 2)],
             (2, 1, 1))
    v = projective_empty(ts)
    a = macaulay_instance(ts)
    assert not v.empty
    assert (v.rank, v.nrows, v.ncols) == (rank_over_field(a, F3), *a.shape)
    # X_1 and X_2 meet in the one point (1:0:0)
    assert (v.nrows, v.ncols, v.rank, v.deficit) == (7, 6, 5, 1)


def test_arity_and_field_checks():
    with pytest.raises(ArityMismatch):
        projective_empty(_ts(F3, [_lin(F3, 3, 0), _lin(F3, 3, 1)], (1, 1)))
    mixed = TestSystem("t", F3, 3,
                       (_lin(F3, 3, 0), _lin(F2, 3, 1), _lin(F3, 3, 2)),
                       (1, 1, 1))
    with pytest.raises(MixedFields):
        projective_empty(mixed)


def test_certify_examples():
    conic3 = PolySystem(DegreePattern(2, 1, (2,)), F3,
                        (poly_parse("1:2,0,0 + 1:0,1,1", F3, 3),))
    assert certify(conic3, "nons")
    crossed = PolySystem(DegreePattern(2, 1, (2,)), F3,
                         (poly_parse("1:1,1,0", F3, 3),))
    assert not certify(crossed, "nons")  # singular at (0:0:1)
    conic2 = PolySystem(DegreePattern(2, 1, (2,)), F2,
                        (poly_parse("1:2,0,0 + 1:0,1,1", F2, 3),))
    assert certify(conic2, "stci")


def _random_test_system(rng, field, n, degrees):
    forms = []
    for e in degrees:
        mons = monomials(n + 1, e)
        vec = [rng.randrange(field.q) for _ in mons]
        if not any(vec):
            vec[rng.randrange(len(vec))] = 1
        forms.append(Poly.from_terms(field, n + 1, zip(mons, vec), degree=e))
    return _ts(field, forms, degrees)


def _random_invertible(rng, field, size):
    from cicensus.macaulay import rank_over_field
    while True:
        mat = [[rng.randrange(field.q) for _ in range(size)] for _ in range(size)]
        if rank_over_field([row[:] for row in mat], field) == size:
            return mat


def test_verdict_invariances():
    rng = random.Random("invariance")
    for trial in range(25):
        field = Field(rng.choice((2, 3, 5)))
        n = rng.choice((1, 2))
        degrees = tuple(rng.choice(((2, 1, 1), (2, 2, 1), (3, 1, 1)))[:n + 1])
        ts = _random_test_system(rng, field, n, degrees)
        base = projective_empty(ts).empty

        # nonzero scalar on one form
        i = rng.randrange(n + 1)
        c = rng.randrange(1, field.q)
        scaled = list(ts.forms)
        scaled[i] = scaled[i].scale(c)
        assert projective_empty(_ts(field, scaled, degrees)).empty == base

        # permutation of the forms
        order = list(range(n + 1))
        rng.shuffle(order)
        permuted = [ts.forms[j] for j in order]
        pdeg = tuple(degrees[j] for j in order)
        assert projective_empty(_ts(field, permuted, pdeg)).empty == base

        # invertible linear change of variables
        mat = _random_invertible(rng, field, n + 1)
        changed = [compose_linear(f, mat) for f in ts.forms]
        assert projective_empty(_ts(field, changed, degrees)).empty == base


def test_verdict_monotone_under_row_operations():
    rng = random.Random("monotone")
    checked = 0
    for _ in range(60):
        field = Field(rng.choice((2, 3)))
        n = 2
        degrees = (2, 2, 1)
        ts = _random_test_system(rng, field, n, degrees)
        if not projective_empty(ts).empty:
            continue
        # add a multiple of one form to another form of equal degree
        forms = list(ts.forms)
        forms[1] = forms[1] + forms[0].scale(rng.randrange(1, field.q))
        if forms[1].is_zero():
            continue
        assert projective_empty(_ts(field, forms, degrees)).empty
        checked += 1
    assert checked >= 5


def test_recipe_macaulay_degrees_match_closed_forms():
    cases = [(2, 1, (2,)), (2, 1, (3,)), (3, 2, (2, 1)), (3, 2, (2, 2)),
             (4, 2, (3, 2)), (4, 3, (2, 2, 1)), (5, 2, (4, 3))]
    for n, s, d in cases:
        pat = DegreePattern(n, s, d)
        forms = tuple(Poly.monomial(F3, n + 1, (di,) + (0,) * n) for di in pat.d)
        system = PolySystem(pat, F3, forms)
        for cert in ("stci", "ci", "nons", "irr"):
            ts = build_test_system(system, cert)
            assert macaulay_degree(ts.degrees) == recipe_macaulay_degree(n, s, d, cert)


def test_linear_systems_match_determinant_oracle():
    # n+1 linear forms share a projective zero iff their coefficient
    # matrix is singular, an independent ground truth for the gate
    from cicensus.macaulay import rank_over_field
    rng = random.Random("linear-oracle")
    for _ in range(150):
        field = Field(rng.choice((2, 3, 5)))
        n = rng.choice((1, 2, 3))
        mat = [[rng.randrange(field.q) for _ in range(n + 1)]
               for _ in range(n + 1)]
        forms = []
        for row in mat:
            if not any(row):
                row[rng.randrange(n + 1)] = 1
            forms.append(Poly.from_terms(
                field, n + 1,
                [(tuple(1 if j == m else 0 for j in range(n + 1)), c)
                 for m, c in enumerate(row)], degree=1))
        invertible = rank_over_field(mat, field) == n + 1
        verdict = projective_empty(_ts(field, forms, (1,) * (n + 1)))
        assert verdict.empty == invertible


def test_stci_single_form_matches_leading_coefficient():
    # slicing with X_1..X_n leaves c * X_0^d, so the certificate is
    # exactly "leading coefficient nonzero"
    rng = random.Random("stci-oracle")
    for _ in range(60):
        q = rng.choice((2, 3, 5))
        field = Field(q)
        n = rng.choice((2, 3))
        d = rng.choice((2, 3))
        mons = monomials(n + 1, d)
        vec = [rng.randrange(q) for _ in mons]
        if not any(vec):
            vec[-1] = 1
        f = Poly.from_terms(field, n + 1, zip(mons, vec), degree=d)
        system = PolySystem(DegreePattern(n, 1, (d,)), field, (f,))
        lead = (d,) + (0,) * n
        assert certify(system, "stci") == (lead in f.terms)


def test_diagonal_quadrics_smooth_iff_all_coefficients_nonzero():
    for q in (3, 5):
        field = Field(q)
        smooth = Poly.from_terms(
            field, 3, [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), q - 1)])
        system = PolySystem(DegreePattern(2, 1, (2,)), field, (smooth,))
        assert certify(system, "nons")
        cone = Poly.from_terms(field, 3, [((2, 0, 0), 1), ((0, 2, 0), 1)])
        system = PolySystem(DegreePattern(2, 1, (2,)), field, (cone,))
        assert not certify(system, "nons")  # singular at (0:0:1)


def test_nons_certificate_sound_for_conics():
    # over odd q a conic is smooth iff its symmetric coefficient matrix is
    # invertible; the certificate may miss smooth conics but must never
    # pass a singular one
    from cicensus.macaulay import rank_over_field
    field = F3
    inv2 = field.inv(2)
    certified = full_rank = 0
    for system in enumerate_systems(2, 1, (2,), 3):
        f = system.forms[0]
        mat = [[0] * 3 for _ in range(3)]
        for e, c in f.terms.items():
            i, j = [v for v, x in enumerate(e) for _ in range(x)]
            if i == j:
                mat[i][i] = c
            else:
                half = field.mul(c, inv2)
                mat[i][j] = field.add(mat[i][j], half)
                mat[j][i] = field.add(mat[j][i], half)
        full = rank_over_field(mat, field) == 3
        if certify(system, "nons"):
            certified += 1
            assert full
        full_rank += full
    assert 0 < certified <= full_rank


def test_ci_certified_point_counts_respect_degree_bound():
    # dimension-1 case: every ci-certified conic meets the delta * p_m cap
    # over the base field and its quadratic extension
    for q in (2, 3):
        bound_checked = 0
        for system in enumerate_systems(2, 1, (2,), q):
            if not certify(system, "ci"):
                continue
            delta = system.pattern.delta
            for m in (1, 2):
                pts = count_zf_points(system, ext_degree=m)
                assert pts <= delta * projective_count(1, q ** m)
            bound_checked += 1
        assert bound_checked > 0
