"""The canonical term form shared by Poly and ChowClass: arithmetic
against scalar evaluation, cancellation, generated forms, and the point
scan's refusal of spaces it cannot index."""

import random
import tracemalloc

import pytest

from cicensus import (ChowClass, Field, Poly, TooLarge, chow_class,
                      count_zf_points, enumerate_systems, field_from_order,
                      monomials, sample_system)


def _random_poly(rng, field, nvars, degree):
    """A form from random pairs; exponents repeat so like terms merge."""
    mons = monomials(nvars, degree)
    pairs = [(rng.choice(mons), rng.randrange(field.q))
             for _ in range(2 * len(mons))]
    return Poly.from_terms(field, nvars, pairs, degree=degree)


def _partial_at(f, j, x):
    """d f / d X_j at x, summed term by term without Poly arithmetic."""
    field = f.field
    acc = 0
    for e, c in f.terms.items():
        if e[j]:
            t = field.mul(c, field.from_int(e[j]))
            for i, ei in enumerate(e):
                t = field.mul(t, field.pow(x[i], ei - (i == j)))
            acc = field.add(acc, t)
    return acc


def _assert_canonical(f):
    assert all(c != 0 for c in f.terms.values())
    assert all(sum(e) == f.degree for e in f.terms)


@pytest.mark.parametrize("q", [3, 4, 9, 101])
def test_arithmetic_agrees_with_eval(q):
    field = field_from_order(q)
    rng = random.Random(q)
    for _ in range(20):
        f, g = (_random_poly(rng, field, 3, 2) for _ in range(2))
        h = _random_poly(rng, field, 3, 1)
        x = tuple(rng.randrange(q) for _ in range(3))
        fx, gx, hx = f.eval_at(x), g.eval_at(x), h.eval_at(x)
        results = [(f + g, field.add(fx, gx)), (f * h, field.mul(fx, hx)),
                   (f * g, field.mul(fx, gx))]
        results += [(f.partial(j), _partial_at(f, j, x)) for j in range(3)]
        for p, value in results:
            _assert_canonical(p)
            assert p.eval_at(x) == value


def test_full_cancellation_keeps_degree():
    f = _random_poly(random.Random(0), Field(5), 3, 3)
    assert not f.is_zero()
    z = f + (-f)
    assert z.is_zero() and z.degree == 3
    d = Poly.monomial(Field(3), 2, (3, 0)).partial(0)
    assert d.is_zero() and d.degree == 2


def test_chow_class_plus_negation_is_empty():
    c = chow_class("irr", 4, 2, (3, 2))
    neg = ChowClass(c.n, c.s, {e: -v for e, v in c.coeffs.items()})
    assert c.coeffs and (c + neg).coeffs == {}


def _assert_as_from_terms(f):
    g = Poly.from_terms(f.field, f.nvars, f.terms.items(), degree=f.degree)
    assert g == f and g.degree == f.degree
    assert list(g.terms.items()) == list(f.terms.items())
    _assert_canonical(f)


def test_generated_forms_equal_from_terms():
    for system in enumerate_systems(2, 1, (2,), 3):
        for f in system.forms:
            _assert_as_from_terms(f)
    for q in (4, 101):
        for seed in range(50):
            for f in sample_system(3, 2, (2, 2), q, seed).forms:
                _assert_as_from_terms(f)


def test_point_count_refuses_unindexable_space():
    # P^7(F_1009) has about 1.07e21 points, past int64
    with pytest.raises(TooLarge):
        count_zf_points(sample_system(7, 2, (2, 2), 1009, 0))


def test_prime_field_self_embedding_is_small():
    field = Field(1_000_003)
    tracemalloc.start()
    try:
        ext, emb = field.extension(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ext is field and peak < 1 << 20
    assert len(emb) == field.q
    assert all(emb[c] == c for c in (0, 1, 2, 999_999, field.q - 1))
