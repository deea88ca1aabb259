"""Jacobian minors computed on coefficient arrays, slice first, against
the Poly reference: partials, prime-subfield scalings and the cofactor
determinant in all n+1 variables, restricted afterwards."""

import numpy as np
import pytest

from cicensus import (CERTS, DegreePattern, Field, Poly, PolySystem,
                      cert_recipe, jacobian_minor, monomials, poly_parse,
                      sample_system)
from cicensus.poly import coeff_array, determinant, minor_arrays

PATTERNS = ((3, 1, (3,)), (4, 1, (2,)), (3, 2, (2, 1)), (4, 2, (2, 2)),
            (5, 2, (3, 1)), (5, 3, (2, 2, 1)))


def _reference_minor(system, k):
    """J_k the Poly way (see ``jacobian_minor`` for the columns)."""
    n, s = system.pattern.n, system.pattern.s
    field = system.field

    def directional(f, t):
        acc = Poly.zero(field, n + 1, f.degree - 1)
        for j in range(n + 1):
            acc = acc + f.partial(j).scale(field.from_int(t ** j))
        return acc

    if k <= s + 2:
        cols = [[f.partial(j) for j in range(1, s)] for f in system.forms]
    else:
        cols = [[directional(f, k * s + c) for c in range(1, s)]
                for f in system.forms]
    rows = [row + [f.partial(k - 1)] for row, f in zip(cols, system.forms)]
    return determinant(rows, field, n + 1, system.pattern.sigma)


def _restricted(f, v):
    """Coefficient vector of f with X_v, ... set to 0, in monomials(v, .)."""
    pad = (0,) * (f.nvars - v)
    return [f.terms.get(m + pad, 0) for m in monomials(v, f.degree)]


def _widths(n, s):
    """(v, minors) of every recipe that has minors."""
    out = {}
    for cert in CERTS:
        minors = cert_recipe(cert, n, s)[0]
        if minors:
            out[s + len(minors)] = minors
    return sorted(out.items())


@pytest.mark.parametrize("q", (2, 3, 16, 27, 101))
@pytest.mark.parametrize("n,s,d", PATTERNS)
def test_array_minors_equal_the_poly_reference(n, s, d, q):
    systems = [sample_system(n, s, d, q, f"minors:{i}") for i in range(3)]
    pattern, field = systems[0].pattern, systems[0].field
    forms = [coeff_array([x.forms[i] for x in systems], n + 1, e)
             for i, e in enumerate(d)]
    refs = [{k: _reference_minor(x, k) for k in range(s + 1, n + 2)}
            for x in systems]
    for x, ref in zip(systems, refs):
        assert all(jacobian_minor(x, k) == g and g.degree == pattern.sigma
                   for k, g in ref.items())
    assert any(k >= s + 3 for k in refs[0]) == (n - s >= 2)
    for v, minors in _widths(n, s):
        got = minor_arrays(forms, pattern, field, minors, v)
        assert [g.shape for g in got] == (
            [(3, len(monomials(v, pattern.sigma)))] * len(minors))
        for t, k in enumerate(minors):
            assert got[t].tolist() == [_restricted(ref[k], v) for ref in refs]


def test_minor_that_cancels_keeps_degree_sigma():
    # over F_2 the partials of (X0 + X1 + X2 + X3)^2 vanish, so every
    # minor of this (3, 2, (2, 2)) system cancels to zero
    f2 = Field(2)
    forms = (poly_parse("1:2,0,0,0 + 1:0,2,0,0 + 1:0,0,2,0 + 1:0,0,0,2",
                        f2, 4),
             poly_parse("1:1,1,0,0 + 1:0,0,1,1", f2, 4))
    system = PolySystem(DegreePattern(3, 2, (2, 2)), f2, forms)
    arrays = [coeff_array([f], 4, 2) for f in forms]
    for k in range(3, 5):
        minor = jacobian_minor(system, k)
        assert minor.is_zero() and minor.degree == 2
        assert minor == _reference_minor(system, k)
        assert minor.serialize() == "0:2,0,0,0"
    for v, minors in _widths(3, 2):
        for g in minor_arrays(arrays, system.pattern, f2, minors, v):
            assert g.shape == (1, len(monomials(v, 2))) and not g.any()
    assert np.array_equal(arrays[0], coeff_array(forms[:1], 4, 2))
