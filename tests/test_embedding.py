"""Fields built from their order, and extensions shared by equal fields,
so that a form evaluates over an extension built from any field object
equal to its own."""

import pytest

from cicensus import (Field, IncompatibleFields, NotPrime, field_from_order,
                      sample_system)


@pytest.mark.parametrize("q", (-4, 0, 1, 6, 12, 100))
def test_field_from_order_refuses_non_prime_powers(q):
    with pytest.raises(NotPrime):
        field_from_order(q)


@pytest.mark.parametrize("q,spec", ((2, "2"), (49, "7^2"), (1024, "2^10"),
                                    (4001, "4001"), (1331, "11^3")))
def test_field_from_order_finds_p_and_k(q, spec):
    assert field_from_order(q).spec_str() == spec


def test_eval_over_extension_of_an_equal_field():
    f = sample_system(2, 1, (2,), 4, 3).forms[0]
    other = field_from_order(4)
    assert other == f.field and other is not f.field
    ext, emb = other.extension(2)
    assert f.field.extension(2)[0] is ext
    for point in ((1, 0, 0), (1, 5, 11), (0, 1, 15)):
        expect = 0
        for e, c in f.terms.items():
            t = emb[c]
            for x, k in zip(point, e):
                t = ext.mul(t, ext.pow(x, k))
            expect = ext.add(expect, t)
        assert f.eval_at(point, ext) == expect


def test_no_embedding_into_an_unknown_modulus():
    f = sample_system(2, 1, (2,), 4, 3).forms[0]
    ext = Field(2, 4, modulus=(1, 0, 0, 1, 1))   # x^4 + x^3 + 1
    assert ext != f.field.extension(2)[0]
    with pytest.raises(IncompatibleFields):
        f.eval_at((1, 0, 0), ext)
