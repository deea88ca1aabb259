"""Poly.values, the block evaluator of the point search and of eval_at,
against a term walk on Python ints through the scalar Field.mul and
Field.add, over prime and extension fields and through embeddings."""

import numpy as np
import pytest

from cicensus import Field, field_from_order, poly_parse, sample_system


def term_walk(f, point, ext, emb):
    """sum over the terms c x^e of emb[c] * prod x_j^e_j, one scalar
    Field.mul per variable factor and one Field.add per term."""
    acc = 0
    for e, c in f.terms.items():
        t = emb[c]
        for x, k in zip(point, e):
            for _ in range(k):
                t = ext.mul(t, x)
        acc = ext.add(acc, t)
    return acc


def _forms(q):
    field = field_from_order(q)
    forms = list(sample_system(2, 1, (3,), q, f"values:{q}").forms)
    forms += sample_system(3, 2, (2, 1), q, f"values:{q}").forms
    # coefficient-1 terms take the evaluator's shortcut
    forms.append(poly_parse("1:3,0,0 + 1:1,1,1 + 1:0,0,3", field, 3))
    return field, forms


@pytest.mark.parametrize("q,m", [(3, 1), (101, 1), (4, 1), (27, 1),
                                 (25, 1), (3, 2), (101, 2), (4, 2),
                                 (9, 2), (2, 3), (4, 3)])
def test_values_match_the_scalar_term_walk(q, m):
    field, forms = _forms(q)
    ext, emb = field.extension(m)
    assert ext.q == q ** m
    rng = np.random.default_rng(q * 10 + m)
    for f in forms:
        pts = rng.integers(0, ext.q, size=(150, f.nvars), dtype=np.int64)
        pts[:5] = 0  # zero coordinates, and the zero vector
        pts[5:10, 0] = 1
        got = f.values(pts, ext, emb)
        assert got.dtype == np.int64
        assert got.tolist() == [term_walk(f, x, ext, emb)
                                for x in pts.tolist()]


def test_zero_form_is_zero_everywhere():
    field = Field(5)
    f = poly_parse("0:2,0,0", field, 3)
    pts = np.arange(12, dtype=np.int64).reshape(4, 3) % 5
    assert f.values(pts, field, range(5)).tolist() == [0] * 4


@pytest.mark.parametrize("q,m", [(5, 1), (4, 2), (9, 1), (3, 2)])
@pytest.mark.parametrize("text", ["1:1,0,0", "1:0,0,1", "2:1,0,0",
                                  "1:2,0,0", "1:1,0,0 + 1:0,1,0"])
def test_values_are_never_a_view_of_the_points(q, m, text):
    field = field_from_order(q)
    ext, emb = field.extension(m)
    f = poly_parse(text, field, 3)
    pts = np.arange(30, dtype=np.int64).reshape(10, 3) % ext.q
    got = f.values(pts, ext, emb)
    assert not np.shares_memory(got, pts)
    assert got.tolist() == [term_walk(f, x, ext, emb) for x in pts.tolist()]
    got[:] = 0  # writing to the values leaves the points as they were
    assert pts.tolist() == (np.arange(30).reshape(10, 3) % ext.q).tolist()


@pytest.mark.parametrize("q,m,c", [(5, 1, "3"), (5, 1, "1"), (9, 1, "1|2"),
                                   (3, 2, "2"), (4, 2, "1"), (4, 2, "0|1")])
def test_a_constant_form_is_that_constant_on_every_row(q, m, c):
    field = field_from_order(q)
    ext, emb = field.extension(m)
    f = poly_parse(f"{c}:0,0,0", field, 3)
    assert f.degree == 0
    pts = np.arange(12, dtype=np.int64).reshape(4, 3) % ext.q
    got = f.values(pts, ext, emb)
    assert got.dtype == np.int64
    assert got.tolist() == [emb[field.parse_coeff(c)]] * 4


@pytest.mark.parametrize("text", ["0:2,0,0", "3:0,0,0", "1:1,0,0",
                                  "2:1,1,0 + 1:0,0,2"])
def test_an_empty_block_has_no_values(text):
    field = Field(5)
    f = poly_parse(text, field, 3)
    got = f.values(np.empty((0, 3), dtype=np.int64), field, range(5))
    assert got.dtype == np.int64
    assert got.shape == (0,)
