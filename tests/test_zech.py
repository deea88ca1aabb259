"""Sums and differences in odd-characteristic extension fields, which go
through the Zech-logarithm table, against the digit-by-digit rule: add
or subtract the base-p digits of the encodings, each mod p."""

import operator

import numpy as np
import pytest

import cicensus.field as field_module
from cicensus import Field

# every pair of elements is checked over these fields
SMALL = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (3, 5)]
# random arrays over these: F_1331, F_{7^5} and F_{3^12}, the largest
# table an odd-characteristic field builds under the 2^20 cap
LARGE = [(11, 3), (7, 5), (3, 12)]


def digitwise(op, a, b, p, k):
    """op (add or sub) on the base-p digits of a and b, each mod p."""
    out = 0
    for i in range(k):
        w = p ** i
        out += op(a // w, b // w) % p * w
    return out


def check(f, a, b):
    """add, sub, neg and submul with c = b, y = a on a and b, against
    the digit rule; the product in submul is the table product, which
    tests/test_kernel.py checks against schoolbook multiplication."""
    p, k = f.p, f.k
    assert np.array_equal(f.add(a, b), digitwise(operator.add, a, b, p, k))
    assert np.array_equal(f.sub(a, b), digitwise(operator.sub, a, b, p, k))
    assert np.array_equal(f.neg(b), digitwise(operator.sub, 0, b, p, k))
    assert np.array_equal(f.submul(a, b, a),
                          digitwise(operator.sub, a, f.mul(b, a), p, k))


@pytest.mark.parametrize("p,k", SMALL)
def test_every_pair(p, k):
    f = Field(p, k)
    a = np.repeat(np.arange(f.q, dtype=np.int64), f.q)
    b = np.tile(np.arange(f.q, dtype=np.int64), f.q)
    check(f, a, b)
    # both operand orders of a Python int with an array
    for x in (0, 1, f.q - 1):
        assert np.array_equal(f.add(a, x), digitwise(operator.add, a, x, p, k))
        assert np.array_equal(f.sub(x, b), digitwise(operator.sub, x, b, p, k))


@pytest.mark.parametrize("p,k", SMALL)
def test_python_ints_return_ints(p, k):
    f = Field(p, k)
    step = max(1, f.q // 40)
    for a in range(0, f.q, step):
        for b in range(f.q):
            for op, name in ((operator.add, "add"), (operator.sub, "sub")):
                got = getattr(f, name)(a, b)
                assert type(got) is int
                assert got == digitwise(op, a, b, p, k)
        assert type(f.neg(a)) is int
        assert f.neg(a) == digitwise(operator.sub, 0, a, p, k)
        got = f.submul(a, 2, a)
        assert type(got) is int
        assert got == digitwise(operator.sub, a, f.mul(2, a), p, k)


@pytest.mark.parametrize("p,k", LARGE)
@pytest.mark.parametrize("shape", [(1300,), (40, 56), (5, 12, 20)])
def test_random_arrays(p, k, shape):
    f = Field(p, k)
    rng = np.random.default_rng(f.q)
    a = rng.integers(0, f.q, shape, dtype=np.int64)
    b = rng.integers(0, f.q, shape, dtype=np.int64)
    # planted zeros in either operand and in both, and b = a, b = -a
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    n = flat_a.size
    cells = rng.permutation(n)[:5 * (n // 10)].reshape(5, -1)
    flat_a[cells[0]] = 0
    flat_b[cells[1]] = 0
    flat_a[cells[2]] = flat_b[cells[2]] = 0
    flat_b[cells[3]] = flat_a[cells[3]]
    flat_b[cells[4]] = digitwise(operator.sub, 0, flat_a[cells[4]], p, k)
    check(f, a, b)
    assert f.add(a, b).shape == f.sub(a, b).shape == shape
    assert f.add(a, b).dtype == np.int64


def test_zech_table():
    f = Field(3, 5)
    exp, log, zech = f._load_tables()[0]
    q = f.q
    d = np.arange(q - 1)
    one_plus = digitwise(operator.add, exp[d], 1, f.p, f.k)
    assert np.array_equal(zech, log[one_plus])
    # g^((q-1)/2) = -1, so 1 + g^d is zero there and only there
    assert np.flatnonzero(zech == log[0]).tolist() == [(q - 1) // 2]
    # exp, log and zech take under 48 bytes per element
    assert sum(t.nbytes for t in (exp, log, zech)) < 48 * q


def test_one_table_per_field():
    field_module._exp_log.cache_clear()
    p, k = 5, 3
    other = (1, 2, 0, 1)  # x^3 + 2x + 1; the default is x^3 + x + 1
    fields = [Field(p, k), Field(p, k), Field(p, k, other), Field(p, k, other)]
    for f in fields:
        f.sub(3, 7)
    assert field_module._exp_log.cache_info().misses == 2
    assert fields[0]._tables is fields[1]._tables
    assert fields[2]._tables is fields[3]._tables
    assert fields[0]._tables is not fields[2]._tables
    # the sums agree as elements: both encode the same coefficient vectors
    a, b = np.arange(125), np.arange(125)[::-1]
    for f in fields:
        assert np.array_equal(f.add(a, b), digitwise(operator.add, a, b, p, k))
