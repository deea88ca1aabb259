"""Extension-field tables, the elimination kernel and the census worker
clamp, each against a reference written out here."""

import random

import numpy as np
import pytest

import cicensus.census as census
import cicensus.field as field_module
from cicensus import Field, PatternViolation, TooLarge, run_census
from cicensus.macaulay import rank_over_field

# Fields above 1024 elements, with their moduli as ascending coefficients.
LARGE = [
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),   # x^11 + x^2 + 1
    (11, 3, (4, 1, 0, 1)),                           # x^3 + x + 4
    (5, 5, (1, 4, 0, 0, 0, 1)),                      # x^5 + 4x + 1
]


def schoolbook_mul(a, b, p, k, modulus):
    """Product of two encodings: polynomial product, then reduction."""
    av = [a // p ** i % p for i in range(k)]
    bv = [b // p ** i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(av):
        for j, y in enumerate(bv):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        t = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - t * modulus[j]) % p
    return sum(c * p ** i for i, c in enumerate(prod[:k]))


def reference_rank(rows, p):
    """Gaussian elimination over F_p on Python lists."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p,k,modulus", LARGE)
def test_large_fields_match_schoolbook(p, k, modulus):
    f = Field(p, k, modulus=modulus)
    assert f.q > 1024
    rng = random.Random(f"schoolbook:{p}^{k}")
    for _ in range(300):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.mul(a, b) == schoolbook_mul(a, b, p, k, modulus)
        e = rng.randrange(-3, 40)
        if a:
            assert schoolbook_mul(a, f.inv(a), p, k, modulus) == 1
            expect = 1
            for _ in range(abs(e)):
                expect = schoolbook_mul(expect, a, p, k, modulus)
            if e < 0:
                expect = f.inv(expect)
            assert f.pow(a, e) == expect
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    assert f.pow(2, f.q - 1) == 1


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (2, 8)])
def test_rank_matches_multiplication_block_expansion(p, k):
    f = Field(p, k)
    rng = random.Random(f"blocks:{p}^{k}")
    for _ in range(12):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        inner = rng.randrange(1, 7)
        left = [[rng.randrange(f.q) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(inner)]
        mat = []
        for row in left:
            out = []
            for j in range(ncols):
                acc = 0
                for x, r in zip(row, right):
                    acc = f.add(acc, schoolbook_mul(x, r[j], p, k, f.modulus))
                out.append(acc)
            mat.append(out)
        # a is replaced by the k x k matrix of b -> a*b on coefficients
        big = []
        for row in mat:
            blocks = [[f.coeffs(schoolbook_mul(a, p ** j, p, k, f.modulus))
                       for j in range(k)] for a in row]
            for i in range(k):
                big.append([blk[j][i] for blk in blocks for j in range(k)])
        big_rank = reference_rank(big, p)
        assert big_rank % k == 0
        assert rank_over_field(mat, f) == big_rank // k


@pytest.mark.parametrize("p,k", [(101, 1), (2, 4), (3, 3), (2, 8), (5, 5)])
def test_array_and_int_forms_agree(p, k):
    f = Field(p, k)
    rng = np.random.default_rng(p * 100 + k)
    a, b, c = (rng.integers(0, f.q, size=200, dtype=np.int64) for _ in range(3))
    a[:5] = 0
    b[3:8] = 0
    ops = {
        "add": (f.add, (a, b)),
        "neg": (f.neg, (a,)),
        "sub": (f.sub, (a, b)),
        "mul": (f.mul, (a, b)),
        "submul": (f.submul, (a, b, c)),
    }
    for name, (op, args) in ops.items():
        whole = op(*args)
        assert isinstance(whole, np.ndarray), name
        for i in range(len(a)):
            one = op(*(int(x[i]) for x in args))
            assert type(one) is int, name
            assert one == whole[i], name
    scaled = f.mul(a, 3 % f.q)
    assert [f.mul(int(x), 3 % f.q) for x in a] == scaled.tolist()
    for x in (1, 2, f.q - 1):
        assert type(f.inv(x)) is int and type(f.pow(x, 5)) is int


def test_cap_raises_before_any_work(monkeypatch):
    def started(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(field_module, "find_modulus", started)
    monkeypatch.setattr(field_module, "_exp_log", started)
    for p, k in ((2, 21), (3, 13), (1021, 3)):
        with pytest.raises(TooLarge):
            Field(p, k)


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count and
    runs the chunks in this process."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


def test_census_clamps_worker_count(monkeypatch):
    monkeypatch.setattr(census, "Pool", RecordingPool)
    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    RecordingPool.sizes.clear()
    args = (3, 2, (2, 1), 101, "monte_carlo")
    serial = run_census(*args, trials=8, seed=2, jobs=1, keep_trials=True)
    assert RecordingPool.sizes == []
    for trials, jobs, workers in ((8, 64, 4), (3, 64, 3), (8, 2, 2)):
        report = run_census(*args, trials=trials, seed=2, jobs=jobs,
                            keep_trials=True)
        assert RecordingPool.sizes.pop() == workers
        if trials == 8:
            assert (report.to_json(include_volatile=False)
                    == serial.to_json(include_volatile=False))
    monkeypatch.setattr(census.os, "cpu_count", lambda: None)
    run_census(*args, trials=8, seed=2, jobs=64)
    assert RecordingPool.sizes == []
    with pytest.raises(PatternViolation):
        run_census(*args, trials=8, seed=2, jobs=0)
