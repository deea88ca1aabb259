"""Trials decided in stacks: the lockstep elimination against the row
loop, decide_many against decide, the stack and batch sizes, the
closed-form sliced shape and the cell cap."""

import random

import numpy as np
import pytest

import cicensus.census as census
import cicensus.macaulay as macaulay
from cicensus import (CERTS, DivisionByZero, PatternViolation, TooLarge,
                      build_test_system, cert_recipe, coordinate_slice,
                      decide, decide_many, enumerate_systems,
                      field_from_order, macaulay_instance,
                      rank_over_field, recipe_macaulay_shape, run_census,
                      sample_system)
from cicensus.field import _TABLE_LIMIT, _inverses, is_prime
from cicensus.macaulay import _STACK_CELLS, DEFAULT_MAX_CELLS

FIELDS = (2, 3, 16, 27, 101, 1009)


def _low_rank(f, rng, nrows, ncols):
    """L * E for a random L and an echelon E whose pivots sit in random
    columns: the rank is len(pivots), and the pivot columns differ from
    matrix to matrix, so a lockstep group splits."""
    k = rng.randrange(0, min(nrows, ncols) + 1)
    pivots = sorted(rng.sample(range(ncols), k))
    e = [[0] * ncols for _ in range(k)]
    for i, c in enumerate(pivots):
        e[i][c] = 1
        for j in range(c + 1, ncols):
            e[i][j] = rng.randrange(f.q)
    # a rank-k L: the identity on top of random rows
    left = [[int(i == j) for j in range(k)] for i in range(k)]
    left += [[rng.randrange(f.q) for _ in range(k)]
             for _ in range(nrows - k)]
    rng.shuffle(left)
    out = []
    for row in left:
        acc = [0] * ncols
        for x, erow in zip(row, e):
            acc = [f.add(a, f.mul(x, y)) for a, y in zip(acc, erow)]
        out.append(acc)
    return out


@pytest.mark.parametrize("q", FIELDS)
def test_stacked_ranks_equal_per_matrix_ranks(q):
    f = field_from_order(q)
    rng = random.Random(f"stack:{q}")
    for nrows, ncols, nb in ((6, 5, 40), (4, 9, 25), (1, 3, 8), (7, 7, 1)):
        mats = [_low_rank(f, rng, nrows, ncols) for _ in range(nb)]
        want = [rank_over_field(m, f) for m in mats]
        if nb > 1:
            assert len(set(want)) > 1  # the groups split
        got = rank_over_field(np.array(mats, dtype=np.int64), f)
        assert isinstance(got, np.ndarray) and got.tolist() == want
        assert rank_over_field(mats, f).tolist() == want  # list input


def test_stack_edge_shapes_and_copy():
    f = field_from_order(101)
    assert rank_over_field(np.zeros((0, 3, 4), dtype=np.int64), f).size == 0
    assert rank_over_field(np.zeros((3, 0, 4), dtype=np.int64),
                           f).tolist() == [0, 0, 0]
    a = np.arange(2 * 3 * 3, dtype=np.int64).reshape(2, 3, 3) % 101
    kept = a.copy()
    assert rank_over_field(a, f).tolist() == [2, 2]
    assert (a == kept).all()  # the caller's array is not eliminated


# the primes on either side of the inverse table's cap
LAST_TABLE_PRIME = next(p for p in range(_TABLE_LIMIT, 1, -1) if is_prime(p))
FIRST_POW_PRIME = next(p for p in range(_TABLE_LIMIT + 1, 2 * _TABLE_LIMIT)
                       if is_prime(p))


@pytest.mark.parametrize("q", (2, 101, 1009, 20011, LAST_TABLE_PRIME,
                               FIRST_POW_PRIME, 16, 27, 2 ** 31 - 1))
def test_array_inverse(q):
    # 2^31 - 1 is the largest characteristic a Field takes
    _inverses.cache_clear()
    f = field_from_order(q)
    a = np.array(random.Random(q).sample(range(1, q), min(q - 1, 300)),
                 dtype=np.int64)
    want = [f.inv(int(x)) for x in a]
    assert f.inv(a).tolist() == want
    b = np.stack([a, a[::-1]])
    assert f.inv(b).shape == b.shape
    assert field_from_order(q).inv(b).tolist() == [want, want[::-1]]
    with pytest.raises(DivisionByZero):
        f.inv(np.append(a, 0))
    # one table per prime p <= _TABLE_LIMIT, none otherwise
    tabled = f.k == 1 and q <= _TABLE_LIMIT
    assert _inverses.cache_info().misses == tabled


def _sliced(system, cert):
    return coordinate_slice(build_test_system(system, cert),
                            cert_recipe(cert, system.pattern.n,
                                        system.pattern.s)[1])


def _reference(system, cert):
    """(empty, rank, nrows, ncols) through the single-matrix build and
    the row loop."""
    ts = _sliced(system, cert)
    a = macaulay_instance(ts)
    rank = rank_over_field(a, ts.field)
    return rank == a.shape[1], rank, a.shape[0], a.shape[1]


@pytest.mark.parametrize("n,s,d,q,count", [
    (2, 1, (2,), 3, None),          # every conic, many zero sliced forms
    (3, 2, (2, 1), 101, 60),
    (3, 2, (2, 2), 16, 12),
    (4, 2, (2, 1), 27, 10),
])
def test_decide_many_equals_decide(n, s, d, q, count):
    if count is None:
        systems = list(enumerate_systems(n, s, d, q))
    else:
        systems = [sample_system(n, s, d, q, f"many:{i}")
                   for i in range(count)]
    zero = 0
    for cert in CERTS:
        many = decide_many(systems, cert)
        assert many == [decide(x, cert) for x in systems]
        for x, v in zip(systems, many):
            assert (v.empty, v.rank, v.nrows, v.ncols) == _reference(x, cert)
            zero += any(g.is_zero() for g in _sliced(x, cert).forms)
    if count is None:
        assert zero  # systems with a zero sliced form are decided too
    assert decide_many([], "ci") == []


def test_decide_many_needs_one_pattern_and_field():
    a = sample_system(3, 2, (2, 1), 101, 0)
    with pytest.raises(PatternViolation):
        decide_many([a, sample_system(3, 2, (2, 2), 101, 0)], "ci")
    with pytest.raises(PatternViolation):
        decide_many([a, sample_system(3, 2, (2, 1), 103, 0)], "ci")


def test_stacks_stay_within_the_cell_budget(monkeypatch):
    seen = []
    eliminate = macaulay._eliminate

    def spy(a, field):
        seen.append(a.shape)
        return eliminate(a, field)

    monkeypatch.setattr(macaulay, "_eliminate", spy)
    # 80x56 at (3,2,(2,2)): per matrices to a stack, and half as many
    # systems again, so that they take several stacks
    per = _STACK_CELLS // (80 * 56)
    systems = [sample_system(3, 2, (2, 2), 1009, f"cells:{i}")
               for i in range(per + per // 2 + 1)]
    for cert in CERTS:
        seen.clear()
        decide_many(systems, cert)
        nb, nrows, ncols = seen[0]
        assert sum(b for b, _, _ in seen) <= len(systems)
        assert all(b * nrows * ncols <= max(_STACK_CELLS, nrows * ncols)
                   for b, _, _ in seen)
        if (nrows, ncols) == (80, 56):
            assert nb == per > 1 and len(seen) > 1
    # a matrix larger than the budget is decided alone
    seen.clear()
    decide(sample_system(4, 2, (2, 2), 1009, "cells"), "nons")
    assert seen == [(1, 350, 210)]


def test_two_worker_census_over_uneven_batches_matches_serial(monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    args = (3, 2, (2, 2), 1009, "monte_carlo")
    rows, cols = recipe_macaulay_shape(3, 2, (2, 2), "irr")
    size = _STACK_CELLS // (rows * cols)
    # two batches, the last one short, and several stacks, the last short
    trials = 3 * size + 2
    assert trials % 2 and trials // size >= 3 and trials % size
    kw = dict(trials=trials, seed=3, certs=("ci", "irr"), keep_trials=True)
    serial = run_census(*args, jobs=1, **kw)
    pooled = run_census(*args, jobs=2, **kw)
    assert (pooled.to_json(include_volatile=False)
            == serial.to_json(include_volatile=False))
    assert [r.index for r in pooled.trial_records] == list(range(trials))


def test_reports_do_not_depend_on_stack_or_batch_size(monkeypatch):
    per = _STACK_CELLS // (80 * 56)
    # nons and irr: stacks of per, per and a lone 80x56 matrix, which the
    # stack kernel hands to the row loop, once per distinct recipe
    mc = ((3, 2, (2, 2), 1009, "monte_carlo"),
          dict(trials=2 * per + 1, seed=11, keep_trials=True))
    exh = ((2, 1, (2,), 3, "exhaustive"), {})
    seen = []
    eliminate = macaulay._eliminate

    def spy(a, f):
        seen.append(a.shape)
        return eliminate(a, f)

    monkeypatch.setattr(macaulay, "_eliminate", spy)
    want = [run_census(*args, **kw).to_json(include_volatile=False)
            for args, kw in (mc, exh)]
    recipes = {cert_recipe(cert, 3, 2) for cert in ("nons", "irr")}
    assert ([b for b, r, c in seen if (r, c) == (80, 56)]
            == [per, per, 1] * len(recipes))
    for cells, batch in ((1, census._BATCH), (_STACK_CELLS, 1),
                         (_STACK_CELLS, 1000), (1, 1), (1, 1000)):
        monkeypatch.setattr(macaulay, "_STACK_CELLS", cells)
        monkeypatch.setattr(census, "_BATCH", batch)
        assert [run_census(*args, **kw).to_json(include_volatile=False)
                for args, kw in (mc, exh)] == want


@pytest.mark.parametrize("n,s,d", [(2, 1, (2,)), (3, 2, (2, 1)),
                                   (3, 2, (2, 2)), (4, 2, (2, 2)),
                                   (4, 1, (3,)), (4, 3, (2, 2, 1))])
def test_closed_form_shape_matches_the_built_matrix(n, s, d):
    system = sample_system(n, s, d, 101, "shape")
    for cert in CERTS:
        ts = coordinate_slice(build_test_system(system, cert),
                              cert_recipe(cert, n, s)[1])
        assert recipe_macaulay_shape(n, s, d, cert) == \
            macaulay_instance(ts).shape


def test_closed_form_shape_pins():
    system = sample_system(5, 3, (2, 2, 2), 20011, "slice:irr")
    ts = coordinate_slice(build_test_system(system, "irr"),
                          cert_recipe("irr", 5, 3)[1])
    assert (recipe_macaulay_shape(5, 3, (2, 2, 2), "irr")
            == macaulay_instance(ts).shape == (882, 495))
    system = sample_system(3, 2, (2, 1), 101, "slice:stci")
    ts = coordinate_slice(build_test_system(system, "stci"),
                          cert_recipe("stci", 3, 2)[1])
    assert (recipe_macaulay_shape(3, 2, (2, 1), "stci")
            == macaulay_instance(ts).shape == (3, 3))
    # the largest matrix the benchmark decides is admitted
    rows, cols = recipe_macaulay_shape(5, 3, (2, 2, 2), "nons")
    assert (rows, cols) == (6237, 3003)
    assert rows * cols <= DEFAULT_MAX_CELLS


def test_too_large_is_raised_before_any_work(monkeypatch):
    assert recipe_macaulay_shape(6, 3, (2, 2, 2), "nons") == (44044, 18564)
    system = sample_system(6, 3, (2, 2, 2), 101, "big")

    def started(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((macaulay, "coeff_array"),
                         (macaulay, "minor_arrays"), (macaulay, "_stack"),
                         (census, "_sampled_vectors"),
                         (census, "_enumerated_vectors")):
        monkeypatch.setattr(module, name, started)
    with pytest.raises(TooLarge):
        decide(system, "nons")
    with pytest.raises(TooLarge):
        decide_many([system] * 3, "nons")
    for mode, kw in (("monte_carlo", {"trials": 5}), ("exhaustive", {})):
        with pytest.raises(TooLarge):
            run_census(6, 3, (2, 2, 2), 101, mode, certs=("stci", "nons"),
                       **kw)
