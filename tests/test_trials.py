"""The census trial path (a real worker pool against the serial run), the
recipes' trailing-variable slices and the exact `violated` rule."""

import math
from fractions import Fraction

import pytest

import cicensus.census as census
from cicensus import (CERTS, TestSystem, build_test_system, cert_recipe,
                      coordinate_slice, run_census, sample_system)
from cicensus.census import VIOLATION_ALPHA, binomial_below


def test_two_worker_census_matches_the_serial_one(monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    args = (3, 2, (2, 1), 101, "monte_carlo")
    kw = dict(trials=9, seed=4, keep_trials=True, count_points=True)
    serial = run_census(*args, jobs=1, **kw)
    pooled = run_census(*args, jobs=2, **kw)
    assert (pooled.to_json(include_volatile=False)
            == serial.to_json(include_volatile=False))
    assert [r.index for r in pooled.trial_records] == list(range(9))
    assert pooled.point_check["ci_certified"] == serial.per_cert["ci"].count


def test_slice_rejects_coordinates_that_are_not_trailing():
    # f_1, f_2, X_3, X_2: the system ends with X_2, but X_2 is not the
    # last variable
    ts = build_test_system(sample_system(3, 2, (2, 1), 101, 0), "stci")
    swapped = TestSystem(ts.cert, ts.field, ts.nvars,
                         ts.forms[:2] + (ts.forms[3], ts.forms[2]),
                         ts.degrees)
    with pytest.raises(ValueError):
        coordinate_slice(swapped, (2,))
    assert coordinate_slice(ts, (2, 3)).nvars == 2


@pytest.mark.parametrize("n,s,d", [(2, 1, (2,)), (3, 2, (2, 1)),
                                   (4, 2, (2, 2)), (4, 1, (2,))])
def test_each_sliced_recipe_is_square_with_s_plus_m_forms(n, s, d):
    system = sample_system(n, s, d, 101, "square")
    for cert in CERTS:
        m = {"stci": 0, "ci": 1, "irr": 2, "nons": n + 1 - s}[cert]
        minors, coords = cert_recipe(cert, n, s)
        assert len(minors) == m
        sliced = coordinate_slice(build_test_system(system, cert), coords)
        assert len(sliced.forms) == sliced.nvars == s + m


def _lower_tail(count, total, p):
    return sum(math.comb(total, i) * p ** i * (1 - p) ** (total - i)
               for i in range(count + 1))


def test_exact_rule_examples():
    assert not binomial_below(97, 100, Fraction(1005, 1009))
    assert not binomial_below(7, 8, Fraction(2047, 2048))
    assert binomial_below(0, 30, Fraction(81, 100))
    assert not any(binomial_below(k, 3, Fraction(-1)) for k in range(4))
    assert not binomial_below(0, 5, Fraction(0))


def test_exact_rule_false_alarm_rate_is_at_most_alpha():
    for p in (Fraction(1, 2), Fraction(81, 100), Fraction(92, 101),
              Fraction(1005, 1009), Fraction(2047, 2048), Fraction(3, 101)):
        for total in range(1, 31):
            alarms = [k for k in range(total + 1)
                      if binomial_below(k, total, p)]
            assert alarms == [k for k in range(total + 1)
                              if _lower_tail(k, total, p) < VIOLATION_ALPHA]
            assert _lower_tail(max(alarms, default=-1), total, p) <= VIOLATION_ALPHA


def test_one_failure_in_two_trials_reads_consistent():
    # stci at (3,2,(2,1)) over F_256: floor 63/64; the Wilson upper bound
    # of 1/2 is below it, but one failure in two trials has probability
    # about 3%
    report = run_census(3, 2, (2, 1), 256, "monte_carlo", trials=2,
                        seed=227, certs=("stci",))
    cs = report.per_cert["stci"]
    assert (cs.count, cs.bound, cs.guard_met) == (1, Fraction(63, 64), True)
    assert cs.interval[1] < float(cs.bound)
    assert cs.verdict == "consistent"
