"""One pass where two were made: the binomial tail of the ``violated``
verdict, the oracle's point search, and the point-count cap that is
checked before a scan starts."""

import time
from fractions import Fraction

import pytest

from cicensus import TooLarge, census, oracle_check, sample_system
from cicensus.census import VIOLATION_ALPHA, binomial_below, count_zf_points


def _two_tail_below(count, total, floor):
    """The rule summed over the shorter tail, one of two directions: the
    reference the one-pass rule must agree with."""
    if floor <= 0:
        return False
    a, b = floor.numerator, floor.denominator
    if 2 * count < total:  # the lower tail, from i = 0 up
        t, tail = (b - a) ** total, 0
        for i in range(count + 1):
            tail += t
            t = t * (total - i) * a // ((i + 1) * (b - a))
    else:  # everything but the upper tail, from i = total down
        t, tail = a ** total, b ** total
        for i in range(total, count, -1):
            tail -= t
            t = t * i * (b - a) // ((total - i + 1) * a)
    return (tail * VIOLATION_ALPHA.denominator
            < VIOLATION_ALPHA.numerator * b ** total)


FLOORS = (Fraction(0), Fraction(-1), Fraction(3, 101), Fraction(1, 2),
          Fraction(81, 100), Fraction(92, 101), Fraction(1005, 1009),
          Fraction(2047, 2048))


@pytest.mark.parametrize("floor", FLOORS, ids=str)
def test_one_pass_tail_matches_two_tail_sum(floor):
    for total in range(201):
        got = [binomial_below(k, total, floor) for k in range(total + 1)]
        assert got == [_two_tail_below(k, total, floor)
                       for k in range(total + 1)], total


def test_floor_one_is_violated_by_any_failure():
    for total in range(21):
        assert ([binomial_below(k, total, Fraction(1))
                 for k in range(total + 1)]
                == [k < total for k in range(total + 1)])


def test_far_tail_of_many_trials_is_quick():
    start = time.perf_counter()
    assert binomial_below(60000, 100000, Fraction(81, 100))
    assert time.perf_counter() - start < 2.0


def test_short_upper_tail_of_many_trials_is_consistent():
    assert not binomial_below(99900, 100000, Fraction(1005, 1009))


def test_oracle_searches_each_instance_once(monkeypatch):
    calls = []
    search = census.brute_force_empty

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return search(*args, **kwargs)

    monkeypatch.setattr(census, "brute_force_empty", spy)
    report = oracle_check(10, 27, keep_records=True)
    assert len(calls) == 10
    assert len(report.records) == 10


def test_point_count_is_capped_before_the_scan(monkeypatch):
    def scanned(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(census, "_point_blocks", scanned)
    # P^3(F_{101^3}) has about 1.09e18 points, past CENSUS_COUNT_CAP
    with pytest.raises(TooLarge):
        count_zf_points(sample_system(3, 2, (2, 2), 101, 0), ext_degree=3)
