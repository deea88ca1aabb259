"""Certificates decided on their slice from the start: no coordinate form
and no full test system on the decision path, caller-supplied minors
checked where they enter, census batches of a fixed size whose stacks
stay within the cell budget, and the point-count cap."""

import pytest

import cicensus.census as census
import cicensus.macaulay as macaulay
from cicensus import (CERTS, ArityMismatch, DegreeMismatch, MixedFields,
                      Poly, TooLarge, decide, decide_many, jacobian_minor,
                      projective_count, run_census, sample_system)
from cicensus.census import CENSUS_COUNT_CAP
from cicensus.macaulay import _STACK_CELLS

CASES = ((3, 2, (2, 1), 101), (3, 2, (2, 2), 16), (4, 2, (2, 1), 27),
         (3, 1, (3,), 5))


def _decisions():
    systems = [sample_system(n, s, d, q, f"first:{i}")
               for n, s, d, q in CASES for i in range(3)]
    verdicts = [decide(x, cert) for x in systems for cert in CERTS]
    reports = [run_census(n, s, d, q, "monte_carlo", trials=12, seed=2,
                          keep_trials=True).to_json(include_volatile=False)
               for n, s, d, q in CASES]
    reports.append(run_census(2, 1, (2,), 3, "exhaustive").to_json(
        include_volatile=False))
    return verdicts, reports


def test_no_coordinate_form_is_built(monkeypatch):
    want = _decisions()

    def built(*args, **kwargs):
        raise AssertionError("a coordinate form or slice was built")

    monkeypatch.setattr(macaulay, "coordinate_slice", built)
    monkeypatch.setattr(Poly, "variable", built)
    assert _decisions() == want


def _chain(n, s, d, q, seed="chain"):
    system = sample_system(n, s, d, q, seed)
    return tuple(jacobian_minor(system, k) for k in range(s + 1, n + 2))


@pytest.mark.parametrize("other,error", [
    ((3, 2, (2, 1), 103), MixedFields),     # another field
    ((4, 2, (2, 1), 101), ArityMismatch),   # five variables, not four
    ((3, 2, (2, 2), 101), DegreeMismatch),  # sigma 2, not 1
])
def test_decide_many_checks_given_minors(other, error):
    systems = [sample_system(3, 2, (2, 1), 101, i) for i in range(2)]
    good = [_chain(3, 2, (2, 1), 101, i) for i in range(2)]
    assert (decide_many(systems, "irr", good)
            == decide_many(systems, "irr"))
    bad = _chain(*other)
    assert not bad[0].is_zero()
    with pytest.raises(error):
        decide_many(systems, "ci", [good[0], bad])


def test_decide_many_rejects_a_short_chain_list():
    systems = [sample_system(3, 2, (2, 1), 101, i) for i in range(3)]
    chains = [_chain(3, 2, (2, 1), 101, i) for i in range(2)]
    for short in (chains, []):
        with pytest.raises(ValueError):
            decide_many(systems, "ci", short)


def test_census_stacks_stay_within_the_cell_budget(monkeypatch):
    seen = []
    eliminate = macaulay._eliminate

    def spy(a, field):
        seen.append(a.shape)
        return eliminate(a, field)

    monkeypatch.setattr(macaulay, "_eliminate", spy)
    # 70 trials: a batch of 64 and one of 6
    report = run_census(3, 2, (2, 2), 1009, "monte_carlo", trials=70, seed=1)
    assert report.total == 70
    assert {(r, c) for _, r, c in seen} == {(4, 4), (18, 15), (80, 56)}
    assert all(b * r * c <= max(_STACK_CELLS, r * c) for b, r, c in seen)
    assert max(b for b, _, _ in seen) == 64  # the 4x4 and 18x15 stacks


def test_point_counting_is_capped_before_sampling(monkeypatch):
    assert (projective_count(3, 101) <= CENSUS_COUNT_CAP
            < projective_count(3, 1009))

    def started(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(census, "sample_system", started)
    monkeypatch.setattr(census, "enumerate_systems", started)
    for mode, kw in (("monte_carlo", {"trials": 3}), ("exhaustive", {})):
        with pytest.raises(TooLarge):
            run_census(3, 2, (2, 1), 1009, mode, count_points=True, **kw)
