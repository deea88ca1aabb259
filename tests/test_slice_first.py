"""Certificates decided on their slice from the start: no coordinate form
and no full test system on the decision path, census batches of a fixed
size whose stacks stay within the cell budget, and the point-count cap,
raised before any coefficient array is drawn."""

import pytest

import cicensus.census as census
import cicensus.macaulay as macaulay
from cicensus import (CERTS, Poly, TooLarge, decide, projective_count,
                      run_census, sample_system)
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


def test_census_stacks_stay_within_the_cell_budget(monkeypatch):
    seen = []
    eliminate = macaulay._eliminate

    def spy(a, field):
        seen.append(a.shape)
        return eliminate(a, field)

    monkeypatch.setattr(macaulay, "_eliminate", spy)
    # a full batch and one of 6
    trials = census._BATCH + 6
    report = run_census(3, 2, (2, 2), 1009, "monte_carlo", trials=trials,
                        seed=1)
    assert report.total == trials
    assert {(r, c) for _, r, c in seen} == {(4, 4), (18, 15), (80, 56)}
    assert all(b * r * c <= max(_STACK_CELLS, r * c) for b, r, c in seen)
    # the 4x4 and 18x15 stacks
    assert max(b for b, _, _ in seen) == census._BATCH


def test_point_counting_is_capped_before_sampling(monkeypatch):
    assert (projective_count(3, 101) <= CENSUS_COUNT_CAP
            < projective_count(3, 1009))

    def started(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((macaulay, "coeff_array"),
                         (macaulay, "minor_arrays"), (macaulay, "_stack"),
                         (census, "_sampled_vectors"),
                         (census, "_enumerated_vectors")):
        monkeypatch.setattr(module, name, started)
    for mode, kw in (("monte_carlo", {"trials": 3}), ("exhaustive", {})):
        with pytest.raises(TooLarge):
            run_census(3, 2, (2, 1), 1009, mode, count_points=True, **kw)
