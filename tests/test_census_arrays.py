"""A census decides every trial from coefficient arrays: no Poly is built
unless trials are kept or points counted, points are counted only where
the report reads them, and kept trials show the systems that
``sample_system`` and ``enumerate_systems`` give."""

import pytest

import cicensus.census as census
from cicensus import (CERTS, Poly, enumerate_systems, run_census,
                      sample_system, trial_seed)

MONTE_CARLO = ((3, 2, (2, 1), 101, 40), (3, 1, (3,), 5, 20),
               (4, 3, (2, 2, 1), 16, 6), (4, 2, (2, 2), 27, 4),
               (3, 2, (2, 2), 2, 30))
EXHAUSTIVE = ((2, 1, (2,), 2), (2, 1, (2,), 3))


def _reports(**kw):
    out = [run_census(n, s, d, q, "monte_carlo", trials=t, seed=4, **kw)
           for n, s, d, q, t in MONTE_CARLO]
    out += [run_census(n, s, d, q, "exhaustive", **kw)
            for n, s, d, q in EXHAUSTIVE]
    return [r.to_json(include_volatile=False) for r in out]


def test_census_builds_no_poly(monkeypatch):
    want = _reports()

    def built(*args, **kwargs):
        raise AssertionError("a Poly was built")

    monkeypatch.setattr(Poly, "__init__", built)
    assert _reports(certs=CERTS, keep_trials=False, count_points=False) == want


@pytest.mark.parametrize("n,s,d,q,trials", MONTE_CARLO)
def test_kept_monte_carlo_trials_are_the_sampled_systems(n, s, d, q, trials):
    report = run_census(n, s, d, q, "monte_carlo", trials=trials, seed=4,
                        certs=("ci",), keep_trials=True)
    assert [r.system_text for r in report.trial_records] == [
        sample_system(n, s, d, q, trial_seed(4, i)).serialize()
        for i in range(trials)]


@pytest.mark.parametrize("n,s,d,q",
                         EXHAUSTIVE + ((2, 1, (3,), 2), (3, 2, (2, 1), 2)))
def test_kept_exhaustive_trials_follow_the_enumeration(n, s, d, q):
    report = run_census(n, s, d, q, "exhaustive", certs=("stci",),
                        keep_trials=True)
    assert [r.system_text for r in report.trial_records] == [
        x.serialize() for x in enumerate_systems(n, s, d, q)]


@pytest.mark.parametrize("q,certs,keep", [
    (3, ("stci",), False), (3, CERTS, False), (3, CERTS, True),
    (16, ("ci", "irr"), False)], ids=("stci", "all", "kept", "ci-irr"))
def test_points_are_counted_only_where_the_report_reads_them(
        monkeypatch, q, certs, keep):
    calls = []
    count = census.count_zf_points

    def spy(system, *args):
        calls.append(system)
        return count(system, *args)

    monkeypatch.setattr(census, "count_zf_points", spy)
    report = run_census(2, 1, (2,), q, "monte_carlo", trials=40, seed=3,
                        certs=certs, count_points=True, keep_trials=keep)
    if keep:
        assert len(calls) == 40
    elif "ci" in certs:
        assert len(calls) == report.per_cert["ci"].count < 40
    else:
        assert calls == []
