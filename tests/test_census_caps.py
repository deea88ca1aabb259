"""A census bounds its work before it starts: one batch's coefficient
arrays over DEFAULT_MAX_CELLS cells, or an exhaustive space past its cap
or int64 indexing, raise TooLarge before anything is sampled or
counted."""

import pytest

from cicensus import TooLarge, census, enumerate_systems, run_census


@pytest.fixture
def no_work(monkeypatch):
    def started(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(census, "_sampled_vectors", started)
    monkeypatch.setattr(census, "system_space_size", started)


def test_a_batch_of_too_many_coefficients_is_refused(no_work):
    # a 1x1 stci matrix, but one form of C(205, 5) = 2,872,408,791
    # coefficients
    with pytest.raises(TooLarge, match="coefficients"):
        run_census(200, 1, (5,), 101, "monte_carlo", trials=1,
                   certs=("stci",))
    # 211,876 coefficients a system: 158 systems pass the cap, 256 not
    with pytest.raises(TooLarge, match="a batch of 256 systems"):
        run_census(45, 1, (4,), 101, "monte_carlo", trials=256,
                   certs=("stci",))


@pytest.mark.parametrize("cap, words", ((None, "int64"),
                                        (10_000_000, "exhaustive cap")))
def test_an_exhaustive_space_is_bounded_uncounted(no_work, cap, words):
    with pytest.raises(TooLarge, match=words):
        run_census(200, 1, (5,), 2, "exhaustive", certs=("stci",),
                   exhaustive_cap=cap)
    with pytest.raises(TooLarge, match=words):
        next(enumerate_systems(40, 1, (2,), 3, cap=cap))


def test_the_bound_admits_what_it_counts():
    # 15,345 systems: the bit bound 2^12 is below the cap of 15,345
    with pytest.raises(TooLarge, match="15345 systems exceed"):
        run_census(3, 2, (2, 1), 2, "exhaustive", certs=("stci",),
                   exhaustive_cap=15_344)
    report = run_census(3, 2, (2, 1), 2, "exhaustive", certs=("stci",),
                        exhaustive_cap=15_345)
    assert report.total == 15_345
