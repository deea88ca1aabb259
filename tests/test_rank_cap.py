"""``rank_over_field`` caps each matrix at DEFAULT_MAX_CELLS cells, as the
gate does, before any elimination: the kernels' reduction check is
decided by p alone, and it is sound only on matrices under the cap.  It
refuses input that is not a matrix or a stack of them, also before any
elimination."""

import numpy as np
import pytest

from cicensus import CicensusError, Field, NotAMatrix, TooLarge
from cicensus import macaulay as mac_mod
from cicensus.macaulay import (DEFAULT_MAX_CELLS, _reduction_interval,
                               rank_over_field)


def test_the_check_runs_above_39901857():
    # a matrix of at most DEFAULT_MAX_CELLS cells has at most L pivots
    # wherever the check is off
    assert _reduction_interval(39901857) ** 2 >= DEFAULT_MAX_CELLS
    assert _reduction_interval(39901858) ** 2 < DEFAULT_MAX_CELLS


def test_matrices_over_the_cap_are_refused_before_elimination(monkeypatch):
    monkeypatch.setattr(mac_mod, "DEFAULT_MAX_CELLS", 100)

    def eliminated(*args):
        raise AssertionError("a matrix over the cap was eliminated")
    monkeypatch.setattr(mac_mod, "_eliminate", eliminated)
    for shape in ((11, 10), (1, 101), (3, 10, 11), (1, 101, 1)):
        with pytest.raises(TooLarge):
            rank_over_field(np.ones(shape, dtype=np.int64), Field(3))


def test_matrices_at_the_cap_and_empty_input_are_ranked(monkeypatch):
    monkeypatch.setattr(mac_mod, "DEFAULT_MAX_CELLS", 100)
    field = Field(2 ** 31 - 1)
    assert rank_over_field(np.eye(10, dtype=np.int64), field) == 10
    ranks = rank_over_field(np.ones((4, 10, 10), dtype=np.int64), field)
    assert ranks.tolist() == [1] * 4
    assert rank_over_field([], field) == 0
    assert rank_over_field([[]], field) == 0
    assert rank_over_field(np.zeros((0, 3, 3), dtype=np.int64),
                           field).tolist() == []


@pytest.mark.parametrize("rows", ([1, 2, 3], [[1, 2], [3]], 7,
                                  np.ones((2, 2, 2, 2), dtype=np.int64)),
                         ids=("row", "ragged", "scalar", "four-axes"))
def test_what_is_no_matrix_is_refused_before_elimination(monkeypatch, rows):
    def eliminated(*args):
        raise AssertionError("input that is no matrix was eliminated")
    monkeypatch.setattr(mac_mod, "_eliminate", eliminated)
    with pytest.raises(NotAMatrix) as err:
        rank_over_field(rows, Field(3))
    assert isinstance(err.value, CicensusError)
