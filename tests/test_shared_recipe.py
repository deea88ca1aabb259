"""One elimination per distinct recipe: certificates with equal
``cert_recipe(cert, n, s)`` build the same Macaulay matrices, so a census
batch, ``decide_certs`` and ``cicensus test`` eliminate each of them once
and give every such certificate the same verdict.  At (3,2,(2,2)) and on
the (4,3,(2,2,2)) system file, n - s = 1, and ``nons`` and ``irr`` both
keep two minors; at (4,2,(2,2)) they keep three and two."""

from pathlib import Path

import pytest

import cicensus.macaulay as macaulay
from cicensus import (cert_recipe, decide, decide_certs, recipe_macaulay_shape,
                      run_census, sample_system)
from cicensus.cli import main
from cicensus.macaulay import _STACK_CELLS

SYSTEM = Path(__file__).resolve().parents[1] / "cibench/systems/nons-4-3-222.sys"


@pytest.fixture
def seen(monkeypatch):
    """The shape of every array ``_eliminate`` is handed, in order."""
    shapes = []
    eliminate = macaulay._eliminate

    def spy(a, field):
        shapes.append(a.shape)
        return eliminate(a, field)

    monkeypatch.setattr(macaulay, "_eliminate", spy)
    return shapes


def _matrices(shapes) -> dict:
    """The count of matrices eliminated per (rows, columns) shape."""
    count = {}
    for b, r, c in shapes:
        count[r, c] = count.get((r, c), 0) + b
    return count


@pytest.mark.parametrize("q", (1009, 16))
def test_a_shared_census_counts_as_one_census_per_certificate(q):
    args = (3, 2, (2, 2), q, "monte_carlo")
    kw = dict(trials=40, seed=q, keep_trials=True)
    certs = ("ci", "nons", "irr")
    together = run_census(*args, certs=certs, **kw)
    for cert in certs:
        alone = run_census(*args, certs=(cert,), **kw)
        assert together.per_cert[cert] == alone.per_cert[cert]
        assert ([t.verdicts[cert] for t in together.trial_records]
                == [t.verdicts[cert] for t in alone.trial_records])


def test_a_census_eliminates_each_stack_once(seen):
    assert cert_recipe("nons", 3, 2) == cert_recipe("irr", 3, 2)
    assert recipe_macaulay_shape(3, 2, (2, 2), "nons") == (80, 56)
    per = _STACK_CELLS // (80 * 56)
    run_census(3, 2, (2, 2), 1009, "monte_carlo", trials=per + 1, seed=2,
               certs=("ci", "nons", "irr"))
    assert [b for b, r, c in seen if (r, c) == (80, 56)] == [per, 1]


def test_certificates_of_one_recipe_share_one_verdict_list(seen):
    systems = [sample_system(3, 2, (2, 2), 101, i) for i in range(5)]
    decided = decide_certs(systems, ("irr", "nons", "irr"))
    assert decided["nons"] is decided["irr"]
    assert seen == [(5, 80, 56)]
    assert decided["nons"] == [decide(x, "nons") for x in systems]


def test_cli_test_eliminates_a_shared_matrix_once(seen, capsys):
    assert main(["test", "--field", "20011", "--system", str(SYSTEM),
                 "--cert", "all"]) == 0
    assert seen.count((1, 882, 495)) == 1
    matrix = {}
    for line in capsys.readouterr().out.splitlines():
        head = line.split(":")[0]
        if not line.startswith(" "):
            cert = head
        elif "Macaulay matrix" in line:
            matrix[cert] = line
    assert set(matrix) == {"stci", "ci", "nons", "irr"}
    assert matrix["nons"] == matrix["irr"]
    assert "882x495" in matrix["nons"]


def test_distinct_recipes_are_decided_separately(seen):
    assert cert_recipe("nons", 4, 2) != cert_recipe("irr", 4, 2)
    shapes = [recipe_macaulay_shape(4, 2, (2, 2), cert)
              for cert in ("nons", "irr")]
    assert shapes == [(350, 210), (80, 56)]
    systems = [sample_system(4, 2, (2, 2), 1009, i) for i in range(3)]
    decided = decide_certs(systems, ("nons", "irr"))
    assert _matrices(seen) == {shape: 3 for shape in shapes}
    for cert in ("nons", "irr"):
        assert decided[cert] == [decide(x, cert) for x in systems]
    seen.clear()
    run_census(4, 2, (2, 2), 1009, "monte_carlo", trials=3, seed=1,
               certs=("nons", "irr"))
    assert _matrices(seen) == {shape: 3 for shape in shapes}
