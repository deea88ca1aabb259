"""Coordinate-slice decisions: the recipes' X_j set to 0 before the
Macaulay matrix is built give the verdict of the full test system."""

from collections import Counter

import pytest

from cicensus import (CERTS, DegreePattern, Field, Poly, PolySystem,
                      build_test_system, cert_recipe, coordinate_slice,
                      decide, decide_many, enumerate_systems,
                      macaulay_instance, poly_parse, projective_empty,
                      rank_over_field, sample_system)
from cicensus.cli import main

PATTERNS = ((2, 1, (2,)), (3, 2, (2, 1)), (3, 2, (2, 2)), (4, 2, (2, 1)),
            (3, 1, (3,)), (4, 3, (2, 2, 1)))
SEEDS = 3


def _singular_at_e0(system):
    """The system without its X_0^{d_i} terms, and without the X_0^{d_1-1} X_k
    terms of f_1: every form and every Jacobian minor vanishes at
    (1:0:...:0), which lies on every slice, so every certificate fails.
    None if a form dies."""
    forms = []
    for f in system.forms:
        top = f.degree - 1 if f is system.forms[0] else f.degree
        terms = {e: c for e, c in f.terms.items() if e[0] < top}
        if not terms:
            return None
        forms.append(Poly(f.field, f.nvars, f.degree, terms))
    return PolySystem(system.pattern, system.field, tuple(forms))


@pytest.mark.parametrize("q", (3, 16, 27, 101))
def test_slice_keeps_every_verdict(q):
    seen = {cert: set() for cert in CERTS}
    for n, s, d in PATTERNS:
        for i in range(SEEDS):
            system = sample_system(n, s, d, q, f"slice:{i}")
            for sysm in (system, _singular_at_e0(system)):
                if sysm is None:
                    continue
                for cert in CERTS:
                    full = projective_empty(build_test_system(sysm, cert))
                    sliced = decide(sysm, cert)
                    assert (sliced.empty, sliced.degree) == (
                        full.empty, full.degree), (n, s, d, q, i, cert)
                    assert sysm is system or not sliced.empty
                    seen[cert].add(sliced.empty)
    # the sample reaches both verdicts, so agreement is not vacuous
    assert all(v == {True, False} for v in seen.values()), seen


def _system(field, nvars, *texts):
    forms = tuple(poly_parse(t, field, nvars) for t in texts)
    pattern = DegreePattern(n=nvars - 1, s=len(forms),
                            d=tuple(f.degree for f in forms))
    return PolySystem(pattern, field, forms)


def _canonical(ts):
    """(rank, nrows, ncols) of the test system's single-matrix build."""
    a = macaulay_instance(ts)
    return (rank_over_field(a, ts.field), *a.shape)


def test_user_form_on_a_sliced_coordinate_adds_zero_rows():
    # ci at (3,2,(2,1)) slices X_3, and f_2 = 5 X_3 vanishes there
    f = Field(101)
    system = _system(f, 4, "1:2,0,0,0 + 1:0,2,0,0 + 1:0,0,2,0 + 1:0,1,0,1",
                     "5:0,0,0,1")
    assert cert_recipe("ci", 3, 2)[1] == (3,)
    ts = coordinate_slice(build_test_system(system, "ci"), (3,))
    assert ts.forms[1].is_zero()
    sliced = decide(system, "ci")
    assert not sliced.empty
    assert (sliced.rank, sliced.nrows, sliced.ncols) == _canonical(ts)
    assert (sliced.nrows, sliced.ncols, sliced.rank) == (7, 6, 1)
    assert not projective_empty(build_test_system(system, "ci")).empty


def test_minor_vanishing_on_the_slice_adds_zero_rows():
    # irr at (3,1,(2,)) appends J_2 = df/dX_1 = X_3 and J_3, then slices X_3
    f = Field(101)
    system = _system(f, 4, "1:2,0,0,0 + 1:0,0,2,0 + 1:0,1,0,1")
    ts = build_test_system(system, "irr")
    sliced = coordinate_slice(ts, cert_recipe("irr", 3, 1)[1])
    assert sliced.nvars == 3 and sliced.forms[1].is_zero()
    assert sliced.degrees == ts.degrees[:-1]
    v = projective_empty(sliced)
    assert not v.empty
    assert (v.rank, v.nrows, v.ncols) == _canonical(sliced)
    assert (v.nrows, v.ncols, v.rank) == (7, 6, 4)
    assert not projective_empty(ts).empty
    assert decide(system, "irr") == v


def test_slice_rejects_a_system_without_its_coordinate_forms():
    system = sample_system(3, 2, (2, 1), 101, 0)
    ts = build_test_system(system, "nons")
    with pytest.raises(ValueError):
        coordinate_slice(ts, (3,))


def test_irr_decides_on_the_smaller_matrix():
    system = sample_system(5, 3, (2, 2, 2), 20011, "slice:irr")
    v = decide(system, "irr")
    assert (v.nrows, v.ncols) == (882, 495)
    assert v.empty and v.deficit == 0


def test_stci_decides_on_a_3x3_matrix():
    v = decide(sample_system(3, 2, (2, 1), 101, "slice:stci"), "stci")
    assert (v.nrows, v.ncols) == (3, 3)


@pytest.mark.parametrize("n,s,d", PATTERNS)
def test_nons_is_not_sliced(n, s, d):
    system = sample_system(n, s, d, 101, "slice:nons")
    assert decide(system, "nons") == projective_empty(
        build_test_system(system, "nons"))


def test_test_command_prints_shape_rank_and_deficit(tmp_path, capsys):
    path = tmp_path / "conic.sys"
    path.write_text("field 3\nnvars 3\npoly 1: 1:2,0,0 + 1:0,1,1\n")
    assert main(["test", "--field", "3", "--system", str(path),
                 "--cert", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for cert in CERTS:
        assert sum(line.startswith(f"{cert}: ") for line in lines) == 1
    shapes = [line for line in lines if "Macaulay matrix" in line]
    # stci and irr on their slices, nons on the full system; ci's J_2 = X_2
    # is zero on its slice X_2 = 0, where f = X_0^2 has the double point
    # (0:1:0), so its deficit is 2
    assert shapes == [
        "      Macaulay matrix 1x1: rank 1, deficit 0",
        "      Macaulay matrix 3x3: rank 1, deficit 2",
        "      Macaulay matrix 7x6: rank 6, deficit 0",
        "      Macaulay matrix 7x6: rank 6, deficit 0",
    ]
    # each shape line follows its certificate's degree line
    for i, line in enumerate(lines):
        if line in shapes:
            assert lines[i - 1].startswith("      emptiness test at degree")


def test_the_deficit_counts_points_on_zero_form_systems():
    # ci on a conic decides f and J_2 on the line X_2 = 0: a 3x3 matrix of
    # the row of f and the two rows of J_2 at N = 2.  A zero J_2 adds zero
    # rows, and the deficit counts f's two roots on the line, with
    # multiplicity, or the whole line's 3 monomials where f vanishes too
    conics = list(enumerate_systems(2, 1, (2,), 3))
    kinds = Counter()
    for system, v in zip(conics, decide_many(conics, "ci")):
        f, j2 = coordinate_slice(build_test_system(system, "ci"), (2,)).forms
        assert (v.nrows, v.ncols) == (3, 3)
        assert v.empty == (v.deficit == 0)
        kinds[f.is_zero(), j2.is_zero(), v.deficit] += 1
    assert kinds == {(False, True, 2): 27, (True, True, 3): 13,
                     (False, False, 0): 162, (False, False, 1): 162}
