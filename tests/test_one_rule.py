"""The point search under a small budget, and an exhaustive audit that a
pass implies the property its certificate states, run through the one
form evaluator (``Poly.values``) and the stacked factor rows of
``brute_force_absirr``, over prime and extension bases, for plane curves
and for space curves cut out by a quadric and a plane."""

import itertools

import pytest

from cicensus import (Field, Poly, SearchSpaceTooLarge, TestSystem,
                      brute_force_absirr, brute_force_empty, census,
                      compose_linear, enumerate_systems, oracle_check)
from cicensus.census import _common_zeros, _point_blocks
from cicensus.cli import main
from cicensus.macaulay import decide_many


def test_small_point_cap_records_clamped_instances():
    report = oracle_check(20, 1, point_cap=10, keep_records=True)
    assert report.agreements == 20
    assert any(r["searched_up_to"] == 0 and r["clamped"]
               for r in report.records)


def test_depth_zero_scans_nothing(monkeypatch):
    def scanned(*args, **kwargs):
        raise AssertionError("scan started")

    monkeypatch.setattr(census, "_point_blocks", scanned)
    F3 = Field(3)
    ts = TestSystem("t", F3, 3, tuple(Poly.variable(F3, 3, j)
                                      for j in range(3)), (1, 1, 1))
    verdict = brute_force_empty(ts, max_ext=0)
    assert verdict.searched_up_to == 0 and not verdict.nonempty
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_empty(ts, max_ext=-1)


def test_cli_oracle_with_a_small_point_cap(capsys):
    assert main(["oracle-check", "--trials", "20", "--seed", "1",
                 "--point-cap", "10"]) == 0
    capsys.readouterr()


def _singular_points(f, m: int) -> int:
    """Common zeros of f and its partials in P^2(F_{q^m})."""
    ext, emb = f.field.extension(m)
    forms = [f] + [f.partial(j) for j in range(f.nvars)]
    return sum(len(_common_zeros(forms, ext, emb, pts))
               for pts in _point_blocks(ext, f.nvars - 1))


# (degree, q, systems, passes of ci, nons, irr): every plane cubic over
# F_2 and every conic over F_2, F_3 and F_4
AUDITS = ((3, 2, 1023, (256, 192, 192)), (2, 2, 63, (16, 16, 16)),
          (2, 3, 364, (162, 162, 162)), (2, 4, 1365, (768, 768, 768)))


@pytest.mark.parametrize("d, q, total, passes", AUDITS)
def test_a_pass_implies_its_property(d, q, total, passes):
    systems = list(enumerate_systems(2, 1, (d,), q))
    certs = ("ci", "nons", "irr")
    passed = {cert: [v.empty for v in decide_many(systems, cert)]
              for cert in certs}
    assert len(systems) == total
    assert tuple(sum(passed[cert]) for cert in certs) == passes
    for i, system in enumerate(systems):
        f = system.forms[0]
        if passed["nons"][i]:  # smooth: no singular point up to F_{q^d}
            assert all(_singular_points(f, m) == 0 for m in range(1, d + 1))
        if passed["ci"][i]:  # squarefree: a double line has q^2 + 1 >= 5
            assert _singular_points(f, 2) <= 3
        if passed["irr"][i]:
            assert brute_force_absirr(f)


def _singular_curve_points(f, g, m: int) -> int:
    """Points of Z(f, g) in P^3(F_{q^m}) at which all six 2x2 minors of the
    Jacobian of (f, g) vanish."""
    ext, emb = f.field.extension(m)
    df, dg = ([h.partial(j) for j in range(h.nvars)] for h in (f, g))
    minors = [df[i] * dg[j] - df[j] * dg[i]
              for i, j in itertools.combinations(range(f.nvars), 2)]
    return sum(len(_common_zeros([f, g] + minors, ext, emb, pts))
               for pts in _point_blocks(ext, f.nvars - 1))


def test_a_nons_pass_of_a_space_curve_is_smooth():
    # every (3,2,(2,1)) system over F_2: no singular point up to F_4
    systems = list(enumerate_systems(3, 2, (2, 1), 2))
    passed = [system.forms for system, v in
              zip(systems, decide_many(systems, "nons")) if v.empty]
    assert (len(systems), len(passed)) == (15_345, 2048)
    for f, g in passed:
        assert all(_singular_curve_points(f, g, m) == 0 for m in (1, 2))


def _on_the_plane(f, plane):
    """f restricted to the plane {sum a_i X_i = 0}: X_j -> -a_j^(-1) sum_{i
    != j} a_i X_i for the first j with a_j != 0, then X_j dropped."""
    field, nvars = f.field, f.nvars
    a = [plane.terms.get(tuple(int(i == m) for m in range(nvars)), 0)
         for i in range(nvars)]
    j = next(i for i, x in enumerate(a) if x)
    scale = field.neg(field.inv(a[j]))
    matrix = [[int(i == m) for m in range(nvars)] for i in range(nvars)]
    matrix[j] = [0 if m == j else field.mul(scale, a[m])
                 for m in range(nvars)]
    g = compose_linear(f, matrix)
    return Poly(field, nvars - 1, f.degree,
                {e[:j] + e[j + 1:]: c for e, c in g.terms.items()})


def test_ci_and_irr_passes_of_a_space_curve_hold_on_its_plane():
    # every (3,2,(2,1)) system over F_2: f_1 on the plane f_2 = 0 is a
    # conic g; a double line, or g = 0, has at least 5 singular points
    # over F_4, and an irr pass must leave g absolutely irreducible
    systems = list(enumerate_systems(3, 2, (2, 1), 2))
    passed = {cert: [system.forms for system, v in
                     zip(systems, decide_many(systems, cert)) if v.empty]
              for cert in ("ci", "irr")}
    assert (len(passed["ci"]), len(passed["irr"])) == (3072, 2048)
    for f, plane in passed["ci"]:
        assert _singular_points(_on_the_plane(f, plane), 2) <= 3
    for f, plane in passed["irr"]:
        assert brute_force_absirr(_on_the_plane(f, plane))
