"""The certificate recipe table against the closed forms it replaced.

`cert_recipe` names the minors and coordinate forms each certificate
appends to f_1..f_s; the test systems, Macaulay degrees, degree bounds
and class expansions are all derived from it.  The reference below
writes each certificate's formulas out one by one, as they stood before
the table existed.
"""

import json
import re
import sys
from math import prod

import pytest

from cicensus import (CERTS, DegreePattern, DegreeBounds, Field, Poly,
                      PolySystem, UnsupportedCertificate, build_test_system,
                      cert_recipe, chow_class, degree_bounds, extract_bound,
                      jacobian_minor, macaulay_degree, recipe_macaulay_degree,
                      top_coefficient)
from cicensus.cli import main

F101 = Field(101)


def _patterns():
    for n in range(2, 7):
        for s in range(1, n):
            ds = {(2,) * s, (3,) + (1,) * (s - 1), (3,) + (2,) * (s - 1),
                  tuple(max(5 - i, 1) for i in range(s))}
            for d in sorted(ds):
                yield n, s, d


def _ref_per_i(n, s, d, cert):
    delta, sigma = prod(d), sum(x - 1 for x in d)
    if cert == "stci":
        return tuple(delta // di for di in d)
    if cert == "ci":
        return tuple((delta // di) * sigma + delta for di in d)
    if cert == "nons":
        return tuple(sigma ** (n - s) * ((delta // di) * sigma + delta * (n - s + 1))
                     for di in d)
    return tuple(sigma * ((delta // di) * sigma + 2 * delta) for di in d)


def _ref_concise(n, s, d, cert):
    delta, sigma = prod(d), sum(x - 1 for x in d)
    return {"stci": max(_ref_per_i(n, s, d, cert)), "ci": 2 * sigma * delta,
            "nons": (sigma + n) * sigma ** (n - s) * delta,
            "irr": 3 * sigma ** 2 * delta}[cert]


def _ref_macaulay(n, s, d, cert):
    sigma = sum(x - 1 for x in d)
    return {"stci": sigma + 1, "ci": 2 * sigma,
            "nons": sigma + (n - s + 1) * (sigma - 1) + 1,
            "irr": 3 * sigma - 1}[cert]


def _ref_appended(n, s, cert):
    """(minor indices k, coordinate indices j) of the per-certificate builds."""
    if cert == "stci":
        return [], list(range(s, n + 1))
    if cert == "ci":
        return [s + 1], list(range(s + 1, n + 1))
    if cert == "nons":
        return list(range(s + 1, n + 2)), []
    return [s + 1, s + 2], list(range(s + 2, n + 1))


def _ref_top(n, s, d, cert):
    delta, sigma = prod(d), sum(x - 1 for x in d)
    return sigma ** (n - s + 1) * delta if cert == "nons" else sigma ** 2 * delta


def _power_sum_system(n, s, d):
    """f_i = X_0^d_i + ... + X_n^d_i: monomial partials keep minors cheap."""
    forms = tuple(Poly.from_terms(F101, n + 1,
                                  [(tuple(di if j == m else 0 for m in range(n + 1)), 1)
                                   for j in range(n + 1)])
                  for di in d)
    return PolySystem(DegreePattern(n=n, s=s, d=d), F101, forms)


@pytest.mark.parametrize("cert", CERTS)
def test_bounds_and_macaulay_degrees_match_reference(cert):
    for n, s, d in _patterns():
        assert degree_bounds(n, s, d, cert) == DegreeBounds(
            cert=cert, per_i=_ref_per_i(n, s, d, cert),
            concise=_ref_concise(n, s, d, cert)), (n, s, d)
        assert recipe_macaulay_degree(n, s, d, cert) == _ref_macaulay(n, s, d, cert)


@pytest.mark.parametrize("cert", CERTS)
def test_test_systems_match_reference(cert):
    for n, s, d in _patterns():
        minors, coords = _ref_appended(n, s, cert)
        assert cert_recipe(cert, n, s) == (tuple(minors), tuple(coords))
        system = _power_sum_system(n, s, d)
        ts = build_test_system(system, cert)
        sigma = sum(x - 1 for x in d)
        assert ts.degrees == d + (sigma,) * len(minors) + (1,) * len(coords)
        assert macaulay_degree(ts.degrees) == _ref_macaulay(n, s, d, cert)
        assert ts.forms == (system.forms
                            + tuple(jacobian_minor(system, k) for k in minors)
                            + tuple(Poly.variable(F101, n + 1, j) for j in coords))


@pytest.mark.parametrize("cert", ("nons", "irr"))
def test_chow_classes_match_reference(cert):
    for n, s, d in _patterns():
        cls = chow_class(cert, n, s, d)
        assert tuple(extract_bound(cls, i) for i in range(1, s + 1)) == \
            _ref_per_i(n, s, d, cert)
        assert top_coefficient(cls) == _ref_top(n, s, d, cert)


def test_unknown_certificate_rejected():
    with pytest.raises(UnsupportedCertificate):
        cert_recipe("smooth", 3, 2)
    with pytest.raises(UnsupportedCertificate):
        degree_bounds(3, 2, (2, 1), "smooth")


def test_bounds_command_prints_a_long_p_d(capsys):
    # D_1 = C(15, 5) - 1 = 3002, so p_D = (101^3003 - 1)/100 has 6017 digits,
    # past Python's default cap of 4300 on int-to-str conversions
    code = main(["bounds", "--n", "5", "--s", "1", "--d", "10", "--q", "101"])
    out = capsys.readouterr().out
    assert code == 0
    digits = re.search(r'"p_D": (\d+)', out).group(1)
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == (101 ** 3003 - 1) // 100
        assert json.loads(out)["pattern"]["D"] == [3002]
    finally:
        sys.set_int_max_str_digits(cap)
    assert sys.get_int_max_str_digits() == cap
