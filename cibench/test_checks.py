"""Tests of the benchmark's own checks: each is fed a wrong answer and
must reject it, and a right one and must accept it.

    python3 -m pytest -q cibench/test_checks.py
"""

import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import cicensus  # noqa: E402
import cicensus.macaulay as macaulay  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_gf_inverse_and_product_table():
    f = cicensus.Field(2, 4)
    gf = checks.GF(2, 4, f.modulus)
    for a in range(1, 16):
        assert gf.mul(a, gf.inv(a)) == 1
        for b in range(16):
            assert gf.mul(a, b) == f.mul(a, b)


def test_sylvester_resultant_sees_common_root():
    gf = checks.GF(7)
    # (X0 - X1)(X0 + X1) against X0 - X1 share (1:1); against X0 + 2 X1 not
    quad = [1, 0, gf.neg(1)]
    assert checks.sylvester_resultant(quad, [1, gf.neg(1)], gf) == 0
    assert checks.sylvester_resultant(quad, [1, 2], gf) != 0
    # both leading coefficients zero: common root (0:1)
    assert checks.sylvester_resultant([0, 1, 1], [0, 1], gf) == 0


def test_stci_count_matches_program_and_rejects_a_wrong_count():
    for q in (7, 16, 27):
        field = cicensus.field_from_order(q)
        gf = checks.GF(field.p, field.k, field.modulus)
        systems, passes = [], 0
        for i in range(40):
            sysm = cicensus.sample_system(3, 2, (2, 1), q, f"t:{i}")
            systems.append([(g.terms, g.degree) for g in sysm.forms])
            passes += cicensus.certify(sysm, "stci")
        assert checks.stci_count_s2(systems, gf) == passes
    assert checks.stci_count_s2(systems, gf) != passes + 1


def test_exhaustive_closed_forms():
    q = 5
    total = checks.projective_count(5, q)
    good = {"stci": q ** 5, "ci": q ** 4 * (q - 1)}
    assert checks.check_exhaustive_conics(q, total, good) is None
    assert checks.check_exhaustive_conics(q, total, {**good, "ci": 2501})
    assert checks.check_exhaustive_conics(q, total - 1, good)


def test_concise_floor_matches_the_paper_and_the_program():
    assert checks.concise_floor(4, 2, (2, 2), 1009, "nons") == (
        Fraction(817, 1009), True)
    assert checks.concise_floor(3, 2, (2, 2), 16, "irr") == (
        Fraction(-5), False)
    for n, s, d in ((2, 1, (2,)), (3, 2, (2, 1)), (3, 2, (2, 2)),
                    (4, 2, (2, 2)), (5, 3, (2, 2, 2))):
        for q in (5, 16, 256, 1009):
            for cert in cicensus.CERTS:
                pb = cicensus.probability_lower_bound(n, s, d, q, cert)
                assert checks.concise_floor(n, s, d, q, cert) == (
                    pb.bound, pb.guard_met)


def test_floor_verdict():
    floor = Fraction(85, 101)
    assert checks.floor_verdict(190, 200, floor, True, False) == "consistent"
    assert checks.floor_verdict(0, 40, floor, True, False) == "violated"
    assert checks.floor_verdict(0, 40, floor, False, False) == "vacuous"
    assert checks.floor_verdict(3, 4, floor, True, True) == "violated"


def _summary(count, total, bound, guard_met, verdict):
    return SimpleNamespace(per_cert={"nons": SimpleNamespace(
        count=count, total=total, bound=bound, guard_met=guard_met,
        verdict=verdict)})


def test_census_checks_use_their_own_floors():
    floors = {"nons": checks.concise_floor(4, 2, (2, 2), 1009, "nons")}
    floor = floors["nons"][0]
    ok = _summary(6, 6, floor, True, "consistent")
    assert workloads._check_certs(ok, ("nons",), floors, False) == []
    # a lowered floor, or a guard reported unmet, is caught even when the
    # verdict is wired consistently with the report's own figures
    lowered = _summary(0, 6, Fraction(-1), True, "consistent")
    assert workloads._check_certs(lowered, ("nons",), floors, False)
    unguarded = _summary(0, 6, floor, False, "vacuous")
    assert workloads._check_certs(unguarded, ("nons",), floors, False)


def test_known_fault_exempts_only_the_confirmed_violation():
    floors = {"nons": checks.concise_floor(4, 2, (2, 2), 1009, "nons")}
    floor = floors["nons"][0]
    fault = _summary(0, 6, floor, True, "violated")
    msgs = workloads._check_certs(fault, ("nons",), floors, False, True)
    assert len(msgs) == 1 and isinstance(msgs[0], workloads.KnownFault)
    miswired = _summary(0, 6, floor, True, "consistent")
    msgs = workloads._check_certs(miswired, ("nons",), floors, False, True)
    assert msgs and not any(isinstance(m, workloads.KnownFault) for m in msgs)


def test_wilson_upper_matches_program():
    for count, total in ((0, 10), (7, 8), (190, 200), (200, 200)):
        assert abs(checks.wilson_upper(count, total)
                   - cicensus.wilson_interval(count, total)[1]) < 1e-12


def test_oracle_and_verdict_checks():
    ok = {"agree": True, "rooted": True, "gate_empty": False}
    assert checks.check_oracle_record(ok) is None
    assert checks.check_oracle_record({**ok, "gate_empty": True})
    assert checks.check_oracle_record({**ok, "agree": False})
    assert checks.check_verdict("fail", "fail") is None
    assert checks.check_verdict("pass", "fail")
    assert checks.check_verdict(None, "pass")


def test_reference_rank_over_extension_fields():
    rng = random.Random(2)
    for q in (16, 27, 256):
        f = cicensus.field_from_order(q)
        gf = checks.GF(f.p, f.k, f.modulus)
        for _ in range(5):
            rows = [[rng.randrange(q) for _ in range(7)] for _ in range(5)]
            # the last row is a * row 0 + row 1 over F_q
            a = rng.randrange(1, q)
            rows.append([gf.add(gf.mul(a, x), y)
                         for x, y in zip(rows[0], rows[1])])
            want = macaulay.rank_over_field(rows, f)
            assert want <= 5
            assert checks.rank_over_gf(np.array(rows), gf) == want


def test_reference_decision_agrees_with_the_program():
    for q in (101, 16, 27):
        field = cicensus.field_from_order(q)
        gf = checks.GF(field.p, field.k, field.modulus)
        for i in range(10):
            system = cicensus.sample_system(3, 2, (2, 2), q, f"d:{i}")
            for cert in ("ci", "irr"):
                ts = cicensus.build_test_system(system, cert)
                got = checks.decide_empty([g.terms for g in ts.forms],
                                          ts.degrees, ts.nvars, gf)[0]
                assert got == cicensus.certify(system, cert)


def test_reference_rank():
    p = 101
    assert checks.rank_mod_p([[1, 2], [2, 4]], p) == 1
    assert checks.rank_mod_p([[1, 2], [3, 4], [5, 6]], p) == 2
    rng = random.Random(0)
    rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
    rows.append([(a + 3 * b) % p for a, b in zip(rows[0], rows[1])])
    assert checks.rank_mod_p(rows, p) == 4


def test_planted_system_fails_every_certificate():
    text = workloads.random_system_text(random.Random(1), 101, 4, (2, 2),
                                        planted=True)
    system = cicensus.parse_system_file(text)
    assert not any(cicensus.certify(system, c) for c in cicensus.CERTS)


def test_failed_check_counts_the_operation():
    bad = workloads.Op("bad", lambda: 1, lambda out: ["wrong answer"])
    known = workloads.Op("known", lambda: 1,
                         lambda out: [workloads.KnownFault("known")])
    boom = workloads.Op("boom", lambda: 1 / 0, lambda out: [])
    good = workloads.Op("good", lambda: 1, lambda out: [])
    _, attempted, failed, unexpected = worker.run_round(
        [bad, known, boom, good])
    assert (attempted, failed) == (4, 3)
    assert len(unexpected) == 2 and unexpected[0] == "wrong answer"
