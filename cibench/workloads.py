"""The four workloads: their fixed case lists, inputs and reference values.

``WORKLOADS[name](seed, scratch)`` returns the operations of one round.
Each operation calls the program through a module attribute looked up
at call time, so that the tracer's wrappers are seen, and carries a
check that compares the output with a value computed here beforehand,
outside the timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cicensus.census as census
import cicensus.cli as cli
import cicensus.field as field
import cicensus.poly as poly

from checks import (GF, check_exhaustive_conics, check_oracle_record,
                    check_verdict, concise_floor, decide_empty, floor_verdict,
                    monomials, stci_count_s2)

HERE = Path(__file__).resolve().parent
SYSTEMS = HERE / "systems"
EXPECTED = HERE / "expected.json"
ALL = ("stci", "ci", "nons", "irr")

# Monte Carlo cases: (label, n, s, d, q, certs, trials).  Each call is
# kept well under a second (see README on timing).  Certificates whose
# floor sits so close to 1 that two or three failing trials out of this
# many already put the Wilson bound below it are left out: their verdict
# would depend on the seed.
PRIME_CASES = (
    ("p101", 3, 2, (2, 1), 101, ALL, 200),
    ("p1009-a", 3, 2, (2, 2), 1009, ("ci", "nons", "irr"), 50),
    ("p1009-b", 3, 2, (2, 2), 1009, ("ci", "nons", "irr"), 50),
)
# nons at n - s >= 2, s >= 2 fails on every trial (a defect in the
# Jacobian-minor recipe), so its inputs do not depend on the seed.
KNOWN_FAULT_CASE = ("nons-4-2", 4, 2, (2, 2), 1009, ("nons",), 6)
# Exhaustive (2, 1, (2,)) censuses: (label, q, certs).
EXHAUSTIVE_CASES = (
    ("exh3", 3, ALL),
    ("exh5-stci", 5, ("stci",)),
    ("exh5-ci", 5, ("ci",)),
)
EXT_CASES = (
    ("e256-a", 3, 2, (2, 2), 256, ("nons", "irr"), 1),    # q^2 product table
    ("e256-b", 3, 2, (2, 2), 256, ("nons", "irr"), 1),
    ("e16-80x56-a", 3, 2, (2, 2), 16, ("ci", "nons", "irr"), 3),
    ("e16-80x56-b", 3, 2, (2, 2), 16, ("ci", "nons", "irr"), 3),
    ("e16", 3, 2, (2, 1), 16, ALL, 20),
    ("e1331", 3, 2, (2, 2), 1331, ("irr",), 2),           # _mul_raw, odd p
    ("e27", 3, 2, (2, 1), 27, ALL, 30),
)
# Single-instance oracle_check calls with seed "20260810:j": four rooted
# instances and the first ten whose gate says empty in P^2 over F_3.
ORACLE_SEED = 20260810
ORACLE_INSTANCES = (2, 5, 6, 9, 56, 105, 118, 165, 172, 199, 229, 254, 256,
                    259)
LARGE_Q = 20011
# Committed systems with stored verdicts (see reference.py).
FIXED_SYSTEMS = (
    ("irr-5-3-222", 5, (2, 2, 2), "irr"),
    ("nons-4-3-222", 4, (2, 2, 2), "nons"),
    ("nons-4-1-3", 4, (3,), "nons"),
)
# Planted failures: every form lies in (X_1, ..., X_n)^2, so (1:0:...:0)
# is a common zero of the forms, of every Jacobian minor and of every
# coordinate slice the recipes add; every certificate must fail.
PLANTED_SYSTEMS = (
    ("planted-4-3-222", 4, (2, 2, 2), ALL),
    ("planted-4-1-3", 4, (3,), ("nons",)),
)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]  # a message if the operation failed


class KnownFault(str):
    """A failure message for the known fault: it counts in ``failed`` but
    does not make the run incorrect."""


# ---------------------------------------------------------------------------
# Inputs


def random_system_text(rng, q: int, nvars: int, degrees, planted=False) -> str:
    """System file over the prime field F_q with uniform coefficients.

    With ``planted`` only monomials of X_0-degree at most deg - 2 occur.
    """
    lines = [f"field {q}", f"nvars {nvars}"]
    for i, d in enumerate(degrees, start=1):
        mons = [e for e in monomials(nvars, d)
                if not planted or e[0] <= d - 2]
        while True:
            coeffs = [rng.randrange(q) for _ in mons]
            if any(coeffs):
                break
        terms = " + ".join(f"{c}:{','.join(map(str, e))}"
                           for c, e in zip(coeffs, mons) if c)
        lines.append(f"poly {i}: {terms}")
    return "\n".join(lines) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# census-prime and census-ext


def _gf(q: int) -> GF:
    f = field.field_from_order(q)
    return GF(f.p, f.k, f.modulus)


def _census_references(n, s, d, q, seed, trials, certs):
    """(cert, how the count was recomputed, pass count) for a census case.

    The systems and test systems come from the program's sampler and poly
    layer; the Macaulay matrices and ranks, and the Sylvester resultants
    for s = 2 ``stci``, are this directory's own.
    """
    gf = _gf(q)
    systems = [census.sample_system(n, s, d, q, census.trial_seed(seed, i))
               for i in range(trials)]
    refs = []
    for cert in certs:
        passes = 0
        for system in systems:
            ts = poly.build_test_system(system, cert)
            passes += decide_empty([f.terms for f in ts.forms], ts.degrees,
                                   ts.nvars, gf)[0]
        refs.append((cert, "the reference Macaulay decision", passes))
    if "stci" in certs and s == 2:
        forms = [[(f.terms, f.degree) for f in system.forms]
                 for system in systems]
        refs.append(("stci", "Sylvester resultants", stci_count_s2(forms, gf)))
    return refs


def in_child(fn, *args):
    """``fn(*args)`` computed in a forked child process, so that the memory
    of the reference computations stays out of the worker's peak_rss_mb."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            send.send((True, fn(*args)))
        except BaseException as exc:
            send.send((False, repr(exc)))

    proc = ctx.Process(target=target)
    proc.start()
    send.close()
    try:
        ok, value = recv.recv()
    finally:
        proc.join()
    if not ok:
        raise RuntimeError(f"reference computation failed: {value}")
    return value


def _check_certs(report, certs, floors, exact, known_fault=False):
    """Messages for the report's per-certificate summaries.

    The floor, the guard and the verdict are recomputed here.  A verdict of
    ``violated`` that the recomputation confirms fails the operation; for
    the known-fault case it is a ``KnownFault``, and anything else wrong
    with that case still counts as unexpected.
    """
    errs, below = [], []
    for cert in certs:
        cs = report.per_cert[cert]
        floor, guard_met = floors[cert]
        if (cs.bound, cs.guard_met) != (floor, guard_met):
            errs.append(f"{cert}: bound {cs.bound}, guard {cs.guard_met}; "
                        f"recomputed {floor}, {guard_met}")
        want = floor_verdict(cs.count, cs.total, floor, guard_met, exact)
        if cs.verdict != want:
            errs.append(f"{cert}: report says {cs.verdict}, recomputed {want}")
        elif want == "violated":
            below.append(f"{cert}: {cs.count}/{cs.total} passes, below the "
                         f"floor {floor} with its guard met")
    if errs or not below:
        return errs + below
    return [KnownFault(m) if known_fault else m for m in below]


def _census_op(case, seed, known_fault=False):
    label, n, s, d, q, certs, trials = case
    floors = {c: concise_floor(n, s, d, q, c) for c in certs}
    if known_fault and not all(g for _, g in floors.values()):
        raise ValueError(f"{label}: the known-fault case must be guarded")
    refs = in_child(_census_references, n, s, d, q, seed, trials, certs)

    def call():
        return census.run_census(n, s, d, q, "monte_carlo", trials=trials,
                                 seed=seed, certs=certs, jobs=1)

    def check(report):
        errs = [f"{cert}: total {report.per_cert[cert].total}"
                for cert in certs if report.per_cert[cert].total != trials]
        for cert, how, want in refs:
            got = report.per_cert[cert].count
            if got != want:
                errs.append(f"{cert}: {got} passes, {want} by {how}")
        msgs = _check_certs(report, certs, floors, False, known_fault)
        if errs:
            msgs = errs + msgs
        elif msgs and all(isinstance(m, KnownFault) for m in msgs):
            return [KnownFault(f"{label}: " + "; ".join(msgs))]
        return [f"{label}: " + "; ".join(msgs)] if msgs else []

    return Op(label, call, check)


def _exhaustive_op(case):
    label, q, certs = case
    n, s, d = 2, 1, (2,)
    floors = {c: concise_floor(n, s, d, q, c) for c in certs}

    def call():
        return census.run_census(n, s, d, q, "exhaustive", certs=certs,
                                 jobs=1)

    def check(report):
        errs = []
        msg = check_exhaustive_conics(
            q, report.total, {c: cs.count for c, cs in report.per_cert.items()})
        if msg:
            errs.append(msg)
        errs.extend(_check_certs(report, certs, floors, True))
        return [f"{label}: " + "; ".join(errs)] if errs else []

    return Op(label, call, check)


def census_prime(seed, scratch):
    ops = [_census_op(c, f"{seed}:{c[0]}") for c in PRIME_CASES]
    ops.extend(_exhaustive_op(c) for c in EXHAUSTIVE_CASES)
    ops.append(_census_op(KNOWN_FAULT_CASE, "fixed", known_fault=True))
    return ops


def census_ext(seed, scratch):
    return [_census_op(c, f"{seed}:{c[0]}") for c in EXT_CASES]


# ---------------------------------------------------------------------------
# certify-large


def _parse_verdict(text: str, cert: str):
    for line in text.splitlines():
        if line.startswith(f"{cert}: "):
            return line.split(": ")[1]
    return None


def _cli_op(label, path: Path, cert: str, want: str):
    argv = ["test", "--field", str(LARGE_Q), "--system", str(path),
            "--cert", cert]

    def call():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(out):
        rc, text = out
        msg = (f"exit code {rc}" if rc != 0
               else check_verdict(_parse_verdict(text, cert), want))
        return [f"{label} {cert}: {msg}"] if msg else []

    return Op(f"{label}:{cert}", call, check)


def certify_large(seed, scratch):
    expected = json.loads(EXPECTED.read_text())
    ops = []
    for label, _, _, cert in FIXED_SYSTEMS:
        path = SYSTEMS / f"{label}.sys"
        entry = expected[label]
        if sha256(path.read_text()) != entry["sha256"]:
            raise RuntimeError(f"{path} does not match its stored digest")
        ops.append(_cli_op(label, path, cert, entry["verdict"]))
    for label, n, degrees, certs in PLANTED_SYSTEMS:
        rng = random.Random(f"{seed}:{label}")
        path = scratch / f"{label}.sys"
        path.write_text(random_system_text(rng, LARGE_Q, n + 1, degrees,
                                           planted=True))
        ops.extend(_cli_op(label, path, cert, "fail") for cert in certs)
    return ops


# ---------------------------------------------------------------------------
# oracle


def _oracle_op(j):
    def call():
        return census.oracle_check(1, f"{ORACLE_SEED}:{j}", keep_records=True)

    def check(report):
        errs = [msg for msg in map(check_oracle_record, report.records) if msg]
        if len(report.records) != 1 or len(report.disagreements) != sum(
                not r["agree"] for r in report.records):
            errs.append("records and disagreements do not match")
        return [f"oracle {j}: " + "; ".join(errs)] if errs else []

    return Op(f"oracle-{j}", call, check)


def oracle(seed, scratch):
    # Instance costs are heavy-tailed (1 ms to 11 s), so a seed-dependent
    # mix would spread wall_s beyond any useful bound: the instances are
    # fixed and do not follow --seed.
    return [_oracle_op(j) for j in ORACLE_INSTANCES]


WORKLOADS = {
    "census-prime": census_prime,
    "census-ext": census_ext,
    "certify-large": certify_large,
    "oracle": oracle,
}
