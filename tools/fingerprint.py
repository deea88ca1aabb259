"""Print one sha256 per fixed case of cicensus output.

Run it on two checkouts and compare the lines: a change that keeps every
report byte-identical prints the same hashes.

    python3 tools/fingerprint.py            # every case
    python3 tools/fingerprint.py census     # cases whose label starts so

The cases are census JSON (``include_volatile=False, keep_trials=True``,
with point counts where P^n(F_q) is small enough to scan), the records
of ``oracle_check(60, 7)`` and of ``oracle_check(25, s)`` for s < 40,
the ``binomial_below`` verdicts for every count of 0 to 60 trials
against each of ``BINOMIAL_FLOORS``, the ``brute_force_absirr``
verdicts for every conic over F_2 and F_3 in enumeration order and for
the plane cubics ``sample_system(2, 1, (3,), 3, i)``, i < 40, the
``decide_many`` verdict vectors of ``ci``, ``nons`` and ``irr`` for all
29,524 plane cubics over F_3 (``decide-cubics-q3``, about 2 s), the
``decide`` verdict of ``nons`` for ``sample_system(4, 2, (3, 3), 1009,
0)`` (``nons-4-2-33``, a 5733x3060 matrix of rank 3060), the
polynomials themselves (``terms``: every Jacobian minor J_k of seeded
systems and the ``chow_class`` coefficients), ``Poly.eval_at`` of the
forms of seeded systems at every point of P^n(F_q) and, for q = 3 and 4,
of P^n(F_{q^2}) (``eval-at``, ``EVAL_SYSTEMS``), the field and embedding
table of ``Field(p, k).extension(m)`` for nine towers over non-prime
bases, the full ``add`` and ``sub`` tables of odd-characteristic
extension fields up to F_1331 (``field-add-sub``, ``ADD_SUB_FIELDS``),
the point search (``point-search``, ``POINT_SPACES``): the
``brute_force_empty`` verdicts, witnesses included, of seeded test
systems over P^1 to P^3 of F_2, F_3, F_4, F_5 and F_9 to depth 3 or
what the default point cap allows, ``census._points_at`` on a fixed
random index set per space, and the order of
``enumerate_systems(2, 1, (2,), 3)``, the ``rank_over_field`` ranks of
seeded low-rank stacks with a third of each matrix's columns zeroed, so
that lockstep groups split, over the fields of ``SPLIT_FIELDS``
(``stack-splits``), the ``rank_over_field`` ranks of seeded banded
matrices in shuffled row order, row-major and column-major, and the
``decide`` verdicts of every certificate for three seeded (3,2,(2,2))
and (4,2,(2,2)) systems decided one at a time, over the same fields
(``row-loop-layouts``: the row loop's window and its two updates), the
``decide_many`` (empty, rank, nrows, ncols) of every certificate for
every conic over F_3 and F_4 (``zero-form-verdicts``: a zero sliced form
adds zero rows to its matrix), the ``decide_many`` (empty, rank) vectors
of every certificate for 40 seeded (3,2,(2,2)) systems and the ``irr``
decision of ``sample_system(5, 3, (2, 2, 2), p, 0)`` for p in
``BIG_PRIMES``, and the ``nons`` decision of ``sample_system(4, 2, (3,
3), 150000001, 0)`` (``big-primes``: primes at which the kernels' reduction check runs,
about 3 s), and ``cicensus test`` on each committed system of
``cibench/systems``, one certificate at a time and with ``--cert all``
(``test-<stem>-all``: a verdict shared by certificates of one recipe
prints under each of them).  The package is
imported from the ``src`` beside this script, so the hashes belong to
that checkout.  The ``nons`` case of
``irr-5-3-222`` decides a 6237x3003 matrix in about 1.5 s and
``nons-4-2-33`` takes about 1.7 s, of a run of 41 cases in 16 s (one
core of a 2-core machine, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cicensus import (CERTS, Field, TestSystem,  # noqa: E402
                      brute_force_absirr, brute_force_empty, chow_class,
                      decide, decide_many, enumerate_systems,
                      feasible_max_ext, field_from_order, is_prime,
                      jacobian_minor, oracle_check, parse_system_file,
                      projective_points, rank_over_field, run_census,
                      sample_system)
from cicensus.bounds import projective_count  # noqa: E402
from cicensus.census import (DEFAULT_POINT_CAP, _points_at,  # noqa: E402
                             _random_form, binomial_below)
from cicensus.cli import main as cli_main  # noqa: E402

# (label, n, s, d, q, mode, trials, seed, certs, count_points[, jobs]); a
# case with jobs > 1 must hash like its serial twin
CENSUS_CASES = (
    ("census-3-2-21-q16", 3, 2, (2, 1), 16, "monte_carlo", 30, 5, CERTS, True),
    ("census-3-2-21-q101", 3, 2, (2, 1), 101, "monte_carlo", 30, 5, CERTS,
     False),
    ("census-3-2-21-q101-jobs2", 3, 2, (2, 1), 101, "monte_carlo", 30, 5,
     CERTS, False, 2),
    ("census-3-2-21-q101-points", 3, 2, (2, 1), 101, "monte_carlo", 3, 5,
     CERTS, True),
    ("census-3-2-22-q1009", 3, 2, (2, 2), 1009, "monte_carlo", 30, 5, CERTS,
     False),
    # two batches of 15 trials, one per worker, each one stack of the
    # 80x56 matrices of nons and irr; the serial twin above decides one
    # batch of 30, in stacks of 29 and 1
    ("census-3-2-22-q1009-jobs2", 3, 2, (2, 2), 1009, "monte_carlo", 30, 5,
     CERTS, False, 2),
    # one batch of 200 trials in stacks of 29; the batches of 64 in
    # stacks of 7 that earlier versions decided must hash alike
    ("census-3-2-22-q1009-200", 3, 2, (2, 2), 1009, "monte_carlo", 200, 5,
     ("ci", "nons", "irr"), False),
    ("census-4-2-22-q1009", 4, 2, (2, 2), 1009, "monte_carlo", 30, 1,
     ("stci", "ci", "irr"), False),
    ("census-4-2-22-q1009-nons", 4, 2, (2, 2), 1009, "monte_carlo", 30, 1,
     ("nons",), False),
    ("census-exhaustive-2-1-2-q3", 2, 1, (2,), 3, "exhaustive", None, None,
     CERTS, True),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _census(n, s, d, q, mode, trials, seed, certs, count_points, jobs=1):
    report = run_census(n, s, d, q, mode, trials=trials, seed=seed,
                        certs=certs, count_points=count_points,
                        keep_trials=True, jobs=jobs)
    return report.to_json(include_volatile=False)


def _oracle():
    report = oracle_check(60, 7, keep_records=True)
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _oracle_seeds():
    return "\n".join(
        json.dumps(oracle_check(25, s, keep_records=True).to_json_dict(),
                   sort_keys=True) for s in range(40))


# floors x/y, 0 <= x < y, and two census floors; a floor of 1 is left out
# so that the case runs on checkouts whose binomial_below divides by b - a
BINOMIAL_FLOORS = tuple(Fraction(x, y) for y in (2, 3, 7, 10, 101)
                        for x in range(y)) + (Fraction(81, 100),
                                              Fraction(1005, 1009))


def _binomial_grid():
    return "\n".join(
        f"{floor} " + "".join(str(int(binomial_below(k, total, floor)))
                              for total in range(61)
                              for k in range(total + 1))
        for floor in BINOMIAL_FLOORS)


def _absirr_conics():
    return "".join(str(int(brute_force_absirr(system.forms[0])))
                   for q in (2, 3)
                   for system in enumerate_systems(2, 1, (2,), q))


def _absirr_cubics():
    return "".join(str(int(brute_force_absirr(
        sample_system(2, 1, (3,), 3, i).forms[0]))) for i in range(40))


def _decide_cubics():
    # 13,122 ci, 11,664 nons and 11,664 irr passes
    cubics = list(enumerate_systems(2, 1, (3,), 3))
    return "\n".join(
        f"{cert} " + "".join(str(int(v.empty))
                             for v in decide_many(cubics, cert))
        for cert in ("ci", "nons", "irr"))


def _decide_nons_4_2_33():
    # a 5733x3060 matrix over F_1009 of rank 3060
    return repr(decide(sample_system(4, 2, (3, 3), 1009, 0), "nons"))


# (n, s, d, q) of the systems whose minors the terms case hashes; the
# F_27 case has n - s = 2, so its last minor takes the Vandermonde columns,
# and the s = 1 and s = 3 cases give 1x1 and 3x3 determinants
TERMS_PATTERNS = ((3, 2, (2, 2), 3), (3, 2, (2, 2), 16), (3, 2, (2, 2), 101),
                  (4, 2, (2, 2), 27), (3, 1, (3,), 5), (4, 3, (2, 2, 1), 16))


def _terms():
    lines = []
    for n, s, d, q in TERMS_PATTERNS:
        for seed in range(20):
            system = sample_system(n, s, d, q, seed)
            lines += [jacobian_minor(system, k).serialize()
                      for k in range(s + 1, n + 2)]
    for cert in ("nons", "irr"):
        for n in range(2, 6):
            for s in range(1, n):
                cls = chow_class(cert, n, s, range(s + 1, 1, -1))
                lines.append(repr(sorted(cls.coeffs.items())))
    return "\n".join(lines)


# (n, s, d, q) of the seeded systems whose forms the eval-at case
# evaluates at every point of P^n(F_q), and for q in EVAL_SQUARED also at
# every point of P^n(F_{q^2}) through field=
EVAL_SYSTEMS = tuple((2, 1, (3,), q) for q in (3, 4, 16, 27, 101)) + (
    (3, 2, (2, 1), 3), (3, 2, (2, 1), 4))
EVAL_SQUARED = (3, 4)


def _eval_at():
    lines = []
    for n, s, d, q in EVAL_SYSTEMS:
        for seed in range(3):
            system = sample_system(n, s, d, q, seed)
            fields = [system.field]
            if q in EVAL_SQUARED:
                fields.append(system.field.extension(2)[0])
            for f in system.forms:
                for ext in fields:
                    lines.append(" ".join(str(f.eval_at(x, field=ext))
                                          for x in projective_points(ext, n)))
    return "\n".join(lines)


# (p, k, m) of the towers F_{p^k} -> F_{p^(km)} the extension case hashes:
# every one has a base that is not a prime field, so its embedding is not
# the identity, in characteristics 2, 3, 5 and 7
TOWERS = ((2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 4, 3), (3, 2, 2), (3, 2, 3),
          (5, 2, 2), (3, 3, 2), (7, 2, 2))


def _extension_embeddings():
    return "\n".join(repr((ext.q, ext.modulus, emb)) for ext, emb in
                     (Field(p, k).extension(m) for p, k, m in TOWERS))


# (p, k) of the fields whose add and sub tables, over every pair of
# elements, the field-add-sub case hashes
ADD_SUB_FIELDS = ((3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3),
                  (3, 5), (11, 3))


def _field_add_sub():
    lines = []
    for p, k in ADD_SUB_FIELDS:
        f = Field(p, k)
        a = np.repeat(np.arange(f.q, dtype=np.int64), f.q)
        b = np.tile(np.arange(f.q, dtype=np.int64), f.q)
        lines += [" ".join(map(str, f.add(a, b).tolist())),
                  " ".join(map(str, f.sub(a, b).tolist()))]
    return "\n".join(lines)


# (q, n) of the spaces P^n(F_q) the point-search case scans and indexes
POINT_SPACES = tuple((q, n) for q in (2, 3, 4, 5, 9) for n in (1, 2, 3))


def _point_search():
    lines = []
    for q, n in POINT_SPACES:
        field = field_from_order(q)
        depth = feasible_max_ext(field, n, DEFAULT_POINT_CAP, 3)
        for k in range(12):
            # n+1 random forms, or n forms and a repeat, so that both
            # verdicts and witnesses over several extensions occur
            rng = random.Random(f"point-search:{q}:{n}:{k}")
            degrees = tuple(rng.choice((1, 2, 3)) for _ in range(n + 1))
            forms = [_random_form(rng, field, n + 1, e) for e in degrees]
            if k % 2:
                forms[-1], degrees = forms[0], degrees[:-1] + degrees[:1]
            ts = TestSystem("point-search", field, n + 1, forms, degrees)
            lines.append(repr((q, n, degrees, brute_force_empty(ts, depth))))
        total = projective_count(n, q)
        i = np.random.default_rng(q * 10 + n).integers(0, total, 300)
        lines.append(repr(_points_at(q, n, i).tolist()))
    lines += [system.serialize() for system in enumerate_systems(2, 1, (2,), 3)]
    return "\n".join(lines)


# (p, k) of the fields whose stack ranks the stack-splits case hashes:
# F_2, F_3, F_20011, the two ends of the reduction interval (L = 3 at the
# first prime above 1.7e9, L = 2 at 2^31 - 1), F_16 and F_27
P_L3 = next(p for p in range(1_700_000_000, 1 << 31) if is_prime(p))
SPLIT_FIELDS = ((2, 1), (3, 1), (20011, 1), (P_L3, 1), (2 ** 31 - 1, 1),
                (2, 4), (3, 3))


def _stack_splits():
    lines = []
    for p, k in SPLIT_FIELDS:
        field = Field(p, k)
        rng = np.random.default_rng(p % 1009 + k)
        for _ in range(40):
            nb = int(rng.integers(2, 10))
            nrows, ncols = (int(x) for x in rng.integers(2, 16, size=2))
            # each row a combination of two of `rank` random rows, and a
            # third of the columns zeroed per matrix, so that columns have
            # pivots in only some matrices and groups split
            rank = int(rng.integers(1, min(nrows, ncols) + 1))
            base = rng.integers(0, field.q, size=(nb, rank, ncols))
            pick = rng.integers(0, rank, size=(2, nb, nrows))
            mult = rng.integers(0, field.q, size=(2, nb, nrows, 1))
            mats = field.add(
                field.mul(np.take_along_axis(base, pick[0][..., None], 1),
                          mult[0]),
                field.mul(np.take_along_axis(base, pick[1][..., None], 1),
                          mult[1]))
            mats[rng.random((nb, 1, ncols)).repeat(nrows, 1) < 1 / 3] = 0
            lines.append(repr((p, k, rank_over_field(mats, field).tolist())))
    return "\n".join(lines)


def _zero_form_verdicts():
    # 211 of the 1,456 verdicts over F_3 and 980 of the 5,460 over F_4 have
    # a zero sliced form, whose rows in the matrix are zero
    lines = []
    for q in (3, 4):
        conics = list(enumerate_systems(2, 1, (2,), q))
        for cert in CERTS:
            lines.append(repr((q, cert, [(v.empty, v.rank, v.nrows, v.ncols)
                                         for v in decide_many(conics, cert)])))
    return "\n".join(lines)


def _row_loop_layouts():
    lines = []
    for p, k in SPLIT_FIELDS:
        field = Field(p, k)
        rng = np.random.default_rng(p % 1013 + 7 * k)
        for _ in range(20):
            ncols = int(rng.integers(4, 40))
            nrows = int(rng.integers(ncols // 2, 2 * ncols + 1))
            rank = int(rng.integers(1, ncols + 1))
            width = int(rng.integers(1, 9))
            # `rank` band rows of `width` columns from a start that moves
            # right, each row a combination of two neighbouring ones, the
            # rows shuffled: the row loop's window is wide in this order
            first = np.arange(rank) * max(ncols - width, 0) // max(rank - 1, 1)
            cols = np.arange(ncols)
            band = rng.integers(0, field.q, size=(rank, ncols))
            band[(cols < first[:, None]) | (cols >= first[:, None] + width)] = 0
            pick = np.minimum(np.arange(nrows) * rank // nrows
                              + rng.integers(0, 2, size=(2, nrows)), rank - 1)
            mult = rng.integers(0, field.q, size=(2, nrows, 1))
            mat = field.add(field.mul(band[pick[0]], mult[0]),
                            field.mul(band[pick[1]], mult[1]))
            mat = mat[rng.permutation(nrows)]
            lines.append(repr((p, k, rank_over_field(mat, field),
                               rank_over_field(np.asfortranarray(mat),
                                               field))))
        # one system per decision: one matrix, rows in start order
        for n, s, d in ((3, 2, (2, 2)), (4, 2, (2, 2))):
            for i in range(3):
                system = sample_system(n, s, d, field.q, f"row-loop:{i}")
                lines += [repr(decide(system, cert)) for cert in CERTS]
    return "\n".join(lines)


# primes whose interval L = floor((2^63 - 1 - p) / (p-1)^2) is 3049, 409,
# 3 and 2: each is above 39,901,857, so L^2 < DEFAULT_MAX_CELLS and the
# kernels' reduction check runs on every matrix at all four
BIG_PRIMES = (55000013, 150000001, P_L3, 2 ** 31 - 1)


def _big_primes():
    lines = []
    for p in BIG_PRIMES:
        systems = [sample_system(3, 2, (2, 2), p, i) for i in range(40)]
        for cert in CERTS:
            lines.append(repr((p, cert, [(v.empty, v.rank) for v in
                                         decide_many(systems, cert)])))
        lines.append(repr(decide(sample_system(5, 3, (2, 2, 2), p, 0),
                                 "irr")))
    lines.append(repr(decide(sample_system(4, 2, (3, 3), 150000001, 0),
                             "nons")))
    return "\n".join(lines)


def _cli_test(path: Path, cert: str):
    field = parse_system_file(path.read_text()).field.spec_str()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["test", "--field", field, "--system", str(path),
                         "--cert", cert])
    return f"exit {code}\n{out.getvalue()}"


def cases():
    """(label, thunk returning the text to hash), in a fixed order."""
    for label, *args in CENSUS_CASES:
        yield label, lambda args=args: _census(*args)
    yield "oracle-60-7", _oracle
    yield "oracle-40x25", _oracle_seeds
    yield "binomial-grid", _binomial_grid
    yield "absirr-conics-q2-q3", _absirr_conics
    yield "absirr-cubics-q3", _absirr_cubics
    yield "decide-cubics-q3", _decide_cubics
    yield "nons-4-2-33", _decide_nons_4_2_33
    yield "terms", _terms
    yield "eval-at", _eval_at
    yield "extension-embeddings", _extension_embeddings
    yield "field-add-sub", _field_add_sub
    yield "point-search", _point_search
    yield "stack-splits", _stack_splits
    yield "row-loop-layouts", _row_loop_layouts
    yield "zero-form-verdicts", _zero_form_verdicts
    yield "big-primes", _big_primes
    for path in sorted((ROOT / "cibench" / "systems").glob("*.sys")):
        for cert in CERTS + ("all",):
            yield (f"test-{path.stem}-{cert}",
                   lambda path=path, cert=cert: _cli_test(path, cert))


def main(argv) -> int:
    for label, thunk in cases():
        if not argv or any(label.startswith(a) for a in argv):
            print(f"{_sha(thunk())}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
