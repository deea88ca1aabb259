"""Sampling, exhaustive enumeration, certificate censuses, and the
brute-force oracles used to cross-check the emptiness gate.

Sampling model: each form is a uniform nonzero coefficient vector, so the
induced distribution on projective coefficient space is uniform (every
projective point has exactly q-1 nonzero representatives).  Per-trial
seeds are derived from the master seed by a counter construction, which
makes trials independent, parallelizable, and reproducible: identical
parameters and seed give byte-identical reports up to the volatile
timestamp/runtime fields.  A census decides its trials in batches of
coefficient arrays, one int64 row per trial and form: Monte Carlo rows
are drawn as ``sample_system`` draws them, exhaustive rows are read from
the system index, and the whole batch is decided in stacks
(``decide_coeffs``) without building a Poly.  Certificates with equal
``cert_recipe`` build the same Macaulay matrices, so each distinct recipe
is eliminated once per batch and its certificates share the verdicts:
``nons`` and ``irr`` on every curve pattern (n - s = 1), where both keep
two minors.  Results are read back in index order, so reports do not
depend on ``jobs``.

A Monte Carlo census reports "violated" when its pass count is below
the floor by an exact one-sided binomial test at the 3-sigma level: one
pass down from the count, none from the mean up (the median is within
one of the mean: Kaas and Buhrman 1980).  The 3-sigma Wilson interval
is shown beside it; a floor whose q-guard fails reads "vacuous".

Point counting and the brute-force emptiness search scan P^n(F_{q^m}) in
int64 blocks of points, in the order of projective_points, evaluating
each form on a whole block with ``Poly.values`` (``Poly.eval_at`` is its
one-point case); a search of depth 0 scans nothing.  The factor search
takes its candidate factors in the same blocks and ranks a whole block
as one stack of ``macaulay._stack`` matrices.  One rule turns indices
into points, for these blocks, for the system index of an exhaustive
census and for the rooted draws of ``oracle_check`` (``_points_at``):
q^(n-L) points have lead L, and point i of lead L, less the points of
the leads before it, plus the lead's weight q^(n-L), is the point
written in base q.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache, partial
from multiprocessing import Pool

import numpy as np

from .bounds import (pattern_stats, probability_lower_bound,
                     projective_count, recipe_macaulay_shape,
                     system_space_size)
from .errors import PatternViolation, SearchSpaceTooLarge, TooLarge
from .field import Field, field_from_order
from .macaulay import (DEFAULT_MAX_CELLS, _stack, check_shape, decide_coeffs,
                       projective_empty, rank_over_field)
from .poly import (CERTS, DegreePattern, Poly, PolySystem, TestSystem,
                   coeff_array, form_from_coeffs, monomials, shift_index)

DEFAULT_EXHAUSTIVE_CAP = 10_000_000
DEFAULT_POINT_CAP = 200_000
CENSUS_COUNT_CAP = 1 << 22  # largest P^n(F_{q^m}) a point count scans
DEFAULT_FACTOR_CAP = 200_000
# oracle_check draws n, q and n+1 degrees with product <= ORACLE_MAX_BEZOUT
ORACLE_DIMS = (1, 2, 3)
ORACLE_FIELDS = (2, 3, 5)
ORACLE_MAX_BEZOUT = 8
_BLOCK = 4096  # points or candidate factors per array, bounding its memory
_BATCH = 256  # census trials decided together; macaulay cuts the stacks
VIOLATION_ALPHA = Fraction(135, 100000)  # one-sided 3 sigma
WILSON_Z = 3.0  # the displayed interval is 3 sigma wide on each side


def trial_seed(master, index: int) -> str:
    """Counter-derived per-trial seed; stable across platforms."""
    return f"{master}:{index}"


# ---------------------------------------------------------------------------
# Sampling and enumeration


def _random_vector(rng, q: int, size: int) -> list:
    """A uniform nonzero vector of `size` encodings in F_q."""
    while True:
        vec = [rng.randrange(q) for _ in range(size)]
        if any(vec):
            return vec


def _random_form(rng, field, nvars, degree):
    """Form of the given degree with a uniform nonzero coefficient vector."""
    return form_from_coeffs(field, nvars, degree, _random_vector(
        rng, field.q, len(monomials(nvars, degree))))


def _sampled_vectors(pattern: DegreePattern, q: int, seed) -> list:
    """The coefficient vector of each form of the system sampled on the
    stream random.Random(seed)."""
    rng = random.Random(seed)
    return [_random_vector(rng, q, len(monomials(pattern.n + 1, e)))
            for e in pattern.d]


def _system(pattern: DegreePattern, field: Field, vectors) -> PolySystem:
    """The system whose forms have the coefficient vectors (int lists)."""
    return PolySystem(pattern=pattern, field=field, forms=tuple(
        form_from_coeffs(field, pattern.n + 1, e, vec)
        for e, vec in zip(pattern.d, vectors)))


def sample_system(n: int, s: int, d, q: int, seed) -> PolySystem:
    """Uniform system: each form a uniform nonzero coefficient vector."""
    pattern = DegreePattern(n=n, s=s, d=tuple(d))
    return _system(pattern, field_from_order(q),
                   _sampled_vectors(pattern, q, seed))


def _exhaustive_size(pattern: DegreePattern, q: int, cap) -> int:
    """system_space_size, or TooLarge above the cap or int64 indexing.
    The count is bounded by bit lengths before it is computed: it is at
    least q^D >= 2^bits, D = sum D_i (``pattern_stats``)."""
    bits = (pattern_stats(pattern.n, pattern.s, pattern.d).big_d_total
            * (q.bit_length() - 1))
    if cap is not None and bits >= cap.bit_length():
        raise TooLarge(f"2^{bits} or more systems exceed the exhaustive cap "
                       f"{cap}")
    if bits >= 63:
        raise TooLarge(f"2^{bits} or more systems are too many to index in "
                       f"int64")
    total = system_space_size(pattern.n, pattern.s, pattern.d, q)
    if cap is not None and total > cap:
        raise TooLarge(f"{total} systems exceed the exhaustive cap {cap}")
    if total >= 2 ** 63:
        raise TooLarge(f"{total} systems are too many to index in int64")
    return total


def _enumerated_vectors(pattern: DegreePattern, q: int, indices) -> list:
    """One (B, M_i) coefficient array per form of the systems at the
    given indices (a range) of the enumeration: system i is a point of
    each P^{M_i - 1}(F_q), in the order of projective_points, its index
    read in mixed radix with the first form most significant."""
    i = np.arange(indices.start, indices.stop, dtype=np.int64)
    out = []
    for e in reversed(pattern.d):
        dim = len(monomials(pattern.n + 1, e)) - 1
        size = projective_count(dim, q)
        out.append(_points_at(q, dim, i % size))
        i = i // size
    return out[::-1]


def enumerate_systems(n: int, s: int, d, q: int,
                      cap: int | None = DEFAULT_EXHAUSTIVE_CAP):
    """Every system once, via canonical projective representatives."""
    pattern = DegreePattern(n=n, s=s, d=tuple(d))
    field = field_from_order(q)
    total = _exhaustive_size(pattern, q, cap)
    for lo in range(0, total, _BLOCK):
        vectors = _enumerated_vectors(pattern, q,
                                      range(lo, min(lo + _BLOCK, total)))
        for vecs in zip(*(v.tolist() for v in vectors)):
            yield _system(pattern, field, vecs)


# ---------------------------------------------------------------------------
# Point iteration and counting


def projective_points(field: Field, n: int):
    """Canonical representatives of P^n(F_q): first nonzero coordinate 1."""
    q = field.q
    for lead in range(n + 1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=n - lead):
            yield prefix + tail


def _points_at(q: int, n: int, i):
    """Points i (an int64 array) of P^n(F_q) in the order of
    projective_points, one row each.  weights[L] = q^(n-L) points have
    lead L, from starts[L] on; point i has the largest L with starts[L]
    <= i.  For L >= 1, v = i - starts[L] + weights[L] <= i is the point
    written in base q: digit 1 at X_L and 0 before it.  For L = 0, v = i
    gives the digits after X_0, and X_0 is i < weights[0].  So no
    intermediate exceeds i, and each digit of v is u = v // q with a
    scalar q, then v - u*q, written to its own column."""
    weights = q ** np.arange(n, -1, -1, dtype=np.int64)
    starts = np.cumsum(weights) - weights
    offset = weights - starts
    offset[0] = 0
    v = i + offset[np.searchsorted(starts, i, side="right") - 1]
    pts = np.empty((len(i), n + 1), dtype=np.int64)
    for j in range(n, 0, -1):
        u = v // q
        pts[:, j] = v - u * q
        v = u
    pts[:, 0] = i < weights[0]
    return pts


def _point_blocks(field: Field, n: int):
    """P^n(F_q) as int64 arrays of at most _BLOCK rows, in the order of
    projective_points.  A space of 2^63 points or more cannot be indexed
    in int64 and raises TooLarge."""
    q = field.q
    total = projective_count(n, q)
    if total >= 2 ** 63:
        raise TooLarge(f"P^{n}(F_{q}) has too many points to index in int64")
    for lo in range(0, total, _BLOCK):
        yield _points_at(q, n, np.arange(lo, min(lo + _BLOCK, total),
                                         dtype=np.int64))


def _common_zeros(forms, field: Field, emb, pts):
    """The rows of the point block pts at which every form vanishes, in
    order, cheapest form first; coefficients enter field through emb."""
    for f in sorted(forms, key=lambda f: (f.degree, len(f.terms))):
        pts = pts[f.values(pts, field, emb) == 0]
        if not len(pts):
            break
    return pts


def count_zf_points(system: PolySystem, ext_degree: int = 1) -> int:
    """F_{q^m}-points of Z(f) in P^n; TooLarge over CENSUS_COUNT_CAP points."""
    n, q = system.pattern.n, system.field.q ** ext_degree
    if projective_count(n, q) > CENSUS_COUNT_CAP:
        raise TooLarge(f"P^{n}(F_{q}) exceeds {CENSUS_COUNT_CAP} points")
    ext, emb = system.field.extension(ext_degree)
    return sum(len(_common_zeros(system.forms, ext, emb, pts))
               for pts in _point_blocks(ext, n))


# ---------------------------------------------------------------------------
# Brute-force oracles


@dataclass(frozen=True)
class BruteForceVerdict:
    nonempty: bool
    witness: tuple | None
    ext_degree: int | None   # extension where the witness lives
    searched_up_to: int      # largest extension degree scanned


def feasible_max_ext(field: Field, n: int, point_cap: int, limit: int) -> int:
    """Largest m <= limit with sum_{i<=m} p_n(q^i) within the point budget."""
    total = 0
    m = 0
    while m < limit:
        step = projective_count(n, field.q ** (m + 1))
        if total + step > point_cap:
            break
        total += step
        m += 1
    return m


def brute_force_empty(ts: TestSystem, max_ext: int | None = None,
                      point_cap: int = DEFAULT_POINT_CAP) -> BruteForceVerdict:
    """Search P^n(F_{q^m}) for m = 1..max_ext for a common zero.

    Bounded-empty verdicts are pragmatic: a zero set may exist whose
    points all live in deeper extensions than the search reaches.
    max_ext = 0 searches nothing (searched_up_to 0); a negative max_ext,
    or one whose points exceed point_cap, raises SearchSpaceTooLarge.
    """
    n = ts.nvars - 1
    field = ts.field
    if max_ext is None:
        max_ext = max(math.prod(ts.degrees), 4)
    if max_ext < 0:
        raise SearchSpaceTooLarge("max_ext must be at least 0")
    if feasible_max_ext(field, n, point_cap, max_ext) < max_ext:
        raise SearchSpaceTooLarge(
            f"points over extensions up to {max_ext} exceed cap {point_cap}")
    for m in range(1, max_ext + 1):
        ext, emb = field.extension(m)
        for pts in _point_blocks(ext, n):
            zeros = _common_zeros(ts.forms, ext, emb, pts)
            if len(zeros):
                return BruteForceVerdict(nonempty=True,
                                         witness=tuple(map(int, zeros[0])),
                                         ext_degree=m, searched_up_to=m)
    return BruteForceVerdict(nonempty=False, witness=None,
                             ext_degree=None, searched_up_to=max_ext)


def brute_force_absirr(f: Poly) -> bool:
    """True iff f has no proper homogeneous factor over F_{q^m}, m <= deg(f).

    Exhaustive search over candidate factors of degree <= deg(f)/2, taken
    in the point blocks of P^{M-1}(F_{q^m}) and decided a block at a time
    as one stack of rank problems; the cofactor is solved for by linear
    algebra.  A factor of an absolutely reducible form is defined over an
    extension of degree at most deg(f), hence the search depth.  More than DEFAULT_FACTOR_CAP candidates
    raise SearchSpaceTooLarge.
    """
    if f.is_zero():
        return False
    deg, nv = f.degree, f.nvars
    if deg > 4 or nv > 3:
        raise SearchSpaceTooLarge("factor search supports deg <= 4, nvars <= 3")
    if deg == 1:
        return True
    field = f.field
    candidates = 0
    for m in range(1, deg + 1):
        for a in range(1, deg // 2 + 1):
            count_a = len(monomials(nv, a))
            candidates += projective_count(count_a - 1, field.q ** m)
    if candidates > DEFAULT_FACTOR_CAP:
        raise SearchSpaceTooLarge(f"{candidates} candidate factors exceed "
                                  f"cap {DEFAULT_FACTOR_CAP}")
    f_vec = coeff_array([f], nv, deg)
    for m in range(1, deg + 1):
        ext, emb = field.extension(m)
        f_rows = np.asarray(emb, dtype=np.int64)[f_vec]
        for a in range(1, deg // 2 + 1):
            # per candidate g, rows m_b * g over the degree-deg monomials,
            # then f; the first nb are independent because g != 0, so g
            # divides f iff f adds nothing to their rank
            shift = shift_index(nv, deg, a)
            nb = len(shift)
            for g in _point_blocks(ext, shift.shape[1] - 1):
                rows = _stack([g, f_rows], [shift, shift_index(nv, deg, deg)],
                              f_vec.shape[1])
                if (rank_over_field(rows, ext) == nb).any():
                    return False
    return True


# ---------------------------------------------------------------------------
# Census runs


def wilson_interval(count: int, total: int):
    """Wilson score interval for a binomial proportion, WILSON_Z wide."""
    if total == 0:
        return (0.0, 1.0)
    phat = count / total
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def binomial_below(count: int, total: int, floor: Fraction) -> bool:
    """True iff P[Bin(total, floor) <= count] < VIOLATION_ALPHA: so few
    passes are too unlikely if the pass rate were the floor (one-sided
    Clopper-Pearson).  Exact in integers for floor = a/b: P >= 1/2 from
    the mean up; below it, the terms C(total, i) a^i (b-a)^(total-i) are
    summed down from i = count until the tail, or the tail plus a
    geometric bound on the terms left, settles the comparison."""
    a, b = floor.numerator, floor.denominator
    if count * b >= total * a:
        return False
    limit = VIOLATION_ALPHA.numerator * b ** total
    t = (VIOLATION_ALPHA.denominator * math.comb(total, count)
         * a ** count * (b - a) ** (total - count))
    tail = 0
    for i in range(count, 0, -1):
        tail += t
        up, down = i * (b - a), (total - i + 1) * a  # rho = up / down
        if tail >= limit or tail - (-t * up // (down - up)) < limit:
            return tail < limit
        t = t * up // down  # exact
    return tail + t < limit


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: str
    system_text: str
    verdicts: dict
    points: int | None = None

    def to_json_dict(self):
        return {"index": self.index, "seed": self.seed,
                "system": self.system_text, "verdicts": dict(self.verdicts),
                "points": self.points}


@dataclass(frozen=True)
class CertSummary:
    cert: str
    count: int
    total: int
    freq: Fraction
    interval: tuple | None
    bound: Fraction
    product_bound: Fraction
    guard_met: bool
    verdict: str  # consistent | violated | vacuous


@dataclass(frozen=True)
class CensusReport:
    n: int
    s: int
    d: tuple
    q: int
    mode: str
    seed: object
    total: int
    certs: tuple
    per_cert: dict
    point_check: dict | None
    trial_records: tuple | None
    runtime_ms: int
    timestamp: str

    def to_json_dict(self, include_volatile: bool = True) -> dict:
        per_cert = {}
        for cert, cs in self.per_cert.items():
            entry = {
                "count": cs.count,
                "total": cs.total,
                "freq": str(cs.freq),
                "freq_approx": float(cs.freq),
                "interval": list(cs.interval) if cs.interval else None,
                "bound": str(cs.bound),
                "bound_approx": float(cs.bound),
                "product_bound": str(cs.product_bound),
                "guard": "met" if cs.guard_met else "unmet",
                "verdict": cs.verdict,
            }
            per_cert[cert] = entry
        out = {
            "schema": 1,
            "params": {"n": self.n, "s": self.s, "d": list(self.d),
                       "q": self.q, "certs": list(self.certs)},
            "mode": self.mode,
            "seed": self.seed,
            "total": self.total,
            "per_cert": per_cert,
            "point_check": self.point_check,
        }
        if self.trial_records is not None:
            out["trials"] = [t.to_json_dict() for t in self.trial_records]
        if include_volatile:
            out["runtime_ms"] = self.runtime_ms
            out["timestamp"] = self.timestamp
        return out

    def to_json(self, include_volatile: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_volatile),
                          indent=2, sort_keys=True)

    def csv_rows(self):
        rows = [("cert", "count", "total", "freq", "lo", "hi", "bound", "verdict")]
        for cert, cs in self.per_cert.items():
            lo, hi = cs.interval if cs.interval else ("", "")
            rows.append((cert, cs.count, cs.total, float(cs.freq),
                         lo, hi, str(cs.bound), cs.verdict))
        return rows

    @property
    def violated(self) -> bool:
        return any(cs.verdict == "violated" for cs in self.per_cert.values())


def _batch(spec, certs, count_points: bool, keep_trials: bool, trials):
    """Decide the trials of a census, a range of indices, with ``spec =
    (pattern, q, mode, seed)``: Monte Carlo trial i is drawn from its own
    stream random.Random(trial_seed(seed, i)), as ``sample_system`` draws
    it, and exhaustive trial i is system i of ``enumerate_systems``.
    Their coefficient vectors fill one array per form, from which one
    ``decide_coeffs`` call decides the whole batch for every certificate,
    each distinct recipe once; a Poly is built only to count points or to
    keep the system text.  Points are counted only where the report reads
    them: for kept trials and for trials that pass ``ci``.  Returns
    (verdicts, points or None, system text) per trial, in order."""
    pattern, q, mode, seed = spec
    field = field_from_order(q)
    if mode == "exhaustive":
        forms = _enumerated_vectors(pattern, q, trials)
    else:
        rows = [_sampled_vectors(pattern, q, trial_seed(seed, i))
                for i in trials]
        forms = [np.array(vecs, dtype=np.int64) for vecs in zip(*rows)]
    decided = decide_coeffs(pattern, field, forms, certs)
    out = []
    for i in range(len(trials)):
        verdicts = {cert: decided[cert][i].empty for cert in certs}
        count = count_points and (keep_trials or verdicts.get("ci", False))
        system = (_system(pattern, field, [f[i].tolist() for f in forms])
                  if count or keep_trials else None)
        out.append((verdicts, count_zf_points(system) if count else None,
                    system.serialize() if keep_trials else None))
    return out


def run_census(n: int, s: int, d, q: int, mode: str, *, trials: int | None = None,
               seed=None, certs=CERTS, jobs: int = 1, count_points: bool = False,
               keep_trials: bool = False,
               exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP) -> CensusReport:
    """Run a certificate census and compare against the theoretical floors.

    Trials are decided in batches of at most _BATCH, at least one per
    worker.  A matrix or a batch of coefficient arrays over
    DEFAULT_MAX_CELLS cells, an exhaustive space over the cap, or with
    ``count_points`` a P^n(F_q) over CENSUS_COUNT_CAP points, raises
    TooLarge before anything is sampled."""
    t0 = time.monotonic()
    pattern = DegreePattern(n=n, s=s, d=tuple(d))
    field_from_order(q)  # rejects q before any work starts
    if jobs < 1:
        raise PatternViolation("jobs must be at least 1")
    certs = tuple(certs)
    for cert in certs:
        if cert not in CERTS:
            raise PatternViolation(f"unknown certificate {cert!r}")
        check_shape(recipe_macaulay_shape(n, s, d, cert))
    if count_points and projective_count(n, q) > CENSUS_COUNT_CAP:
        raise TooLarge(f"P^{n}(F_{q}) exceeds {CENSUS_COUNT_CAP} points")
    if mode == "exhaustive":
        total = _exhaustive_size(pattern, q, exhaustive_cap)
        jobs = 1
    elif mode == "monte_carlo":
        if trials is None or trials < 1:
            raise PatternViolation("monte_carlo mode needs a positive trial count")
        if seed is None:
            seed = random.randrange(1 << 48)
        total = trials
        jobs = min(jobs, trials, os.cpu_count() or 1)
    else:
        raise PatternViolation(f"unknown census mode {mode!r}")
    step = min(_BATCH, -(-total // jobs))
    cells = step * sum(math.comb(n + e, e) for e in pattern.d)
    if cells > DEFAULT_MAX_CELLS:
        raise TooLarge(f"a batch of {step} systems has {cells} coefficients, "
                       f"over {DEFAULT_MAX_CELLS} cells")
    fn = partial(_batch, (pattern, q, mode, seed), certs, count_points,
                 keep_trials)
    ranges = (range(lo, min(lo + step, total))
              for lo in range(0, total, step))
    if jobs > 1:
        with Pool(jobs) as pool:
            results = pool.map(fn, ranges)
    else:
        results = map(fn, ranges)
    results = itertools.chain.from_iterable(results)

    # one pass in index order; a record is held only when trials are kept,
    # so memory does not grow with the census size otherwise
    counts = dict.fromkeys(certs, 0)
    records, ci_points, decided = [], [], 0
    for idx, (verdicts, points, text) in enumerate(results):
        for cert in certs:
            counts[cert] += verdicts[cert]
        if count_points and verdicts.get("ci"):
            ci_points.append(points)
        if keep_trials:
            records.append(TrialRecord(
                index=idx, seed=trial_seed(seed, idx) if mode == "monte_carlo" else "",
                system_text=text, verdicts=verdicts, points=points))
        decided += 1
    assert decided == total, "trials decided do not match the census size"

    per_cert = {}
    for cert in certs:
        pb = probability_lower_bound(n, s, d, q, cert)
        freq = Fraction(counts[cert], total)
        interval = None
        if mode == "monte_carlo":
            interval = wilson_interval(counts[cert], total)
        if not pb.guard_met:
            verdict = "vacuous"
        else:
            if mode == "exhaustive":
                below = freq < pb.bound
            else:
                below = binomial_below(counts[cert], total, pb.bound)
            verdict = "violated" if below else "consistent"
        per_cert[cert] = CertSummary(cert=cert, count=counts[cert], total=total,
                                     freq=freq, interval=interval,
                                     bound=pb.bound,
                                     product_bound=pb.product_bound,
                                     guard_met=pb.guard_met, verdict=verdict)

    point_check = None
    if count_points and "ci" in certs:
        bound = pattern.delta * projective_count(n - s, q)
        violations = sum(1 for pts in ci_points if pts > bound)
        point_check = {"bound": bound,
                       "ci_certified": len(ci_points),
                       "max_points": max(ci_points, default=None),
                       "violations": violations}

    runtime_ms = int((time.monotonic() - t0) * 1000)
    return CensusReport(n=n, s=s, d=tuple(d), q=q, mode=mode, seed=seed,
                        total=total, certs=certs, per_cert=per_cert,
                        point_check=point_check,
                        trial_records=tuple(records) if keep_trials else None,
                        runtime_ms=runtime_ms,
                        timestamp=datetime.now(timezone.utc).isoformat())


# ---------------------------------------------------------------------------
# Oracle cross-check: emptiness gate vs point search


@lru_cache(maxsize=None)
def _degree_tuples(nforms: int, max_product: int):
    """All ordered degree tuples with product at most max_product."""
    return tuple(t for t in itertools.product(range(1, max_product + 1),
                                              repeat=nforms)
                 if math.prod(t) <= max_product)


def _rooted_form(rng, field, nvars, degree, point):
    """Random form vanishing at the given canonical point."""
    lead = point.index(1)
    anchor = tuple(degree if j == lead else 0 for j in range(nvars))
    while True:
        f = _random_form(rng, field, nvars, degree)
        v = f.eval_at(point)
        if v:
            # anchor monomial evaluates to 1 at the point, so shifting its
            # coefficient by -v zeroes the value
            f = f + Poly.monomial(field, nvars, anchor, field.neg(v))
        if not f.is_zero():
            return f


@dataclass(frozen=True)
class OracleReport:
    trials: int
    agreements: int
    agreement_rate: float
    point_cap: int
    disagreements: tuple
    records: tuple | None

    def to_json_dict(self):
        return {"trials": self.trials, "agreements": self.agreements,
                "agreement_rate": self.agreement_rate,
                "point_cap": self.point_cap,
                "disagreements": list(self.disagreements),
                "records": list(self.records) if self.records is not None else None}


def oracle_check(trials: int, seed, *, point_cap: int = DEFAULT_POINT_CAP,
                 keep_records: bool = False) -> OracleReport:
    """Randomized agreement test between the rank gate and point search.

    Half the instances are forced to contain a rational zero so both
    branches of the verdict are exercised.  The search depth is clamped to
    the point budget, 20 times larger where the gate says "nonempty", and
    recorded per instance; it is 0, a search of nothing, where P^n(F_q)
    alone exceeds the budget.  One search per instance stops at its first
    witness.
    """
    rng = random.Random(f"{seed}:oracle")
    agreements = 0
    disagreements = []
    records = [] if keep_records else None
    for t in range(trials):
        n = rng.choice(ORACLE_DIMS)
        q = rng.choice(ORACLE_FIELDS)
        field = Field(q)
        degrees = rng.choice(_degree_tuples(n + 1, ORACLE_MAX_BEZOUT))
        rooted = rng.random() < 0.5
        if rooted:
            # the draw of rng.choice on the list of projective_points
            i = np.array([rng.randrange(projective_count(n, q))])
            point = tuple(_points_at(q, n, i)[0].tolist())
            forms = [_rooted_form(rng, field, n + 1, e, point) for e in degrees]
        else:
            forms = [_random_form(rng, field, n + 1, e) for e in degrees]
        ts = TestSystem("oracle", field, n + 1, tuple(forms), degrees)
        mac = projective_empty(ts)
        requested = max(math.prod(degrees), 4)
        budget = point_cap if mac.empty else 20 * point_cap
        used = feasible_max_ext(field, n, budget, requested)
        brute = brute_force_empty(ts, max_ext=used, point_cap=budget)
        agree = mac.empty == (not brute.nonempty)
        record = {"n": n, "q": q, "degrees": list(degrees), "rooted": rooted,
                  "gate_empty": mac.empty, "witness_found": brute.nonempty,
                  "witness_ext": brute.ext_degree,
                  "searched_up_to": brute.searched_up_to,
                  "requested_max_ext": requested,
                  "clamped": brute.searched_up_to < requested,
                  "agree": agree}
        if agree:
            agreements += 1
        else:
            disagreements.append(record)
        if keep_records:
            records.append(record)
    return OracleReport(trials=trials, agreements=agreements,
                        agreement_rate=agreements / trials if trials else 1.0,
                        point_cap=point_cap,
                        disagreements=tuple(disagreements),
                        records=tuple(records) if keep_records else None)
