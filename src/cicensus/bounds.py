"""Closed-form quantities: pattern statistics, obstruction-degree bounds,
probability floors with their q-guards, the multihomogeneous zero bound,
and the varying-degree combinatorics (g(b), M_s(b), Bell numbers,
hypersurface census error terms, pattern landscapes).

Everything that can feed a verdict is exact: integers are unbounded and
ratios are fractions.Fraction.  Floating point appears only in the
transcendental comparisons (b^(log2 log2 b), the Bell-number lemma),
which are reported, never asserted against exact counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import HypothesisViolated, PatternViolation
from .field import _prime_factors
from .poly import CERTS, DegreePattern, cert_recipe, recipe_degrees

# ---------------------------------------------------------------------------
# Pattern statistics


@dataclass(frozen=True)
class PatternStats:
    n: int
    s: int
    d: tuple
    delta: int      # Bezout number d_1 ... d_s
    sigma: int      # sum (d_i - 1)
    big_d: tuple    # D_i = C(d_i + n, n) - 1
    big_d_total: int


def pattern_stats(n: int, s: int, d) -> PatternStats:
    pat = DegreePattern(n=n, s=s, d=tuple(d))
    big_d = tuple(comb(di + n, n) - 1 for di in pat.d)
    return PatternStats(n=n, s=s, d=pat.d, delta=pat.delta, sigma=pat.sigma,
                        big_d=big_d, big_d_total=sum(big_d))


def projective_count(n: int, q: int) -> int:
    """Number of points of projective n-space over F_q."""
    if n < 0:
        return 0
    return (q ** (n + 1) - 1) // (q - 1)


def system_space_size(n: int, s: int, d, q: int) -> int:
    """p_D = prod p_{D_i}, the number of projective coefficient tuples."""
    return math.prod(projective_count(di, q)
                     for di in pattern_stats(n, s, d).big_d)


# ---------------------------------------------------------------------------
# Obstruction degree bounds


@dataclass(frozen=True)
class DegreeBounds:
    cert: str
    per_i: tuple    # exact bound in the coefficients of f_i
    concise: int    # uniform bound dominating every per_i entry


def degree_bounds(n: int, s: int, d, cert: str) -> DegreeBounds:
    """Homogeneity-degree bounds of the obstruction for each certificate.

    With m minors in the recipe, the coefficients of f_i enter the
    resultant once directly and once, linearly, through each minor.  The
    concise bounds are the paper's."""
    m = len(cert_recipe(cert, n, s)[0])
    st = pattern_stats(n, s, d)
    delta, sigma = st.delta, st.sigma
    per_i = tuple((delta // di) * sigma ** m + m * delta * sigma ** max(m - 1, 0)
                  for di in st.d)
    concise = {"stci": max(per_i), "ci": 2 * sigma * delta,
               "nons": (sigma + n) * sigma ** (n - s) * delta,
               "irr": 3 * sigma ** 2 * delta}[cert]
    return DegreeBounds(cert=cert, per_i=per_i, concise=concise)


@dataclass(frozen=True)
class ProbabilityBound:
    cert: str
    e_per_i: tuple
    e_concise: int
    bound: Fraction          # 1 - s * e_concise / q
    product_bound: Fraction  # prod (1 - e_i / q), sharper when valid
    guard_threshold: Fraction  # q must be >= this for the concise bound
    guard_met: bool
    product_valid: bool      # max e_i <= q, hypothesis of the product form


def probability_lower_bound(n: int, s: int, d, q: int, cert: str) -> ProbabilityBound:
    """Lower bound on the fraction of systems passing the certificate.

    The concise bound 1 - s*e/q holds under the guard q >= s*e/3; the
    product form prod(1 - e_i/q) is sharper and needs only max e_i <= q.
    Unmet guards are reported, never raised.
    """
    db = degree_bounds(n, s, d, cert)
    e = db.concise
    bound = 1 - Fraction(s * e, q)
    product = math.prod(1 - Fraction(ei, q) for ei in db.per_i)
    threshold = Fraction(s * e, 3)
    return ProbabilityBound(cert=cert, e_per_i=db.per_i, e_concise=e,
                            bound=bound, product_bound=product,
                            guard_threshold=threshold,
                            guard_met=q >= threshold,
                            product_valid=max(db.per_i) <= q)


# ---------------------------------------------------------------------------
# Multihomogeneous zero bound


def multihomog_zero_bound(d, n, q: int) -> int:
    """Upper bound on rational zeros of a multihomogeneous polynomial.

    d and n are s-tuples (multidegree and factor dimensions); each d_i
    must satisfy d_i <= q.  Inclusion-exclusion over the nonzero epsilon
    in {0,1}^s with terms (-1)^(|eps|+1) d^eps p_{n-eps}.
    """
    d = tuple(d)
    n = tuple(n)
    if len(d) != len(n):
        raise PatternViolation("multidegree and dimension tuples differ in length")
    if any(ni < 1 for ni in n):
        raise PatternViolation("factor dimensions must be >= 1")
    if any(di > q for di in d):
        raise HypothesisViolated(f"some degree in {d} exceeds q={q}")
    s = len(d)
    total = 0
    for mask in range(1, 1 << s):
        term = 1
        bits = 0
        for i in range(s):
            if mask >> i & 1:
                bits += 1
                term *= d[i] * projective_count(n[i] - 1, q)
            else:
                term *= projective_count(n[i], q)
        total += term if bits % 2 else -term
    return total


# ---------------------------------------------------------------------------
# Varying-degree combinatorics


@dataclass(frozen=True)
class GOfB:
    b: int
    n: int
    value: int
    rho: int | None               # smallest prime factor, None when b is prime
    convexity_lower: int | None   # C(b+n,n) - 2 C(b/2+n,n), even composite b


def g_of_b(b: int, n: int) -> GOfB:
    """Dimension gap between the hypersurface pattern and its best rival.

    Zero when b is prime.  For even b >= 4 the convexity argument gives
    the lower bound C(b+n,n) - 2 C(b/2+n,n); b = 2 is prime, so the
    bound is not reported there.
    """
    if b < 2 or n < 2:
        raise PatternViolation("need b >= 2 and n >= 2")
    rho = _prime_factors(b)[0]
    if rho == b:
        value, rho_out = 0, None
    else:
        value = comb(b + n, n) - comb(b // rho + n, n) - comb(rho + n, n)
        rho_out = rho
    convexity = (comb(b + n, n) - 2 * comb(b // 2 + n, n)
                 if b % 2 == 0 and b >= 4 else None)
    return GOfB(b=b, n=n, value=value, rho=rho_out, convexity_lower=convexity)


@functools.lru_cache(maxsize=None)
def _divisors_from(b: int):
    """The divisors of b from 2 up, in order: each f <= sqrt(b) is paired
    with b // f."""
    if b < 2:
        return ()
    low = [f for f in range(1, math.isqrt(b) + 1) if b % f == 0]
    return tuple(low[1:] + [b // f for f in reversed(low) if f * f != b])


@functools.lru_cache(maxsize=None)
def _count_factorizations(b: int, s: int, max_factor: int) -> int:
    if b == 1:
        return 1
    if s == 0:
        return 0
    total = 0
    for f in _divisors_from(b):
        if f > max_factor:
            break
        total += _count_factorizations(b // f, s - 1, f)
    return total


def factorizations(b: int, s: int):
    """Nonincreasing tuples of factors >= 2, at most s of them, product b."""
    def rec(rem, slots, max_factor):
        if rem == 1:
            yield ()
            return
        if slots == 0:
            return
        for f in reversed(_divisors_from(rem)):
            if f > max_factor:
                continue
            for rest in rec(rem // f, slots - 1, f):
                yield (f,) + rest
    yield from rec(b, s, b)


@dataclass(frozen=True)
class FactorizationCount:
    b: int
    s: int
    count: int          # M_s(b)
    lemma_bound: float  # b ** (log2 log2 b)


def factorization_count(b: int, s: int) -> FactorizationCount:
    """M_s(b): nontrivial unordered factorizations of b with at most s factors.

    The single-factor case (b) is counted, matching the enumeration of
    degree patterns with Bezout number b.
    """
    if b < 2 or s < 1:
        raise PatternViolation("need b >= 2 and s >= 1")
    count = _count_factorizations(b, s, b)
    exponent = math.log2(math.log2(b)) if b > 2 else 0.0
    return FactorizationCount(b=b, s=s, count=count, lemma_bound=b ** exponent)


def bell_number(m: int) -> int:
    """Bell number via the Bell triangle: B_m is the last entry of row m-1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return 1
    row = [1]
    for _ in range(m - 1):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
    return row[-1]


# ---------------------------------------------------------------------------
# Hypersurface-dominance census bounds


@dataclass(frozen=True)
class HypersurfaceCensusBounds:
    n: int
    s: int
    b: int
    q: int
    d_b: int                       # C(b+n, n) - 1
    reference: int                 # p_{D_b} * p_n^(s-1)
    n_ind: int                     # count of independent linear tails
    g_b: int
    m_s_b: int
    exceptional: bool              # b = 2 and n - s <= 3
    hyp_rel_error: Fraction        # |N_hyp / reference - 1| bound, M_s(b) form
    hyp_rel_error_weak: float      # same with b^(log2 log2 b)
    irr_pattern_rel_error: Fraction  # hypersurface-pattern error term
    irr_rel_error: Fraction        # all patterns, M_s(b) form
    irr_rel_error_weak: float
    p_irr_lower: Fraction          # probability floor, M_s(b) form
    p_irr_lower_weak: float        # headline floor with b^(log2 log2 b)


def _weak_tail(b: int, q: int, g: int) -> float:
    """b^(log2 log2 b) / q^g as a float, 0.0 on exponent underflow."""
    exponent = math.log2(math.log2(b)) if b > 2 else 0.0
    log_term = exponent * math.log(b) - g * math.log(q)
    if log_term < -700:
        return 0.0
    return math.exp(log_term)


def linear_independent_count(n: int, s: int, q: int) -> int:
    """Number of (s-1)-tuples of independent points of P^n(F_q):
    prod_{0 <= k <= s-2} (q^(n+1) - q^k) / (q - 1), exactly."""
    return math.prod(q ** k * projective_count(n - k, q) for k in range(s - 1))


def hypersurface_census_bounds(n: int, s: int, b: int, q: int) -> HypersurfaceCensusBounds:
    """Error terms for counting systems that define degenerate hypersurfaces."""
    if b < 2 or not 0 < s < n:
        raise PatternViolation("need b >= 2 and 0 < s < n")
    d_b = comb(b + n, n) - 1
    p_db = projective_count(d_b, q)
    p_n = projective_count(n, q)
    reference = p_db * p_n ** (s - 1)
    n_ind = linear_independent_count(n, s, q)
    g = g_of_b(b, n).value
    m = factorization_count(b, s).count
    pattern_tail = Fraction(m, q ** g)
    weak_tail = _weak_tail(b, q, g)
    hyp_err = Fraction(q + 9, q ** (n - s + 4)) + pattern_tail
    hyp_err_weak = float(Fraction(q + 9, q ** (n - s + 4))) + weak_tail
    exceptional = b == 2 and n - s <= 3
    if exceptional:
        irr_pattern_err = Fraction(14 * q * q, q ** (n - s + 3))
    else:
        irr_pattern_err = Fraction(q + 14, q ** (n - s + 4))
    irr_err = irr_pattern_err + pattern_tail
    irr_err_weak = float(irr_pattern_err) + weak_tail
    p_irr = 1 - irr_pattern_err - 2 * pattern_tail
    p_irr_weak = 1.0 - float(irr_pattern_err) - 2 * weak_tail
    return HypersurfaceCensusBounds(
        n=n, s=s, b=b, q=q, d_b=d_b, reference=reference, n_ind=n_ind,
        g_b=g, m_s_b=m, exceptional=exceptional,
        hyp_rel_error=hyp_err, hyp_rel_error_weak=hyp_err_weak,
        irr_pattern_rel_error=irr_pattern_err,
        irr_rel_error=irr_err, irr_rel_error_weak=irr_err_weak,
        p_irr_lower=p_irr, p_irr_lower_weak=p_irr_weak)


# ---------------------------------------------------------------------------
# Pattern landscape


@dataclass(frozen=True)
class LandscapeEntry:
    pattern: tuple
    big_d_total: int
    margin: int  # |D^(b)| - |D(d)|, zero for the hypersurface pattern


@dataclass(frozen=True)
class PatternLandscape:
    b: int
    n: int
    s: int
    entries: tuple            # sorted by descending dimension
    hypersurface: tuple       # (b, 1, ..., 1)
    m_s_b: int
    g_b: int
    dominance_strict: bool    # |D^(b)| > |D(d)| for every rival
    margin_ok: bool           # every margin >= g(b)
    best_rival_margin: int | None


def pattern_landscape(b: int, n: int, s: int) -> PatternLandscape:
    """All degree patterns with Bezout number b and their dimension gaps."""
    if b < 2:
        raise PatternViolation("need b >= 2")
    if not 0 < s < n:
        raise PatternViolation(f"need 0 < s < n, got s={s}, n={n}")
    hyper = (b,) + (1,) * (s - 1)
    patterns = [fac + (1,) * (s - len(fac)) for fac in factorizations(b, s)]
    if hyper not in patterns:
        raise PatternViolation("hypersurface pattern missing")  # pragma: no cover
    dims = {pat: sum(comb(di + n, n) - 1 for di in pat) for pat in patterns}
    top = dims[hyper]
    entries = tuple(sorted(
        (LandscapeEntry(pattern=pat, big_d_total=dim, margin=top - dim)
         for pat, dim in dims.items()),
        key=lambda e: (-e.big_d_total, e.pattern)))
    rivals = [e for e in entries if e.pattern != hyper]
    g = g_of_b(b, n).value
    return PatternLandscape(
        b=b, n=n, s=s, entries=entries, hypersurface=hyper,
        m_s_b=len(patterns), g_b=g,
        dominance_strict=all(e.margin > 0 for e in rivals),
        margin_ok=all(e.margin >= g for e in rivals),
        best_rival_margin=min((e.margin for e in rivals), default=None))


# ---------------------------------------------------------------------------
# Recipe Macaulay degrees (closed forms) and the aggregate report


def recipe_macaulay_degree(n: int, s: int, d, cert: str) -> int:
    """Macaulay degree of each certificate's derived degree list, closed form:
    sigma + m (sigma - 1) + 1 with m minors of degree sigma in the recipe."""
    m = len(cert_recipe(cert, n, s)[0])
    sigma = pattern_stats(n, s, d).sigma
    return sigma + m * (sigma - 1) + 1


def macaulay_shape(degrees) -> tuple:
    """(rows, columns) of the Macaulay matrix of v = len(degrees) forms of
    these degrees in v variables, closed form: at N = sum(e - 1) + 1,
    C(N+v-1, v-1) columns and C(N-e+v-1, v-1) rows per degree e."""
    v = len(degrees)
    big_n = sum(e - 1 for e in degrees) + 1
    return (sum(comb(big_n - e + v - 1, v - 1) for e in degrees),
            comb(big_n + v - 1, v - 1))


def recipe_macaulay_shape(n: int, s: int, d, cert: str) -> tuple:
    """macaulay_shape of the certificate's matrix on its slice: f and the
    recipe's m minors, v = s + m forms in v variables, at the degree N
    above."""
    v = s + len(cert_recipe(cert, n, s)[0])
    return macaulay_shape(
        recipe_degrees(DegreePattern(n=n, s=s, d=tuple(d)), cert)[:v])


@dataclass(frozen=True)
class BoundsReport:
    stats: PatternStats
    q: int | None
    p_n: int | None                 # points of P^n(F_q)
    p_big_d: int | None             # prod p_{D_i}, number of systems
    degree: dict                    # cert -> DegreeBounds
    probability: dict | None        # cert -> ProbabilityBound (needs q)


def bounds_report(n: int, s: int, d, q: int | None = None) -> BoundsReport:
    stats = pattern_stats(n, s, d)
    degree = {cert: degree_bounds(n, s, d, cert) for cert in CERTS}
    p_n = p_big_d = probability = None
    if q is not None:
        p_n = projective_count(n, q)
        p_big_d = system_space_size(n, s, d, q)
        probability = {cert: probability_lower_bound(n, s, d, q, cert)
                       for cert in CERTS}
    return BoundsReport(stats=stats, q=q, p_n=p_n, p_big_d=p_big_d,
                        degree=degree, probability=probability)
