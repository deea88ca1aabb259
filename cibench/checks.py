"""Correctness checks computed apart from the program under test.

Nothing here calls the program's elimination kernel.  Each check takes
the program's output and the benchmark's own reference value and returns
``None`` when they agree, or a one-line reason when they do not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# F_q arithmetic on the program's integer encoding (base-p digit vectors
# reduced modulo the field's monic modulus), written independently.


class GF:
    """F_{p^k} on integer encodings c_0 + c_1 p + ... + c_{k-1} p^(k-1)."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = None if k == 1 else tuple(modulus)

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _pack(self, digits):
        a = 0
        for c in reversed(digits):
            a = a * self.p + c
        return a

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return self._pack([(x + y) % self.p
                           for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        if self.k == 1:
            return -a % self.p
        return self._pack([-x % self.p for x in self._digits(a)])

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return a * b % p
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] += x * y
        mod = self.modulus
        for top in range(2 * k - 2, k - 1, -1):
            t = prod[top] % p
            if t:
                for j in range(k):
                    prod[top - k + j] -= t * mod[j]
        return self._pack([c % p for c in prod[:k]])

    def mul_matrix(self, a):
        """k x k matrix over F_p of x -> a x on digit vectors."""
        return np.array([self._digits(self.mul(a, self.p ** j))
                         for j in range(self.k)], dtype=np.int64).T

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def determinant(matrix, gf: GF) -> int:
    """Determinant over F_q by Gaussian elimination on a copy."""
    a = [list(r) for r in matrix]
    size = len(a)
    det = 1
    for c in range(size):
        piv = next((i for i in range(c, size) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = gf.neg(det)
        det = gf.mul(det, a[c][c])
        inv = gf.inv(a[c][c])
        for i in range(c + 1, size):
            if a[i][c]:
                f = gf.mul(a[i][c], inv)
                a[i] = [gf.add(x, gf.neg(gf.mul(f, y)))
                        for x, y in zip(a[i], a[c])]
    return det


def sylvester_resultant(f, g, gf: GF) -> int:
    """Resultant of binary forms given as coefficient lists of X0^(d-i) X1^i.

    The formal degrees are len - 1, so the resultant vanishes exactly when
    the forms share a zero in P^1 over the algebraic closure, including
    the case of both leading coefficients being zero.
    """
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(f) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(g) + [0] * (size - n - 1 - i))
    return determinant(rows, gf)


def binary_restriction(terms: dict, degree: int):
    """Coefficients of f(X0, X1, 0, ..., 0) against X0^(d-i) X1^i."""
    out = [0] * (degree + 1)
    for exp, c in terms.items():
        if not any(exp[2:]):
            out[exp[1]] = c
    return out


def stci_count_s2(systems, gf: GF) -> int:
    """Systems of two forms whose stci test system is empty.

    For s = 2 the stci recipe appends X_2, ..., X_n, so its zero set is
    that of f_1, f_2 restricted to the line X_2 = ... = X_n = 0; it is
    empty iff the Sylvester resultant of the two binary restrictions is
    nonzero.
    """
    count = 0
    for forms in systems:
        (t1, d1), (t2, d2) = forms
        res = sylvester_resultant(binary_restriction(t1, d1),
                                  binary_restriction(t2, d2), gf)
        count += res != 0
    return count


# ---------------------------------------------------------------------------
# Census verdicts


def concise_floor(n: int, s: int, d, q: int, cert: str):
    """The paper's floor 1 - s e / q and whether its guard q >= s e / 3 holds.

    e is the concise obstruction degree of the certificate, with
    delta = d_1 ... d_s and sigma = sum (d_i - 1).
    """
    delta, sigma = math.prod(d), sum(di - 1 for di in d)
    e = {"stci": delta // min(d),
         "ci": 2 * sigma * delta,
         "nons": (sigma + n) * sigma ** (n - s) * delta,
         "irr": 3 * sigma ** 2 * delta}[cert]
    return 1 - Fraction(s * e, q), 3 * q >= s * e


def wilson_upper(count: int, total: int, z: float = 3.0) -> float:
    """Upper end of the Wilson score interval at z sigma."""
    phat = count / total
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (phat + z2 / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total
                         + z2 / (4 * total * total)) / denom
    return min(1.0, center + half)


def floor_verdict(count: int, total: int, floor: Fraction, guard_met: bool,
                  exact: bool) -> str:
    """The verdict a census must report for this pass count and floor."""
    if not guard_met:
        return "vacuous"
    if exact:
        below = Fraction(count, total) < floor
    else:
        below = wilson_upper(count, total) < float(floor)
    return "violated" if below else "consistent"


def projective_count(n: int, q: int) -> int:
    """Points of P^n(F_q)."""
    return (q ** (n + 1) - 1) // (q - 1)


def check_exhaustive_conics(q: int, total: int, counts: dict):
    """Closed forms for (n, s, d) = (2, 1, (2,)) at odd q.

    The stci test system f, X_1, X_2 is empty iff the X_0^2 coefficient
    is nonzero, which holds for q^5 of the projective representatives;
    the ci count q^4 (q - 1) is the classical one for odd q.
    """
    if total != projective_count(5, q):
        return f"total {total} != p_5({q}) = {projective_count(5, q)}"
    want = {"stci": q ** 5, "ci": q ** 4 * (q - 1)}
    for cert, value in want.items():
        if cert in counts and counts[cert] != value:
            return f"{cert}: {counts[cert]} passes, closed form {value}"
    return None


# ---------------------------------------------------------------------------
# Oracle and single-system verdicts


def check_oracle_record(record: dict):
    if not record["agree"]:
        return f"gate and point search disagree: {record}"
    if record["rooted"] and record["gate_empty"]:
        return f"rooted instance gated empty: {record}"
    return None


def check_verdict(got: str | None, want: str):
    if got != want:
        return f"verdict {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# Reference Macaulay decision: the classical degree N = sum (e_j - 1) + 1,
# rows m * g_j for every monomial m of degree N - e_j, and the test system
# has no projective zero iff the matrix has full column rank.


def monomials(nvars: int, degree: int):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) == degree]


def macaulay_matrix(forms, degrees, nvars: int):
    """Rows m * g_j; ``forms`` map exponent tuples to coefficients."""
    top = sum(e - 1 for e in degrees) + 1
    cols = {e: i for i, e in enumerate(monomials(nvars, top))}
    rows = []
    for terms, e in zip(forms, degrees):
        for mult in monomials(nvars, top - e):
            row = np.zeros(len(cols), dtype=np.int64)
            for exp, c in terms.items():
                row[cols[tuple(a + b for a, b in zip(mult, exp))]] = c
            rows.append(row)
    return np.array(rows), len(cols)


def decide_empty(forms, degrees, nvars: int, gf: GF):
    """(empty, shape, rank) of a test system, by the reference decision."""
    if any(not any(terms.values()) for terms in forms):
        return False, None, None
    matrix, ncols = macaulay_matrix(forms, degrees, nvars)
    rank = rank_over_gf(matrix, gf)
    return rank == ncols, matrix.shape, rank


def rank_over_gf(matrix, gf: GF) -> int:
    """Rank over F_{p^k}: each entry a becomes its k x k multiplication
    matrix over F_p, and the F_p-rank of the result is k times the rank."""
    if gf.k == 1:
        return rank_mod_p(matrix, gf.p)
    k = gf.k
    matrix = np.asarray(matrix)
    blocks = {}
    big = np.zeros((matrix.shape[0] * k, matrix.shape[1] * k), dtype=np.int64)
    for i, j in zip(*np.nonzero(matrix)):
        a = int(matrix[i, j])
        if a not in blocks:
            blocks[a] = gf.mul_matrix(a)
        big[i * k:(i + 1) * k, j * k:(j + 1) * k] = blocks[a]
    rank = rank_mod_p(big, gf.p)
    assert rank % k == 0, "the F_p-rank of an F_q-matrix is a multiple of k"
    return rank // k


def rank_mod_p(matrix, p: int) -> int:
    """Rank over F_p of an integer matrix, Gauss-Jordan on column tails."""
    a = np.array(matrix, dtype=np.int64) % p
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv], c:] = a[[piv, rank], c:]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        if below.size:
            a[below, c:] = (a[below, c:]
                            - np.outer(a[below, c], a[rank, c:])) % p
        rank += 1
    return rank
