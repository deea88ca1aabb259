"""Exact arithmetic in finite fields F_q for q = p^k.

Elements are encoded as plain integers in [0, q).  A prime field stores
the residue itself; an extension field stores the coefficient vector
(c_0, ..., c_{k-1}) of the residue class modulo a monic irreducible,
packed in base p as c_0 + c_1*p + ... + c_{k-1}*p^(k-1).  The encoding
is canonical: distinct integers are distinct elements, 0 and 1 are the
additive and multiplicative identities in every field.

A prime field adds and subtracts mod p, and characteristic 2 adds and
subtracts as the exclusive or of the encodings.  Any other extension
field works through tables of its first primitive element g in encoding
order, built on first use, shared by every Field with the same
(p, k, modulus) and capped at q <= 2^20: exp/log tables for products
(Lidl and Niederreiter, Finite Fields, ch. 9) and a table of Zech
logarithms, zech[d] = log(1 + g^d), for sums (Huber, IEEE Trans. Inf.
Theory 36(4), 1990): a + g^s b = g^(log a + zech[log b + s - log a]),
with s = 0 for a sum and s = (q-1)/2, where g^s = -1, for a difference.
add, neg, sub, mul, submul and inv take encodings as Python ints,
returning ints, or as int64 arrays (the elimination kernel's rows and
pivots, the point search's blocks).  A prime field inverts an array
through a table of every inverse mod p, built on the first such call and
shared by every Field with the same p, for p <= 2^20; above that, and
for a Python int, it inverts with pow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (DegreeMismatch, DivisionByZero, FormatError, NotPrime,
                     ReducibleModulus, TooLarge)

# largest extension field order and largest p with an inverse table;
# tables take 48 q and 8 p bytes
_TABLE_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over F_p, used only for modulus handling.
# Polynomials are lists of coefficients, ascending degree, trimmed.


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, m, p):
    a = [c % p for c in a]
    dm = len(m) - 1
    while len(a) > dm:
        t = a[-1]
        if t:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - t * m[j]) % p
        a.pop()
    return _ptrim(a)


def _ppowmod(base, e, m, p):
    result = [1]
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    a = _ptrim([c % p for c in a])
    b = _ptrim([c % p for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _digits(a, p, k):
    """Coefficient vector (c_0, ..., c_{k-1}) of the encoding a."""
    return [a // p ** i % p for i in range(k)]


def _psub(a, b, p):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _ptrim([(x - y) % p for x, y in zip(a, b)])


def is_irreducible_mod_poly(coeffs, p) -> bool:
    """Rabin test for a monic polynomial over F_p given as ascending coefficients."""
    m = _ptrim([c % p for c in coeffs])
    k = len(m) - 1
    if k < 1 or m[-1] != 1:
        raise DegreeMismatch("modulus must be monic of positive degree")
    if k == 1:
        return True
    x = [0, 1]
    h = list(x)
    for _ in range(k):
        h = _ppowmod(h, p, m, p)
    if _psub(h, x, p):
        return False  # x^(p^k) != x mod m
    for r in _prime_factors(k):
        h = list(x)
        for _ in range(k // r):
            h = _ppowmod(h, p, m, p)
        if len(_pgcd(_psub(h, x, p), m, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_modulus(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + a_{k-1} x^{k-1} + ... + a_0 are tried in ascending
    order of the integer a_0 + a_1 p + ... + a_{k-1} p^{k-1} read from the
    high coefficient down, which makes the search deterministic across
    machines.
    """
    for i in range(p ** k):
        digits = _digits(i, p, k)
        if digits[0] == 0:
            continue  # divisible by x
        cand = digits + [1]
        if is_irreducible_mod_poly(cand, p):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # pragma: no cover


@lru_cache(maxsize=32)  # holds every field oracle_check's search meets
def _exp_log(p, k, modulus):
    """exp, log and Zech tables of F_{p^k} modulo `modulus`, as int64
    arrays and as memoryviews of them (whose items are Python ints).

    exp[i] = g^i for 0 <= i < 2(q-1) and 0 above; log[0] = 2(q-1), so an
    index sum with a zero operand lands in the zeros.  zech[d] =
    log(1 + g^d) for 0 <= d < q-1, which is log[0] where g^d = -1.
    """
    q = p ** k
    m = list(modulus)
    g = next(a for a in range(2, q)
             if all(_ppowmod(_digits(a, p, k), (q - 1) // r, m, p) != [1]
                    for r in _prime_factors(q - 1)))
    # times[a] = g * a: coefficient i of g * a is the sum over j of
    # coefficient j of a times coefficient i of g * x^j
    gx = [_pmod(_pmul(_digits(g, p, k), [0] * j + [1], p), m, p) + [0] * k
          for j in range(k)]
    a = np.arange(q, dtype=np.int64)
    times = sum(sum(a // p ** j % p * gx[j][i] for j in range(k)) % p * p ** i
                for i in range(k))
    # orbit of 1 by doubling: while times multiplies by g^n,
    # exp[n:2n] = times[exp[:n]]
    exp = np.zeros(4 * q - 3, dtype=np.int64)
    exp[0] = 1
    n = 1
    while n < q - 1:
        t = min(n, q - 1 - n)
        exp[n:n + t] = times[exp[:t]]
        times = times[times]
        n += t
    exp[q - 1:2 * q - 2] = exp[:q - 1]
    log = np.empty(q, dtype=np.int64)
    log[exp[:q - 1]] = a[:q - 1]
    log[0] = 2 * q - 2
    # adding 1 changes only digit 0: (c_0 + 1) mod p
    c0 = exp[:q - 1] % p
    zech = log[exp[:q - 1] - c0 + (c0 + 1) % p]
    return (exp, log, zech), (memoryview(exp), memoryview(log),
                              memoryview(zech))


@lru_cache(maxsize=32)
def _inverses(p):
    """The int64 array of a^(p-2) mod p for 0 <= a < p: the inverse of
    every nonzero a, by square and multiply on all of them at once
    (Fermat).  p <= 2^20 keeps every product below 2^40."""
    base = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    return inv


_EXTENSIONS = {}  # (p, k, modulus, m) -> Field.extension(m) of that field


class Field:
    """The finite field F_q, q = p^k, acting on integer-encoded elements."""

    __slots__ = ("p", "k", "q", "modulus", "_weights", "_tables")

    def __init__(self, p: int, k: int = 1, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p >= 1 << 31:
            raise NotPrime(f"characteristic {p} exceeds 2^31")
        if k < 1:
            raise DegreeMismatch("extension degree must be >= 1")
        if k > 1 and p ** k > _TABLE_LIMIT:
            raise TooLarge(f"extension field {p}^{k} exceeds 2^20 elements")
        if k == 1:
            if modulus is not None:
                raise DegreeMismatch("prime fields take no modulus")
            self.modulus = None
        else:
            if modulus is None:
                self.modulus = find_modulus(p, k)
            else:
                mod = tuple(int(c) % p for c in modulus)
                if len(mod) != k + 1 or mod[-1] != 1:
                    raise DegreeMismatch(
                        f"modulus must be monic of degree {k}")
                if not is_irreducible_mod_poly(list(mod), p):
                    raise ReducibleModulus(
                        f"modulus {list(mod)} is reducible over F_{p}")
                self.modulus = mod
        self.p = p
        self.k = k
        self.q = p ** k
        self._weights = tuple(p ** i for i in range(k))
        self._tables = None

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.k == other.k and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"Field({self.spec_str()})"

    def spec_str(self) -> str:
        return str(self.p) if self.k == 1 else f"{self.p}^{self.k}"

    # -- encoding -----------------------------------------------------------

    def coeffs(self, a: int):
        """Coefficient vector (c_0, ..., c_{k-1}) of the encoded element."""
        return tuple(_digits(a, self.p, self.k))

    def from_coeffs(self, vec) -> int:
        if len(vec) > self.k:
            raise DegreeMismatch(f"coefficient vector longer than {self.k}")
        a = 0
        for c in reversed(list(vec)):
            a = a * self.p + c % self.p
        return a

    def from_int(self, c: int) -> int:
        """Embed an integer via the prime subfield."""
        return c % self.p

    def elements(self):
        return range(self.q)

    # -- arithmetic ---------------------------------------------------------
    # Operands are encodings as Python ints or int64 arrays.

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:  # base-2 digits add without carry
            return a ^ b
        return self._zech(a, b, 0)

    def neg(self, a):
        return self.sub(0, a)

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        return self._zech(a, b, (self.q - 1) // 2)

    def _zech(self, a, b, s):
        """a + g^s b for odd p and k > 1: g^(log a + zech[log b + s -
        log a]) when neither operand is zero, and exp's zeros where the
        sum is zero.  A zero b gives a, a zero a gives g^s b, which is
        exp[log b + s] for b = 0 too, since log[0] + s indexes the zeros.
        Zero operands index exp at most at 2 log[0] < len(exp).  On
        arrays zech is read with take(mode="wrap"): len(zech) = q - 1,
        so the wrap is the reduction mod q - 1."""
        arrays, views = self._tables or self._load_tables()
        scalar = type(a) is type(b) is int
        exp, log, zech = views if scalar else arrays
        la, lb = log[a], log[b] + s
        if scalar:
            out = exp[la + zech[(lb - la) % (self.q - 1)]]
            return out if a and b else exp[lb] if b else a
        out = exp[la + zech.take(lb - la, mode="wrap")]
        return np.where(b == 0, a, np.where(a == 0, exp[lb], out))

    def mul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        arrays, views = self._tables or self._load_tables()
        exp, log, _ = views if type(a) is type(b) is int else arrays
        return exp[log[a] + log[b]]

    def submul(self, x, c, y):
        """x - c*y, every entry reduced.  The elimination kernels call it
        over extension fields only: over a prime field they subtract in
        plain int64 and reduce late (``macaulay._subtract``)."""
        if self.k == 1:
            return (x - c * y) % self.p
        return self.sub(x, self.mul(c, y))

    def inv(self, a):
        """Inverse of a nonzero encoding, or of every entry of an int64
        array of them, of the array's shape.  Over F_p an int is inverted
        by pow, an array through ``_inverses(p)`` when p <= _TABLE_LIMIT
        and by pow entry by entry above it."""
        scalar = type(a) is int
        if not (a if scalar else a.all()):
            raise DivisionByZero("zero has no inverse")
        if self.k == 1:
            if scalar:
                return pow(a, -1, self.p)
            if self.p <= _TABLE_LIMIT:
                return _inverses(self.p)[a]
            return np.array([pow(x, -1, self.p) for x in a.ravel().tolist()],
                            dtype=np.int64).reshape(a.shape)
        arrays, views = self._tables or self._load_tables()
        exp, log, _ = views if scalar else arrays
        return exp[self.q - 1 - log[a]]

    def pow(self, a: int, e: int) -> int:
        if self.k == 1:
            return pow(a, e, self.p)
        if a == 0:
            if e < 0:
                raise DivisionByZero("zero has no inverse")
            return 0 if e else 1
        exp, log, _ = (self._tables or self._load_tables())[1]
        return exp[log[a] * e % (self.q - 1)]

    def _load_tables(self):
        self._tables = _exp_log(self.p, self.k, self.modulus)
        return self._tables

    # -- extensions ---------------------------------------------------------

    def extension(self, m: int):
        """Return (E, emb) with E = F_{q^m} and emb the embedding table.

        emb maps every encoding of this field to its image in E.  Results
        are cached by (p, k, modulus, m), so repeated requests, also from
        equal fields, return identical Field objects.
        """
        if m < 1:
            raise DegreeMismatch("extension degree must be >= 1")
        if m == 1:
            return self, range(self.q)
        key = (self.p, self.k, self.modulus, m)
        if key in _EXTENSIONS:
            return _EXTENSIONS[key]
        ext = Field(self.p, self.k * m)
        if self.k == 1:
            emb = list(range(self.p))
        else:
            # the first root of the base modulus in encoding order, by
            # Horner's rule on every element of ext at once
            x = np.arange(ext.q, dtype=np.int64)
            acc = np.zeros_like(x)
            for c in reversed(self.modulus):
                acc = ext.add(ext.mul(acc, x), c)
            root = int(np.flatnonzero(acc == 0)[0])
            # sum c_i t^i maps to sum c_i root^i, for every element at once
            a = np.arange(self.q, dtype=np.int64)
            img = np.zeros_like(a)
            for i, w in enumerate(self._weights):
                img = ext.add(img, ext.mul(a // w % self.p, ext.pow(root, i)))
            emb = img.tolist()
        _EXTENSIONS[key] = (ext, emb)
        return ext, emb

    # -- parsing ------------------------------------------------------------

    def parse_coeff(self, token: str) -> int:
        """Parse 'c' (prime) or 'c0|c1|...' (extension) into an encoding."""
        token = token.strip()
        if "|" in token:
            parts = [int(t) for t in token.split("|")]
            return self.from_coeffs(parts)
        return int(token) % self.p

    def coeff_str(self, a: int) -> str:
        if self.k == 1:
            return str(a)
        return "|".join(str(c) for c in self.coeffs(a))


def parse_field_spec(spec: str) -> Field:
    """Build a field from 'p' or 'p^k' (e.g. '101', '2^4')."""
    ps, caret, ks = spec.strip().partition("^")
    try:
        p, k = int(ps), int(ks) if caret else 1
    except ValueError:
        raise FormatError(f"cannot parse field spec {spec!r}") from None
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Build F_q from its cardinality, which must be a prime power; every
    field has fewer than 2^31 elements, so a larger q is refused before
    it is factored."""
    if q >= 1 << 31:
        raise TooLarge(f"field order {q} exceeds 2^31")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, k = factors[0], 1
    while p ** k < q:
        k += 1
    return Field(p, k)
