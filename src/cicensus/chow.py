"""Truncated intersection-class arithmetic in Z[t_0, t_1..t_s]/(t_0^(n+2)).

A certificate's class is a product of linear classes, read from its
recipe (m minors and c coordinate forms appended to f_1..f_s):

    prod_i (d_i t_0 + t_i) * (sigma t_0 + t_1 + ... + t_s)^m * t_0^c

Only t_0 is truncated (at power n+2); higher powers of the t_i are kept
so no term is dropped prematurely.  The degree bounds are the
coefficients of t_0^n t_i, and the t_0^(n+1) coefficient gives the
leading homogeneity weight.  Coefficients are arbitrary-precision.
"""

from __future__ import annotations

import itertools
import operator

from .errors import IndexOutOfRange, UnsupportedCertificate
from .poly import DegreePattern, _collect, cert_recipe


class ChowClass:
    """Polynomial in t_0..t_s with integer coefficients, t_0 truncated."""

    __slots__ = ("n", "s", "coeffs")

    def __init__(self, n: int, s: int, coeffs: dict):
        self.n = n
        self.s = s
        self.coeffs = coeffs

    @classmethod
    def linear(cls, n, s, parts):
        """Class sum(parts[j] * t_j) from a mapping {index: coefficient}."""
        coeffs = {}
        for j, c in parts.items():
            if c:
                exp = tuple(1 if i == j else 0 for i in range(s + 1))
                coeffs[exp] = c
        return cls(n, s, coeffs)

    @classmethod
    def one(cls, n, s):
        return cls(n, s, {(0,) * (s + 1): 1})

    def __mul__(self, other):
        cap = self.n + 1
        return ChowClass(self.n, self.s, _collect(operator.add, (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.coeffs.items()
            for e2, c2 in other.coeffs.items() if e1[0] + e2[0] <= cap)))

    def __add__(self, other):
        return ChowClass(self.n, self.s, _collect(operator.add, itertools.chain(
            self.coeffs.items(), other.coeffs.items())))

    def __pow__(self, e: int):
        acc = ChowClass.one(self.n, self.s)
        for _ in range(e):
            acc = acc * self
        return acc

    def coefficient(self, exp) -> int:
        return self.coeffs.get(tuple(exp), 0)

    def __eq__(self, other):
        return (isinstance(other, ChowClass) and self.n == other.n
                and self.s == other.s and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"ChowClass(n={self.n}, s={self.s}, {len(self.coeffs)} terms)"


def chow_class(cert: str, n: int, s: int, d) -> ChowClass:
    """Expand the incidence class for the smoothness or irreducibility gate."""
    if cert not in ("nons", "irr"):
        raise UnsupportedCertificate(f"no class expansion for {cert!r}")
    pat = DegreePattern(n=n, s=s, d=tuple(d))
    minors, coords = cert_recipe(cert, n, s)
    acc = ChowClass.one(n, s)
    for i, di in enumerate(pat.d, start=1):
        acc = acc * ChowClass.linear(n, s, {0: di, i: 1})
    spread = ChowClass.linear(n, s, {0: pat.sigma, **{i: 1 for i in range(1, s + 1)}})
    t0 = ChowClass.linear(n, s, {0: 1})
    return acc * spread ** len(minors) * t0 ** len(coords)


def extract_bound(cls: ChowClass, i: int) -> int:
    """Coefficient of t_0^n t_i, the degree bound in the i-th coefficient set."""
    if not 1 <= i <= cls.s:
        raise IndexOutOfRange(f"i={i} outside [1, {cls.s}]")
    exp = tuple([cls.n] + [1 if j == i else 0 for j in range(1, cls.s + 1)])
    return cls.coefficient(exp)


def top_coefficient(cls: ChowClass) -> int:
    """Coefficient of t_0^(n+1)."""
    return cls.coefficient((cls.n + 1,) + (0,) * cls.s)
