"""Sparse homogeneous polynomials over F_q and the certificate systems.

A polynomial is a map from exponent vectors (tuples of length nvars whose
entries sum to the degree) to nonzero field-element encodings.  The
canonical term order is graded reverse lexicographic; within one degree
that is ascending lexicographic order on the reversed exponent vector,
so X_0^d always leads.

Degrees are tracked explicitly so that the zero polynomial keeps the
nominal degree of the construction that produced it (a Jacobian minor of
degree sigma may collapse to zero in small characteristic).

A batch of B forms of one degree e in v variables is also written as one
int64 (B, len(monomials(v, e))) coefficient array.  The Jacobian minors
are computed on such arrays (``minor_arrays``): partials are gathers
through ``shift_index``, products are one scatter per monomial of the
first factor, and a minor is their cofactor expansion.  Setting X_j = 0
commutes with all of these, so a certificate's minors are computed in
the variables its slice keeps; ``jacobian_minor`` is the one-system case
in all n+1 variables, returned as a Poly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ArityMismatch, FormatError, IncompatibleFields,
                     IndexOutOfRange, InhomogeneousInput, PatternViolation,
                     UnsupportedCertificate)
from .field import Field, parse_field_spec

CERTS = ("stci", "ci", "nons", "irr")


def grevlex_key(exp):
    """Sorting key: ascending over this key lists terms leading-first."""
    return tuple(reversed(exp))


@functools.lru_cache(maxsize=None)
def monomials(nvars: int, degree: int):
    """All exponent vectors of the given total degree, canonical order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for j in combo:
            exp[j] += 1
        out.append(tuple(exp))
    return tuple(sorted(out, key=grevlex_key))


@functools.lru_cache(maxsize=None)
def shift_index(nvars: int, degree: int, e: int):
    """Read-only int array whose entry [i, j] is the position of m_i * x_j
    in monomials(nvars, degree), for m_i in monomials(nvars, degree - e)
    and x_j in monomials(nvars, e)."""
    pos = {x: i for i, x in enumerate(monomials(nvars, degree))}
    table = np.array([[pos[tuple(a + b for a, b in zip(m, x))]
                       for x in monomials(nvars, e)]
                      for m in monomials(nvars, degree - e)], dtype=np.int64)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def _collect(add, pairs) -> dict:
    """The canonical terms of (exponent, coefficient) pairs: coefficients
    of equal exponents summed with add, zero coefficients dropped."""
    terms = {}
    for e, c in pairs:
        terms[e] = add(terms[e], c) if e in terms else c
    return {e: c for e, c in terms.items() if c}


class Poly:
    """Homogeneous polynomial; terms map exponent tuples to nonzero encodings."""

    __slots__ = ("field", "nvars", "degree", "terms")

    def __init__(self, field: Field, nvars: int, degree: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.terms = terms

    @classmethod
    def zero(cls, field, nvars, degree=0):
        return cls(field, nvars, degree, {})

    @classmethod
    def from_terms(cls, field, nvars, pairs, degree=None):
        """Merge (exponent, coefficient) pairs into canonical sparse form.

        Like terms are combined and zero coefficients dropped; the degree
        is taken from the raw input so full cancellation still yields a
        zero polynomial of the right nominal degree.
        """
        checked = []
        for exp, c in pairs:
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ArityMismatch(
                    f"exponent vector {exp} has {len(exp)} entries, expected {nvars}")
            if any(e < 0 for e in exp):
                raise FormatError(f"negative exponent in {exp}")
            d = sum(exp)
            if degree is None:
                degree = d
            elif d != degree:
                raise InhomogeneousInput(
                    f"term of degree {d} in a polynomial of degree {degree}")
            if field.k == 1:
                c %= field.p
            elif not 0 <= c < field.q:
                raise ValueError(
                    f"coefficient {c} is not an encoding of a {field.spec_str()} element")
            checked.append((exp, c))
        return cls(field, nvars, 0 if degree is None else degree,
                   _collect(field.add, checked))

    @classmethod
    def monomial(cls, field, nvars, exp, coeff=1):
        exp = tuple(exp)
        c = coeff % field.p if field.k == 1 else coeff
        if c == 0:
            return cls.zero(field, nvars, sum(exp))
        return cls(field, nvars, sum(exp), {exp: c})

    @classmethod
    def variable(cls, field, nvars, j):
        exp = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(field, nvars, 1, {exp: 1})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other):
        if self.field != other.field:
            raise IncompatibleFields("operands live in different fields")
        if self.nvars != other.nvars:
            raise ArityMismatch("operands have different variable counts")

    def __add__(self, other):
        self._check_compat(other)
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise InhomogeneousInput(
                f"cannot add degrees {self.degree} and {other.degree}")
        deg = other.degree if self.is_zero() else self.degree
        return Poly(self.field, self.nvars, deg,
                    _collect(self.field.add, itertools.chain(
                        self.terms.items(), other.terms.items())))

    def __neg__(self):
        f = self.field
        return Poly(f, self.nvars, self.degree,
                    {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        f = self.field
        deg = self.degree + other.degree
        return Poly(f, self.nvars, deg, _collect(f.add, (
            (tuple(a + b for a, b in zip(e1, e2)), f.mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items())))

    def scale(self, c):
        f = self.field
        if c == 0:
            return Poly.zero(f, self.nvars, self.degree)
        return Poly(f, self.nvars, self.degree,
                    {e: f.mul(co, c) for e, co in self.terms.items()})

    def partial(self, j: int):
        """Formal partial derivative with respect to X_j (exponents mod p)."""
        if not 0 <= j < self.nvars:
            raise IndexOutOfRange(f"variable index {j} out of range")
        f = self.field
        deg = max(self.degree - 1, 0)
        return Poly(f, self.nvars, deg, _collect(f.add, (
            (e[:j] + (e[j] - 1,) + e[j + 1:], f.mul(c, f.from_int(e[j])))
            for e, c in self.terms.items() if e[j])))

    def values(self, pts, field: Field, emb):
        """The values at the rows of the int64 point block pts over field,
        each coefficient c read as emb[c]: one array mul per variable
        factor of a term, none for a coefficient 1, and one add per term
        after the first, with which the sum starts.  The result is a new
        array, never a view of pts."""
        x = pts.T
        acc = None
        for e, c in self.terms.items():
            t = None if emb[c] == 1 else emb[c]  # None: the coefficient 1
            for j, ej in enumerate(e):
                for _ in range(ej):
                    t = x[j] if t is None else field.mul(t, x[j])
            t = 1 if t is None else t
            acc = t if acc is None else field.add(acc, t)
        if len(self.terms) > 1:
            return acc
        # no term, a constant, or one term whose value may be a column of pts
        return np.full(len(pts), 0 if acc is None else acc, dtype=np.int64)

    def eval_at(self, point, field: Field | None = None) -> int:
        """Exact value at a point, optionally over an extension field
        (``embedding_table``): ``values`` on a block of one row."""
        if len(point) != self.nvars:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, expected {self.nvars}")
        E = self.field if field is None else field
        emb = embedding_table(self.field, E) or range(E.q)  # None: no embedding
        return int(self.values(np.array([point], dtype=np.int64), E, emb)[0])

    # -- identity and text --------------------------------------------------

    def __eq__(self, other):
        return bool(isinstance(other, Poly) and self.field == other.field
                    and self.nvars == other.nvars and self.terms == other.terms
                    and (self.terms or self.degree == other.degree))

    def __hash__(self):
        return hash((self.field, self.nvars, self.degree,
                     tuple(self.sorted_terms())))

    def serialize(self) -> str:
        if not self.terms:
            zero_exp = (self.degree,) + (0,) * (self.nvars - 1)
            return "0:" + ",".join(str(e) for e in zero_exp)
        parts = []
        for e, c in self.sorted_terms():
            parts.append(self.field.coeff_str(c) + ":" + ",".join(str(x) for x in e))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self.field.spec_str()}]({self.serialize()})"


def embedding_table(base: Field, ext: Field):
    """Embedding of base into ext, or IncompatibleFields if unknown.

    Prime subfields embed identically under the integer encoding; other
    embeddings are those of base.extension(m), for ext equal to its field.
    """
    if base == ext:
        return None
    if base.k == 1 and ext.p == base.p:
        return list(range(base.p))
    if ext.p == base.p and ext.k % base.k == 0:
        e, emb = base.extension(ext.k // base.k)
        if e == ext:
            return emb
    raise IncompatibleFields(
        f"no embedding of {base.spec_str()} into {ext.spec_str()}")


def poly_parse(text: str, field: Field, nvars: int) -> Poly:
    """Parse 'c:e0,e1,... + c:e0,e1,...' into canonical sparse form."""
    pairs = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise FormatError(f"term {chunk!r} lacks a ':' separator")
        cs, es = chunk.split(":", 1)
        try:
            coeff = field.parse_coeff(cs)
            exp = tuple(int(t) for t in es.split(","))
        except ValueError as exc:
            raise FormatError(f"cannot parse term {chunk!r}: {exc}") from None
        if len(exp) != nvars:
            raise ArityMismatch(
                f"term {chunk!r} has {len(exp)} exponents, expected {nvars}")
        pairs.append((exp, coeff))
    if not pairs:
        raise FormatError("empty polynomial text")
    return Poly.from_terms(field, nvars, pairs)


# ---------------------------------------------------------------------------
# Degree patterns and systems


@dataclass(frozen=True)
class DegreePattern:
    """Ambient dimension n, form count s, nonincreasing degrees d."""

    n: int
    s: int
    d: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        if not 0 < self.s < self.n:
            raise PatternViolation(f"need 0 < s < n, got s={self.s}, n={self.n}")
        if len(self.d) != self.s:
            raise PatternViolation(
                f"degree tuple has {len(self.d)} entries, expected s={self.s}")
        if any(self.d[i] < self.d[i + 1] for i in range(self.s - 1)):
            raise PatternViolation(f"degrees {self.d} are not nonincreasing")
        if self.d[-1] < 1:
            raise PatternViolation("degrees must be positive")
        if self.d[0] < 2:
            raise PatternViolation("leading degree must be at least 2")

    @property
    def delta(self) -> int:
        return math.prod(self.d)

    @property
    def sigma(self) -> int:
        return sum(x - 1 for x in self.d)


@dataclass(frozen=True)
class PolySystem:
    """Forms f_1..f_s realizing a degree pattern over one field."""

    pattern: DegreePattern
    field: Field
    forms: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if len(self.forms) != self.pattern.s:
            raise PatternViolation(
                f"{len(self.forms)} forms for a pattern with s={self.pattern.s}")
        for i, (f, di) in enumerate(zip(self.forms, self.pattern.d), start=1):
            if f.field != self.field:
                raise IncompatibleFields(f"form {i} lives in a different field")
            if f.nvars != self.pattern.n + 1:
                raise ArityMismatch(
                    f"form {i} has {f.nvars} variables, expected {self.pattern.n + 1}")
            if f.is_zero():
                raise PatternViolation(f"form {i} is zero")
            if f.degree != di:
                raise PatternViolation(
                    f"form {i} has degree {f.degree}, pattern expects {di}")

    def serialize(self) -> str:
        return system_file_text(self)


@dataclass(frozen=True)
class TestSystem:
    """The n+1 derived forms fed to the emptiness gate for one certificate."""

    __test__ = False  # bare "Test" prefix; keep pytest collection away

    cert: str
    field: Field
    nvars: int
    forms: tuple
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.forms) != self.nvars:
            raise ArityMismatch(
                f"{len(self.forms)} forms, expected nvars={self.nvars}")
        if len(self.degrees) != len(self.forms):
            raise ArityMismatch("degree list does not match form list")


# ---------------------------------------------------------------------------
# Coefficient arrays: a batch of B forms of one degree e in v variables is
# one int64 (B, len(monomials(v, e))) array, in monomials(v, e) order.


def coeff_array(forms, nvars: int, degree: int):
    """The coefficient vectors of the forms, one row each."""
    mons = monomials(nvars, degree)
    return np.array([[f.terms.get(x, 0) for x in mons] for f in forms],
                    dtype=np.int64)


def form_from_coeffs(field: Field, nvars: int, degree: int, coeffs) -> Poly:
    """The form whose coefficient vector (Python ints) is coeffs."""
    return Poly(field, nvars, degree,
                {m: c for m, c in zip(monomials(nvars, degree), coeffs) if c})


@functools.lru_cache(maxsize=None)
def restrict_index(nvars: int, v: int, degree: int):
    """Read-only positions in monomials(nvars, degree) of monomials(v,
    degree) padded with zero exponents: the columns of a form that survive
    X_v = ... = X_{nvars-1} = 0, read as a form in X_0..X_{v-1}."""
    pos = {x: i for i, x in enumerate(monomials(nvars, degree))}
    pad = (0,) * (nvars - v)
    index = np.array([pos[m + pad] for m in monomials(v, degree)],
                     dtype=np.int64)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=None)
def _partial_index(nvars: int, degree: int, v: int):
    """Read-only (positions, factors), both (len(monomials(v, degree - 1)),
    nvars): for m_i in monomials(v, degree - 1), padded, entry [i, j] of
    positions locates m_i * X_j in monomials(nvars, degree), and entry
    [i, j] of factors is the exponent of X_j in m_i * X_j."""
    rows = restrict_index(nvars, v, degree - 1)
    positions = shift_index(nvars, degree, 1)[rows]
    factors = np.ones_like(positions)
    factors[:, :v] += np.array(monomials(v, degree - 1), dtype=np.int64)
    positions.flags.writeable = factors.flags.writeable = False
    return positions, factors


def _product(a, da: int, b, db: int, v: int, field: Field):
    """Row-wise product of forms in v variables: a of degree da, b of
    degree db; one scatter per monomial of a."""
    shift = shift_index(v, da + db, db)
    out = np.zeros((len(a), len(monomials(v, da + db))), dtype=np.int64)
    for i, cols in enumerate(shift):
        # the positions m_i * x of one row are distinct
        out[:, cols] = field.add(out[:, cols], field.mul(a[:, i, None], b))
    return out


def _determinant(rows, degrees, v: int, field: Field):
    """Cofactor expansion of a square matrix whose row i holds arrays of
    forms of degree degrees[i] in v variables."""
    def expand(r, cols):
        if len(cols) == 1:
            return rows[r][cols[0]]
        acc = None
        for pos, c in enumerate(cols):
            term = _product(rows[r][c], degrees[r],
                            expand(r + 1, cols[:pos] + cols[pos + 1:]),
                            sum(degrees[r + 1:]), v, field)
            acc = (term if acc is None
                   else field.sub(acc, term) if pos % 2
                   else field.add(acc, term))
        return acc

    return expand(0, list(range(len(rows))))


def minor_arrays(forms, pattern: DegreePattern, field: Field, ks, v: int):
    """The minors J_k, k in ks (``jacobian_minor``), of B systems of the
    pattern with X_v, ..., X_n set to 0: one (B, len(monomials(v, sigma)))
    array each, from one (B, len(monomials(n+1, d_i))) array per form f_i.
    Setting X_j = 0 is a ring homomorphism, so the partials are sliced
    before they are multiplied out: parts[i][:, :, j] is df_i/dX_j in
    X_0..X_{v-1}."""
    if not ks:
        return []
    n, s = pattern.n, pattern.s
    parts = []
    for f, e in zip(forms, pattern.d):
        positions, factors = _partial_index(n + 1, e, v)
        parts.append(field.mul(f[:, positions], factors % field.p))
    out = []
    for k in ks:
        if k <= s + 2:
            cols = [[part[:, :, j] for j in range(1, s)] for part in parts]
        else:  # directions (1, t, ..., t^n), t = k s + c
            cols = [[_combine(part, [pow(k * s + c, j, field.p)
                                     for j in range(n + 1)], field)
                     for c in range(1, s)] for part in parts]
        rows = [row + [part[:, :, k - 1]] for row, part in zip(cols, parts)]
        out.append(_determinant(rows, [e - 1 for e in pattern.d], v, field))
    return out


def _combine(parts, weights, field: Field):
    """sum_j weights[j] * parts[:, :, j], weights in the prime subfield."""
    acc = np.zeros(parts.shape[:2], dtype=np.int64)
    for j, w in enumerate(weights):
        acc = field.add(acc, field.mul(parts[:, :, j], w))
    return acc


def determinant(rows, field: Field, nvars: int, degree: int) -> Poly:
    """Cofactor-expansion determinant of a square matrix of polynomials.

    The declared degree is kept even when the expansion cancels to zero.
    """
    def expand(r, cols):
        if len(cols) == 1:
            return rows[r][cols[0]]
        acc = None
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1:]
            sub = expand(r + 1, rest)
            term = entry * sub
            if pos % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            deg = sum(rows[r + i][cols[i]].degree for i in range(len(cols)))
            return Poly.zero(field, nvars, deg)
        return acc

    result = expand(0, list(range(len(rows))))
    return Poly(field, nvars, degree, dict(result.terms))


def jacobian_minor(system: PolySystem, k: int) -> Poly:
    """s x s minor J_k of the Jacobian J = (df_i/dX_j).

    Its last column is the partials along X_{k-1}.  For k <= s + 2 the
    first s - 1 are the partials along X_1..X_{s-1}.  For k >= s + 3,
    which exists only when n - s >= 2, they are the derivatives along the
    Vandermonde directions (1, t, ..., t^n) mod p, t = k s + c for
    c = 1..s-1, which belong to this k alone: columns shared by every
    minor would make all of them vanish where that s x (s-1) block drops
    rank, a codimension-2 locus that meets Z(f) when n - s >= 2.  Either
    way J_k = det(J M) for a fixed (n+1) x s matrix M, so J_k vanishes on
    Sing Z(f), where J has rank below s, in any characteristic, and it
    has degree sigma.  Computed by ``minor_arrays`` in all n+1 variables.
    """
    pat = system.pattern
    if not pat.s + 1 <= k <= pat.n + 1:
        raise IndexOutOfRange(f"k={k} outside [{pat.s + 1}, {pat.n + 1}]")
    forms = [coeff_array([f], pat.n + 1, e)
             for f, e in zip(system.forms, pat.d)]
    row = minor_arrays(forms, pat, system.field, (k,), pat.n + 1)[0][0]
    return form_from_coeffs(system.field, pat.n + 1, pat.sigma, row.tolist())


def jacobian_det(system: PolySystem) -> Poly:
    """det(df_i/dX_j : 1 <= i,j <= s); identical to J_{s+1}."""
    return jacobian_minor(system, system.pattern.s + 1)


def cert_recipe(cert: str, n: int, s: int):
    """What a certificate appends to f_1..f_s: (k of each minor J_k, j of
    each coordinate form X_j).  It keeps the first s + m forms of the
    chain f, J_{s+1}, ..., J_{n+1}, with m per certificate, and fills up
    to n+1 forms with the trailing coordinates X_{s+m}..X_n.  Test
    systems, Macaulay degrees, degree bounds and class expansions are all
    read from this table."""
    if cert not in CERTS:
        raise UnsupportedCertificate(f"unknown certificate {cert!r}")
    m = {"stci": 0, "ci": 1, "irr": 2, "nons": n + 1 - s}[cert]
    return tuple(range(s + 1, s + m + 1)), tuple(range(s + m, n + 1))


def recipe_degrees(pattern: DegreePattern, cert: str) -> tuple:
    """Degrees of the recipe's n+1 forms: d, sigma per minor, 1 per X_j."""
    minors, coords = cert_recipe(cert, pattern.n, pattern.s)
    return pattern.d + (pattern.sigma,) * len(minors) + (1,) * len(coords)


def build_test_system(system: PolySystem, cert: str) -> TestSystem:
    """Assemble the n+1 forms whose emptiness decides the given certificate:
    f, then the recipe's minors (degree sigma), then its coordinate forms."""
    pat = system.pattern
    minors, coords = cert_recipe(cert, pat.n, pat.s)
    nvars = pat.n + 1
    forms = (system.forms + tuple(jacobian_minor(system, k) for k in minors)
             + tuple(Poly.variable(system.field, nvars, j) for j in coords))
    return TestSystem(cert, system.field, nvars, forms,
                      recipe_degrees(pat, cert))


def compose_linear(f: Poly, matrix) -> Poly:
    """Substitute X_j -> sum_m matrix[j][m] X_m (matrix rows over the field)."""
    field, nvars = f.field, f.nvars
    if len(matrix) != nvars or any(len(r) != nvars for r in matrix):
        raise ArityMismatch("substitution matrix must be square of size nvars")
    images = [Poly.from_terms(field, nvars,
                              [(tuple(1 if i == m else 0 for i in range(nvars)), c)
                               for m, c in enumerate(row)], degree=1)
              for row in matrix]
    acc = Poly.zero(field, nvars, f.degree)
    one_exp = (0,) * nvars
    for e, c in f.terms.items():
        term = Poly(field, nvars, 0, {one_exp: c})
        for j, ej in enumerate(e):
            for _ in range(ej):
                term = term * images[j]
        acc = acc + Poly(field, nvars, f.degree, term.terms)
    return acc


# ---------------------------------------------------------------------------
# System file format
#
#   field 3            (or: field 2^2)
#   nvars 3
#   poly 1: 1:2,0,0 + 1:0,1,1
#   poly 2: ...


def system_file_text(system: PolySystem) -> str:
    lines = [f"field {system.field.spec_str()}",
             f"nvars {system.pattern.n + 1}"]
    for i, f in enumerate(system.forms, start=1):
        lines.append(f"poly {i}: {f.serialize()}")
    return "\n".join(lines) + "\n"


def parse_system_file(text: str) -> PolySystem:
    """Parse the line-based system format; errors cite line numbers."""
    field = None
    nvars = None
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("field "):
            if field is not None:
                raise FormatError("duplicate field line", lineno)
            try:
                field = parse_field_spec(line[6:])
            except Exception as exc:
                raise FormatError(f"bad field spec: {exc}", lineno) from None
        elif line.startswith("nvars "):
            try:
                nvars = int(line[6:])
            except ValueError:
                raise FormatError("nvars must be an integer", lineno) from None
            if nvars < 2:
                raise FormatError("nvars must be at least 2", lineno)
        elif line.startswith("poly "):
            if field is None or nvars is None:
                raise FormatError("poly line before field/nvars", lineno)
            body = line[5:]
            if ":" not in body:
                raise FormatError("poly line needs 'poly <i>: terms'", lineno)
            idx_s, terms_s = body.split(":", 1)
            try:
                idx = int(idx_s)
            except ValueError:
                raise FormatError("poly index must be an integer", lineno) from None
            if idx != len(polys) + 1:
                raise FormatError(
                    f"poly index {idx} out of order (expected {len(polys) + 1})",
                    lineno)
            try:
                polys.append(poly_parse(terms_s, field, nvars))
            except Exception as exc:
                raise FormatError(str(exc), lineno) from None
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if field is None or nvars is None or not polys:
        raise FormatError("file must contain field, nvars and poly lines")
    pattern = DegreePattern(n=nvars - 1, s=len(polys),
                            d=tuple(f.degree for f in polys))
    return PolySystem(pattern=pattern, field=field, forms=tuple(polys))
