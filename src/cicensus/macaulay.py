"""Emptiness gate: do n+1 forms in n+1 variables share a projective zero?

The decision runs at the classical Macaulay degree N = sum(e_j - 1) + 1.
If the forms have no common zero over the algebraic closure, every
degree-N monomial lies in the ideal, so the multiplication matrix
{m * g_j : deg m = N - e_j} has full column rank; conversely a common
zero x kills the full rank because X_j^N cannot vanish at x for every j.
Rank over F_q equals rank over any extension, so the verdict is
closure-correct.

A form that is identically zero imposes no condition: the remaining n
forms always meet in projective n-space, so the gate short-circuits to
"not empty" without building a matrix.

The ``stci``, ``ci`` and ``irr`` recipes end with coordinate forms X_j.
The common zeros of all n+1 forms are the common zeros of the others on
the linear subspace {X_j = 0}, so ``decide`` asks the same question of
those others with X_j set to 0 and the X_j deleted: n+1-c forms in
n+1-c variables.  A linear form adds e - 1 = 0 to N, so N is unchanged,
and the gate is exact, so the verdict is too; only the matrix shrinks
(``irr`` at (5,3,(2,2,2)): 2682x1287 becomes 882x495).  The sliced X_j
are always the trailing variables, so a slice cuts every exponent short.
The recipes never slice X_0, so at least one variable remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, DegreeMismatch, EmptyInput, MixedFields
from .field import Field
from .poly import (Poly, PolySystem, TestSystem, build_test_system,
                   cert_recipe, monomials, shift_index)


def macaulay_degree(degrees) -> int:
    degrees = list(degrees)
    if not degrees:
        raise EmptyInput("no degrees given")
    if any(e < 1 for e in degrees):
        raise ValueError("degrees must be positive")
    return sum(e - 1 for e in degrees) + 1


@dataclass(frozen=True)
class EmptinessVerdict:
    empty: bool
    rank: int
    degree: int
    nrows: int
    ncols: int

    @property
    def deficit(self) -> int:
        """ncols - rank: the Hilbert function of the forms at degree N."""
        return self.ncols - self.rank


def rank_over_field(rows, field: Field) -> int:
    """Row-echelon rank of a dense matrix of element encodings over F_q,
    given as lists or an array; the kernel eliminates in a copy."""
    a = np.array(rows, dtype=np.int64)
    if not a.size:
        return 0
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        # columns left of c are zero in rows r and below
        a[r, c:] = field.mul(a[r, c:], field.inv(int(a[r, c])))
        hit = r + 1 + a[r + 1:, c].nonzero()[0]
        if hit.size:
            a[hit, c:] = field.submul(a[hit, c:], a[hit, c, None], a[r, c:])
        r += 1
        if r == nrows:
            break
    return r


def macaulay_instance(ts: TestSystem):
    """The degree-N multiplication matrix of a test system, as int64.

    Columns are the degree-N monomials in canonical order; the rows of
    form g_j are the coefficient vectors of m * g_j for the multipliers m
    of degree N - deg(g_j) in canonical order, scattered through
    shift_index.
    """
    nvars, n_deg = ts.nvars, macaulay_degree(ts.degrees)
    shifts = [shift_index(nvars, n_deg, e) for e in ts.degrees]
    a = np.zeros((sum(len(sh) for sh in shifts),
                  len(monomials(nvars, n_deg))), dtype=np.int64)
    r = 0
    for form, e, sh in zip(ts.forms, ts.degrees, shifts):
        # the positions m * x_j of one row are distinct, so zero
        # coefficients may be written too
        a[np.arange(r, r + len(sh))[:, None], sh] = [
            form.terms.get(x, 0) for x in monomials(nvars, e)]
        r += len(sh)
    return a


def projective_empty(ts: TestSystem) -> EmptinessVerdict:
    """Decide whether the test system's zero set in P^n is empty over the closure."""
    for f, e in zip(ts.forms, ts.degrees):
        if f.field != ts.field:
            raise MixedFields("all forms must live in one field")
        if f.nvars != ts.nvars:
            raise ArityMismatch("form arity differs from the test system")
        if f.terms and f.degree != e:
            raise DegreeMismatch(f"a form of degree {f.degree} is listed "
                                 f"with degree {e}")
    n_deg = macaulay_degree(ts.degrees)
    if any(f.is_zero() for f in ts.forms):
        return EmptinessVerdict(empty=False, rank=0, degree=n_deg,
                                nrows=0, ncols=len(monomials(ts.nvars, n_deg)))
    a = macaulay_instance(ts)
    nrows, ncols = a.shape
    rank = rank_over_field(a, ts.field)
    return EmptinessVerdict(empty=(rank == ncols), rank=rank, degree=n_deg,
                            nrows=nrows, ncols=ncols)


def coordinate_slice(ts: TestSystem, coords) -> TestSystem:
    """The test system restricted to {X_j = 0 : j in coords}.

    ``coords`` must be the trailing variables X_{nvars-c}..X_{nvars-1},
    and ``ts`` must end with their coordinate forms, as the recipes build
    it: those forms are dropped, and every other form loses its terms in
    those variables and then the variables themselves.
    """
    c = len(coords)
    if not c:
        return ts
    nvars = ts.nvars - c
    if (tuple(coords) != tuple(range(nvars, ts.nvars))
            or ts.forms[-c:] != tuple(Poly.variable(ts.field, ts.nvars, j)
                                      for j in coords)):
        raise ValueError("only trailing variables whose coordinate forms "
                         "end the test system can be sliced")
    forms = tuple(
        Poly(ts.field, nvars, f.degree,
             {e[:nvars]: a for e, a in f.terms.items() if not any(e[nvars:])})
        for f in ts.forms[:-c])
    return TestSystem(ts.cert, ts.field, nvars, forms, ts.degrees[:-c])


def decide(system: PolySystem, cert: str) -> EmptinessVerdict:
    """The emptiness verdict of the certificate's test system, decided on
    the slice by the recipe's coordinate forms (module docstring)."""
    coords = cert_recipe(cert, system.pattern.n, system.pattern.s)[1]
    return projective_empty(
        coordinate_slice(build_test_system(system, cert), coords))


def certify(system: PolySystem, cert: str) -> bool:
    """True guarantees the certificate's geometric property for Z(f).

    False proves nothing: the underlying obstruction is a sufficient
    condition only.
    """
    return decide(system, cert).empty
