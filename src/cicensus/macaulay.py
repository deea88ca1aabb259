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

Every system of one pattern gives a sliced matrix of one shape, known in
closed form (``bounds.recipe_macaulay_shape``), so ``decide_many``
decides a certificate for many systems at once.  It fills one int64
(B, R, C) stack of at most _STACK_CELLS cells, one scatter per form, and
eliminates it in place in lockstep: the matrices of a group share their
column and pivot row while each swaps in its own pivot, and a column with
a pivot in only some of them splits the group, the rest waiting on a
worklist.  Which kernel runs is chosen by B: a stack of two or more
takes the lockstep loop, one matrix takes the row loop, which is faster
on a single matrix, and so does a group split down to one matrix.  A matrix over DEFAULT_MAX_CELLS cells raises
TooLarge before any test system is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import recipe_macaulay_shape
from .errors import (ArityMismatch, DegreeMismatch, EmptyInput, MixedFields,
                     PatternViolation, TooLarge)
from .field import Field
from .poly import (Poly, PolySystem, TestSystem, build_test_system,
                   cert_recipe, monomials, shift_index)

_STACK_CELLS = 1 << 15  # cells of one stack of matrices: 256 KiB of int64
DEFAULT_MAX_CELLS = 1 << 25  # cells of the largest matrix decided


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


def _echelon(a, field: Field) -> int:
    """Rank of the int64 matrix a, eliminated in place row by row."""
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


def _echelon_stack(a, field: Field):
    """Ranks of the matrices a[b] of the int64 stack a, eliminated in place
    in lockstep: a group of matrices shares its column c and pivot row r,
    each swaps its own first nonzero row into r, and a column with a pivot
    in only some of them splits the group; the others go on the worklist
    at column c + 1.  A group of one finishes in the row loop, which
    indexes one matrix faster than the stack."""
    nb, nrows, ncols = a.shape
    ranks = np.zeros(nb, dtype=np.int64)
    work = [(np.arange(nb), 0, 0)] if a.size else []
    while work:
        idx, c, r = work.pop()  # matrices, column, pivot row
        while c < ncols and r < nrows:
            if len(idx) == 1:  # the rest of one matrix: the row loop
                r += _echelon(a[idx[0], r:, c:], field)
                break
            sel = slice(None) if len(idx) == nb else idx
            nz = a[sel, r:, c] != 0
            has = nz.any(axis=1)
            if not has.all():
                if not has.any():
                    c += 1
                    continue
                work.append((idx[~has], c + 1, r))
                idx, nz = idx[has], nz[has]
                sel = idx
            piv = nz.argmax(axis=1)
            moved = piv.nonzero()[0]
            if moved.size:
                b, p = idx[moved], r + piv[moved]
                a[b, r], a[b, p] = a[b, p], a[b, r]
            a[sel, r, c:] = field.mul(a[sel, r, c:],
                                      field.inv(a[sel, r, c])[:, None])
            # the rows below r with an entry in column c in any matrix
            hit = r + 1 + a[sel, r + 1:, c].any(axis=0).nonzero()[0]
            if hit.size:
                mats = idx[:, None] if sel is idx else sel
                rows = (mats, hit, slice(c, None))
                below = a[rows]
                a[rows] = field.submul(below, below[:, :, :1],
                                       a[sel, r, None, c:])
            c, r = c + 1, r + 1
        ranks[idx] = r
    return ranks


def _eliminate(a, field: Field):
    """Rank of an int64 matrix, or the ranks of a stack, in place.  A stack
    of one takes the row loop, which is faster on a single matrix."""
    if a.ndim < 3:
        return _echelon(a, field)
    if len(a) == 1:
        return np.array([_echelon(a[0], field)])
    return _echelon_stack(a, field)


def rank_over_field(rows, field: Field):
    """Row-echelon rank over F_q of a dense matrix of element encodings, or
    the array of ranks of a (B, R, C) stack of them, given as lists or an
    array; the kernel eliminates in a copy."""
    return _eliminate(np.array(rows, dtype=np.int64), field)


def _stack(tss, degrees, shifts, ncols):
    """The int64 stack of the Macaulay matrices of test systems of one
    shape: the rows of form j are m * g_j for the multipliers m of degree
    N - e_j in canonical order, one scatter per form of every system's
    coefficient vector through shift_index."""
    nvars = tss[0].nvars
    a = np.zeros((len(tss), sum(len(sh) for sh in shifts), ncols),
                 dtype=np.int64)
    r = 0
    for j, (e, sh) in enumerate(zip(degrees, shifts)):
        # the positions m * x of one row are distinct, so zero
        # coefficients may be written too
        coeffs = np.array([[ts.forms[j].terms.get(x, 0)
                            for x in monomials(nvars, e)] for ts in tss],
                          dtype=np.int64)
        a[:, np.arange(r, r + len(sh))[:, None], sh] = coeffs[:, None]
        r += len(sh)
    return a


def macaulay_instance(ts: TestSystem):
    """The degree-N multiplication matrix of a test system, as int64.

    Columns are the degree-N monomials in canonical order; the rows of
    form g_j are the coefficient vectors of m * g_j for the multipliers m
    of degree N - deg(g_j) in canonical order, scattered through
    shift_index.
    """
    n_deg = macaulay_degree(ts.degrees)
    shifts = [shift_index(ts.nvars, n_deg, e) for e in ts.degrees]
    return _stack([ts], ts.degrees, shifts,
                  len(monomials(ts.nvars, n_deg)))[0]


def check_shape(shape) -> None:
    """TooLarge if a Macaulay matrix of this (rows, columns) shape exceeds
    DEFAULT_MAX_CELLS cells."""
    nrows, ncols = shape
    if nrows * ncols > DEFAULT_MAX_CELLS:
        raise TooLarge(f"a {nrows}x{ncols} Macaulay matrix exceeds "
                       f"{DEFAULT_MAX_CELLS} cells")


def _verdicts(tss) -> list:
    """Emptiness verdicts of test systems that share nvars, degrees and
    field, in order: each is validated, one with a zero form
    short-circuits, and the others are decided in stacks of at most
    _STACK_CELLS cells (one matrix where a matrix is larger)."""
    nvars, degrees = tss[0].nvars, tss[0].degrees
    for ts in tss:
        for f, e in zip(ts.forms, ts.degrees):
            if f.field != ts.field:
                raise MixedFields("all forms must live in one field")
            if f.nvars != ts.nvars:
                raise ArityMismatch("form arity differs from the test system")
            if f.terms and f.degree != e:
                raise DegreeMismatch(f"a form of degree {f.degree} is listed "
                                     f"with degree {e}")
    n_deg = macaulay_degree(degrees)
    ncols = len(monomials(nvars, n_deg))
    out = [EmptinessVerdict(empty=False, rank=0, degree=n_deg, nrows=0,
                            ncols=ncols)
           if any(f.is_zero() for f in ts.forms) else None for ts in tss]
    live = [i for i, v in enumerate(out) if v is None]
    shifts = [shift_index(nvars, n_deg, e) for e in degrees]
    nrows = sum(len(sh) for sh in shifts)
    size = max(1, _STACK_CELLS // (nrows * ncols))
    for lo in range(0, len(live), size):
        batch = live[lo:lo + size]
        a = _stack([tss[i] for i in batch], degrees, shifts, ncols)
        for i, rank in zip(batch, _eliminate(a, tss[0].field).tolist()):
            out[i] = EmptinessVerdict(empty=(rank == ncols), rank=rank,
                                      degree=n_deg, nrows=nrows, ncols=ncols)
    return out


def projective_empty(ts: TestSystem) -> EmptinessVerdict:
    """Decide whether the test system's zero set in P^n is empty over the closure."""
    return _verdicts([ts])[0]


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


def decide_many(systems, cert: str, chains=None) -> list:
    """``[decide(system, cert) for system in systems]`` for systems of one
    pattern and field, whose sliced matrices share one shape and are
    decided in stacks.  ``chains[i]``, when given, holds minors J_{s+1},
    J_{s+2}, ... of systems[i] (``build_test_system``).  TooLarge is
    raised before anything is built if the matrix exceeds
    DEFAULT_MAX_CELLS cells."""
    systems = list(systems)
    if not systems:
        return []
    pat, field = systems[0].pattern, systems[0].field
    check_shape(recipe_macaulay_shape(pat.n, pat.s, pat.d, cert))
    if any(s.pattern != pat or s.field != field for s in systems):
        raise PatternViolation("decide_many needs one pattern and field")
    coords = cert_recipe(cert, pat.n, pat.s)[1]
    return _verdicts([
        coordinate_slice(build_test_system(system, cert, chain), coords)
        for system, chain in zip(systems, chains or [()] * len(systems))])


def decide(system: PolySystem, cert: str) -> EmptinessVerdict:
    """The emptiness verdict of the certificate's test system, decided on
    the slice by the recipe's coordinate forms (module docstring)."""
    return decide_many([system], cert)[0]


def certify(system: PolySystem, cert: str) -> bool:
    """True guarantees the certificate's geometric property for Z(f).

    False proves nothing: the underlying obstruction is a sufficient
    condition only.
    """
    return decide(system, cert).empty
