"""Emptiness gate: do n+1 forms in n+1 variables share a projective zero?

The decision runs at the classical Macaulay degree N = sum(e_j - 1) + 1.
If the forms have no common zero over the algebraic closure, every
degree-N monomial lies in the ideal, so the multiplication matrix
{m * g_j : deg m = N - e_j} has full column rank; conversely a common
zero x kills the full rank because X_j^N cannot vanish at x for every j.
Rank over F_q equals rank over any extension, so the verdict is
closure-correct.

A form that is identically zero is decided like any other: its rows
are zero, so the rank and the deficit are those of the other n forms,
and the deficit is still the Hilbert function at N.  The verdict is
"not empty", as it must be: n forms in n+1 variables always meet in
projective n-space, so their matrix never has full column rank.

The ``stci``, ``ci`` and ``irr`` recipes end with coordinate forms X_j.
The common zeros of all n+1 forms are the common zeros of the others on
the linear subspace {X_j = 0}, so a decision never builds the X_j: it
sets them to 0 in f and the recipe's m minors and deletes them, which
leaves s + m forms in s + m variables.  A linear form adds e - 1 = 0 to
N, so N is unchanged, and the gate is exact, so the verdict is too; only
the matrix shrinks (``irr`` at (5,3,(2,2,2)): 2682x1287 becomes
882x495).  The X_j are the trailing variables, so the slice keeps a
fixed set of columns of each form (``poly.restrict_index``), and the
minors are computed from partials sliced the same way; the recipes
never slice X_0.

Every system of one pattern gives a sliced matrix of one shape, known in
closed form (``bounds.recipe_macaulay_shape``), so a certificate is
decided for many systems at once, from one int64 (B, M) coefficient
array per form (``decide_coeffs``; ``decide_certs`` and ``decide_many``
convert their systems at the boundary): the forms fill int64 (B, R, C)
stacks of at most _STACK_CELLS cells, one scatter per form, and each
stack is eliminated in lockstep (``_echelon_stack``), each part of a
split in its own copy.  A verdict belongs to a recipe, not to a
certificate: certificates with equal ``cert_recipe(cert, n, s)`` build
the same test systems and the same matrices, so ``decide_coeffs``
decides each distinct recipe once and its certificates share the
verdicts (``nons`` and ``irr`` both keep two minors when n - s = 1).

One matrix is eliminated by the row loop (``_echelon``), which keeps
the band these matrices have.  A row m * g_j spans many columns in
grevlex order, but few when the columns are read right to left, so the
loop takes them in that order.  Its pivot in a column is the row whose
last nonzero comes first, a Markowitz-style choice (Markowitz,
Management Science 3(3), 1957).  An update with it never reaches past
the updated row's own end, so no row grows wider.  Faugere and Lachartre
(PASCO 2010) use the same near-triangular structure in F4.  On the
882x495 ``irr`` matrix over F_20011 an update spans 10 columns at the
median instead of 166, and the elimination makes 1.6M cell updates
instead of 16.2M.  The rank is exact in any order: permuting columns
and pivoting on any nonzero entry leave it unchanged.  A matrix decided
alone is built with its rows in order of their first column in that
order, and column-major, so that the rows a column can hit form a
narrow window of contiguous entries (on the ``irr`` matrix, 318 hit
rows a step on average, of 882); the loop reads the column, searches
the pivot and updates within that window only, and a column whose
nonzeros fill more than half of it is updated as one slice in place.

Over F_p both kernels delay reduction (Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  An update x - c*y with c and y in [0, p) takes at
most (p-1)^2 from an entry, so an entry that starts in [0, p) stays in
int64 for L = floor((2^63 - 1 - p) / (p-1)^2) updates; L >= 2, since
Field caps p below 2^31.  The rows a pivot updates are updated in plain
int64 and reduced only when one of their entries could not take another
update, a check that runs iff L^2 < DEFAULT_MAX_CELLS, p > 39,901,857
(``_subtract``): a matrix has at most DEFAULT_MAX_CELLS cells, so with the
check off no entry takes more than min(R, C) <= L updates.  Otherwise a
kernel reduces the pivot column and the pivot row as it reads them, and
nothing else.  Over an extension field every update reduces.

The gate sizes every matrix in closed form first
(``bounds.macaulay_shape``): one over DEFAULT_MAX_CELLS cells raises
TooLarge before anything is built.  Forms are validated where they come
from outside, in ``projective_empty``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import macaulay_shape, recipe_macaulay_shape
from .errors import (ArityMismatch, DegreeMismatch, EmptyInput, MixedFields,
                     NotAMatrix, PatternViolation, TooLarge)
from .field import Field
from .poly import (DegreePattern, Poly, PolySystem, TestSystem, cert_recipe,
                   coeff_array, minor_arrays, recipe_degrees,
                   restrict_index, shift_index)

_STACK_CELLS = 1 << 17  # cells of one stack of matrices: 1 MiB of int64
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


def _reduction_interval(p: int) -> int:
    """The updates x -> x - c*y, c and y in [0, p), that an int64 entry
    starting in [0, p) can take before it must be reduced mod p: the
    largest L with L (p-1)^2 + p <= 2^63 - 1.  Field caps p below 2^31,
    so L >= 2: L = 2 at p = 2^31 - 1, L = 3 near 1.7e9, about 2.3e10 at
    p = 20011."""
    return (2 ** 63 - 1 - p) // (p - 1) ** 2


def _reduced(x, field: Field):
    """x with its entries in [0, q): over F_p the kernels leave them
    unreduced."""
    return x % field.p if field.k == 1 else x


def _subtract(a, rows, mult, prow, field: Field) -> None:
    """Subtract from the rows a[rows] the reduced multipliers mult times
    the scaled pivot row prow; neither kernel reads a pivot column again,
    so a[rows] starts right of it.  rows is a slice of a window, updated in
    place, or an index of the hit rows, gathered and scattered back; a row
    with multiplier 0 is left as it was.  An extension field reduces every
    entry (``field.submul``).  Over F_p the rows with a nonzero multiplier
    are reduced when one of the updated entries could not take another
    update of at most (p-1)^2, a check that runs iff L^2 <
    DEFAULT_MAX_CELLS, L = ``_reduction_interval(p)``: an entry takes one
    update per pivot, and a capped matrix has at most L pivots otherwise."""
    if field.k > 1:
        a[rows] = field.submul(a[rows], mult, prow)
        return
    p = field.p
    below = a[rows]
    # the product in the block's own layout: a window of a column-major
    # matrix is column-major
    below -= np.multiply(mult, prow, out=np.empty_like(below))
    if (_reduction_interval(p) ** 2 < DEFAULT_MAX_CELLS
            and below.min() < (p - 1) ** 2 - 2 ** 63 + 1):
        np.remainder(below, p, out=below, where=mult != 0)
    a[rows] = below  # numpy skips the copy when a[rows] is a view


def _echelon(a, field: Field) -> int:
    """Rank of the int64 matrix a, eliminated in place one column at a
    time, right to left, on the view a[:, ::-1] (module docstring).

    In that order start[i] is row i's first nonzero column (ncols for a
    zero row) and last[i] bounds its last; both are computed once.  The
    pivot of column c is the row with a nonzero there whose last is least,
    the first of them on a tie.  The other such rows are updated on
    columns c+1 to the pivot row's last nonzero, end - 1, and end - 1 <=
    last[piv] <= last of each of them, so last stays a bound; it may
    overstate a row's end, so an update may run over zeros, but it never
    misses a nonzero.  An update writes a row only right of a column where
    the row has a nonzero, so no row gains a nonzero left of its start.
    The pivot row is not swapped: it is retired by zeroing it, so the rows
    with a nonzero in column c are the candidates, and the rank is the
    count of pivots.  No column is read after its pivot step.

    Every row with a nonzero in column c lies in the window lo[c] to
    hi[c] - 1: below it every row i has min(start[i:]) > c, above it
    max(last[:i+1]) < c.  The window holds in any row order, and it is
    narrow when the rows come in order of start, as ``_verdicts`` builds
    one matrix; the column, the pivot search and the update stay inside
    it.  A column whose nonzeros fill more than half its window updates
    the window's slice in place, the pivot row with multiplier 0; a
    sparser one gathers its hit rows and scatters them back.

    Over F_p the updated rows stay unreduced (``_subtract``); column c is
    read reduced, and the pivot row is reduced before it is scaled."""
    if not a.size:
        return 0
    nrows, ncols = a.shape
    # both from one C-order bool, whatever a's layout: an argmax over a
    # column-major bool copies it; last is taken on the unreversed rows
    a = a[:, ::-1]
    nz = np.not_equal(a, 0, order="C")
    start = nz.argmax(axis=1)
    last = ncols - 1 - nz[:, ::-1].argmax(axis=1)
    start[~nz[np.arange(nrows), start]] = ncols
    del nz
    cols = np.arange(ncols)
    hi = np.searchsorted(np.minimum.accumulate(start[::-1])[::-1], cols,
                         side="right").tolist()
    lo = np.searchsorted(np.maximum.accumulate(last), cols).tolist()
    rank = 0
    for c in range(ncols):
        top, bottom = lo[c], hi[c]
        col = _reduced(a[top:bottom, c], field)
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = top + int(nz[last[top + nz].argmin()])
        row = _reduced(a[piv, c:last[piv] + 1], field)
        end = c + int(row.nonzero()[0][-1]) + 1
        if nz.size > 1 and end > c + 1:
            prow = field.mul(row[1:end - c], field.inv(int(row[0])))
            if 2 * nz.size > bottom - top:
                mult = col.copy()  # over F_q, q = p^k, col is a view of a
                mult[piv - top] = 0
                _subtract(a, (slice(top, bottom), slice(c + 1, end)),
                          mult[:, None], prow, field)
            else:
                hit = nz[nz != piv - top]
                _subtract(a, (top + hit, slice(c + 1, end)),
                          col[hit, None], prow, field)
        a[piv, c:end] = 0
        rank += 1
        if rank == nrows:
            break
    return rank


def _echelon_stack(a, field: Field):
    """Ranks of the matrices a[b] of the int64 stack a, eliminated in
    lockstep: a group of matrices shares its column c and pivot row r,
    each swaps its own first nonzero row into r, and a column with a pivot
    in only some of them splits the group.  Each part of a split is copied
    into its own stack: the others go on the worklist at column c + 1, so
    every step works on a whole group.  One read of column c per pivot
    gives the pivots and the rows to update.  Reduction is delayed as in
    the row loop (``_subtract``), by a check p alone decides, so every
    group of one finishes in the row loop, which indexes one matrix faster
    than the stack.  Only a stack that never splits is eliminated in place."""
    nb, nrows, ncols = a.shape
    ranks = np.zeros(nb, dtype=np.int64)
    # matrices, their stack, column, pivot row
    work = [(np.arange(nb), a, 0, 0)] if a.size else []
    while work:
        idx, a, c, r = work.pop()
        while c < ncols and r < nrows:
            if len(idx) == 1:
                r += _echelon(a[0, r:, c:], field)  # the rest: the row loop
                break
            nz = _reduced(a[:, r:, c], field) != 0
            has = nz.any(axis=1)
            if not has.all():
                if not has.any():
                    c += 1
                    continue
                work.append((idx[~has], a[~has], c + 1, r))
                idx, a, nz = idx[has], a[has], nz[has]
            piv = nz.argmax(axis=1)
            moved = piv.nonzero()[0]
            if moved.size:
                p = r + piv[moved]
                a[moved, r], a[moved, p] = a[moved, p], a[moved, r]
            row = _reduced(a[:, r, c:], field)
            a[:, r, c:] = field.mul(row, field.inv(row[:, 0])[:, None])
            # the rows below r with an entry in column c in any matrix
            nz[np.arange(len(idx)), piv] = False  # each pivot is in row r now
            hit = r + nz.any(axis=0).nonzero()[0]
            if hit.size and c + 1 < ncols:
                _subtract(a, (slice(None), hit, slice(c + 1, None)),
                          _reduced(a[:, hit, c], field)[..., None],
                          a[:, r, None, c + 1:], field)
            c, r = c + 1, r + 1
        ranks[idx] = r
    return ranks


def _eliminate(a, field: Field):
    """Rank of an int64 matrix, or the ranks of a stack; a is overwritten."""
    if a.ndim < 3:
        return _echelon(a, field)
    return _echelon_stack(a, field)


def rank_over_field(rows, field: Field):
    """Row-echelon rank over F_q of a dense matrix of element encodings, or
    the array of ranks of a (B, R, C) stack of them, given as lists or an
    array; the kernel eliminates in a copy.  ``[]`` is the empty matrix.
    Over F_p any int is read mod p.  Input that is not a matrix or a stack
    of them (a scalar, a row, ragged rows, four or more axes), or, over an
    extension field, has an entry outside [0, q), raises NotAMatrix, and a
    matrix over DEFAULT_MAX_CELLS cells TooLarge, as the check in
    ``_subtract`` needs, all before any elimination."""
    try:
        a = np.array(rows, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NotAMatrix(f"not an int64 matrix or stack: {exc}") from None
    if a.shape == (0,):
        a = a.reshape(0, 0)
    if a.ndim not in (2, 3):
        raise NotAMatrix(f"a {a.ndim}-axis array is not a matrix or a stack "
                         f"of matrices")
    if field.k > 1 and a.size and not 0 <= a.min() <= a.max() < field.q:
        raise NotAMatrix(f"an entry is not an element of F_{field.q}")
    check_shape(a.shape[-2:])
    return _eliminate(a, field)


def _stack(forms, shifts, ncols, rows=None):
    """The int64 stack of the Macaulay matrices of B systems of one shape,
    given as one (B, len(sh[0])) coefficient array per form: the rows of
    form j are m * g_j for the multipliers m of degree N - e_j in
    canonical order, one scatter per form through shift_index.  rows[i]
    is the stack row of canonical row i (canonical order if None).  A
    stack of one matrix is column-major, so that every column of the row
    loop's view is contiguous; the lockstep kernel, which reads across
    matrices, is faster on a row-major stack."""
    nb, nrows = len(forms[0]), sum(len(sh) for sh in shifts)
    a = np.zeros((nb, nrows, ncols), dtype=np.int64,
                 order="F" if nb == 1 else "C")
    if rows is None:
        rows = np.arange(nrows)
    r = 0
    for g, sh in zip(forms, shifts):
        # the positions m * x of one row are distinct, so zero
        # coefficients may be written too
        a[:, rows[r:r + len(sh), None], sh] = g[:, None]
        r += len(sh)
    return a


@functools.lru_cache(maxsize=None)
def _start_order(degrees: tuple):
    """Read-only stack rows of the canonical rows of a Macaulay matrix of
    these degrees, in order of their first column right to left: the last
    canonical column of each row's shift-table row, descending, ties kept
    in canonical order.  The row loop's window (``_echelon``) is narrow in
    this order."""
    n_deg = macaulay_degree(degrees)
    ends = np.concatenate([shift_index(len(degrees), n_deg, e).max(axis=1)
                           for e in degrees])
    rows = np.empty_like(ends)
    rows[np.argsort(-ends, kind="stable")] = np.arange(len(ends))
    rows.flags.writeable = False  # shared by every caller through the cache
    return rows


def _coeffs(ts: TestSystem):
    """A test system's forms as coefficient arrays of one row each."""
    return [coeff_array([f], ts.nvars, e)
            for f, e in zip(ts.forms, ts.degrees)]


def macaulay_instance(ts: TestSystem):
    """The degree-N multiplication matrix of a test system, as int64, laid
    out as one matrix of ``_stack``."""
    n_deg = macaulay_degree(ts.degrees)
    ncols = check_shape(macaulay_shape(ts.degrees))[1]
    shifts = [shift_index(ts.nvars, n_deg, e) for e in ts.degrees]
    return _stack(_coeffs(ts), shifts, ncols)[0]


def check_shape(shape) -> tuple:
    """The (rows, columns) shape of a Macaulay matrix, or TooLarge if it
    exceeds DEFAULT_MAX_CELLS cells."""
    nrows, ncols = shape
    if nrows * ncols > DEFAULT_MAX_CELLS:
        raise TooLarge(f"a {nrows}x{ncols} Macaulay matrix exceeds "
                       f"{DEFAULT_MAX_CELLS} cells")
    return shape


def _check_forms(forms, field: Field, nvars: int, degrees) -> None:
    """Raise unless each form has this field, nvars and, if nonzero, degree."""
    for f, e in zip(forms, degrees):
        if f.field != field:
            raise MixedFields("all forms must live in one field")
        if f.nvars != nvars:
            raise ArityMismatch("form arity differs from the test system")
        if f.terms and f.degree != e:
            raise DegreeMismatch(f"a form of degree {f.degree} is listed "
                                 f"with degree {e}")


def _verdicts(forms, degrees, field: Field) -> list:
    """Emptiness verdicts of B systems of len(degrees) forms in as many
    variables, given as one (B, M_j) coefficient array per form, each the
    rank of its matrix: the batch is cut into contiguous stacks of at most
    _STACK_CELLS cells, a stack of one in start order.  A zero form adds
    zero rows, and the other forms meet, so its verdict is "not empty"
    (module docstring)."""
    n_deg = macaulay_degree(degrees)
    nrows, ncols = check_shape(macaulay_shape(degrees))
    shifts = [shift_index(len(degrees), n_deg, e) for e in degrees]
    size = max(1, _STACK_CELLS // (nrows * ncols))
    ranks = []
    for lo in range(0, len(forms[0]), size):
        part = [g[lo:lo + size] for g in forms]
        # one matrix goes to the row loop, its rows in start order
        rows = _start_order(tuple(degrees)) if len(part[0]) == 1 else None
        # no name keeps a stack alive while the next one is filled
        ranks += _eliminate(_stack(part, shifts, ncols, rows), field).tolist()
    return [EmptinessVerdict(empty=(rank == ncols), rank=rank, degree=n_deg,
                             nrows=nrows, ncols=ncols) for rank in ranks]


def projective_empty(ts: TestSystem) -> EmptinessVerdict:
    """Decide whether the test system's zero set in P^n is empty over the closure."""
    _check_forms(ts.forms, ts.field, ts.nvars, ts.degrees)
    return _verdicts(_coeffs(ts), ts.degrees, ts.field)[0]


def _restrict(f: Poly, v: int) -> Poly:
    """f with X_v, X_{v+1}, ... set to 0, as a form in X_0..X_{v-1}."""
    return Poly(f.field, v, f.degree,
                {e[:v]: a for e, a in f.terms.items() if not any(e[v:])})


def coordinate_slice(ts: TestSystem, coords) -> TestSystem:
    """The test system restricted to {X_j = 0 : j in coords}.

    ``coords`` must be the trailing variables X_{nvars-c}..X_{nvars-1},
    and ``ts`` must end with their coordinate forms, as the recipes build
    it: those forms are dropped, and the others are restricted.
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
    forms = tuple(_restrict(f, nvars) for f in ts.forms[:-c])
    return TestSystem(ts.cert, ts.field, nvars, forms, ts.degrees[:-c])


def decide_coeffs(pattern: DegreePattern, field: Field, forms, certs) -> dict:
    """{cert: ``decide_many`` verdicts} for the certificates, for B systems
    of the pattern over the field given as one int64 (B, len(monomials(n+1,
    d_i))) coefficient array per form f_i; no Poly is built.  The sliced
    test systems are f and the recipe's m minors, all restricted to
    X_0..X_{v-1}, v = s + m.  Certificates with equal ``cert_recipe(cert,
    n, s)`` build the same test systems, so each distinct recipe is decided
    once and its certificates share one list of verdicts.  The caller
    checks the matrix shapes."""
    recipes = {cert: cert_recipe(cert, pattern.n, pattern.s) for cert in certs}
    decided = {}
    for cert, recipe in recipes.items():
        if recipe in decided:
            continue
        v = pattern.s + len(recipe[0])
        sliced = [f[:, restrict_index(pattern.n + 1, v, e)]
                  for f, e in zip(forms, pattern.d)]
        decided[recipe] = _verdicts(
            sliced + minor_arrays(forms, pattern, field, recipe[0], v),
            recipe_degrees(pattern, cert)[:v], field)
    return {cert: decided[recipe] for cert, recipe in recipes.items()}


def decide_certs(systems, certs) -> dict:
    """{cert: ``decide_many(systems, cert)``} for the certificates: the
    systems are converted to one coefficient array per form once, and each
    distinct recipe is decided once (``decide_coeffs``); a matrix of any of
    them over DEFAULT_MAX_CELLS cells raises TooLarge before any work."""
    systems, certs = list(systems), tuple(certs)
    if not systems:
        return {cert: [] for cert in certs}
    pat, field = systems[0].pattern, systems[0].field
    for cert in certs:
        check_shape(recipe_macaulay_shape(pat.n, pat.s, pat.d, cert))
    if any(s.pattern != pat or s.field != field for s in systems):
        raise PatternViolation("the systems need one pattern and field")
    forms = [coeff_array([x.forms[i] for x in systems], pat.n + 1, e)
             for i, e in enumerate(pat.d)]
    return decide_coeffs(pat, field, forms, certs)


def decide_many(systems, cert: str) -> list:
    """``[decide(system, cert) for system in systems]`` for systems of one
    pattern and field, converted to one coefficient array per form and
    decided in stacks (``decide_certs``); a matrix over DEFAULT_MAX_CELLS
    cells raises TooLarge before any work."""
    return decide_certs(systems, (cert,))[cert]


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
