"""Check that a certificate pass implies the property it states, for
every plane cubic over F_3, every conic over F_5, every plane quartic
over F_2 and every space curve of pattern (3, 2, (2, 1)), a quadric and
a plane, over F_3.

    python3 tools/audit.py

Each system of ``enumerate_systems(n, s, d, q)`` is decided with
``decide_certs``, 20,000 systems at a time, each distinct recipe once:
the plane curves are curve patterns (n - s = 1), so ``nons`` and ``irr``
share one elimination and one verdict per system.  Each pass is then
checked against the property ``cicensus test`` prints for it, by point
search and factor search alone:

- ``nons`` on a plane curve of degree d: no common zero of f and its
  partials in P^2(F_{q^m}) for m <= max(d, d(d-1)/2).  A reduced plane
  curve of degree d has at most d(d-1)/2 singular points, so each Galois
  orbit of them has at most that many, and a repeated factor is defined
  over F_q and has degree at most d/2, so it has a point over F_{q^d}:
  a singular point, if any, lies in such an extension.
- ``nons`` on a space curve: no point of Z(f_1, f_2) in P^3(F_{q^m}),
  m <= 2, at which all six 2x2 minors of the Jacobian vanish.
- ``ci``: f is squarefree, which for d <= 3 holds iff f has at most 3
  singular points in P^2(F_{q^2}); a double line has q^2 + 1 >= 10.
- ``irr``: ``brute_force_absirr(f)`` for d <= 3.  For the quartics,
  over its cap, the ``nons`` check: a nonsingular plane curve is
  absolutely irreducible, since two components would meet in a singular
  point (Bezout).

One line per family gives the systems, the passes of each certificate
and the passes whose property fails (``unsound``), which must be 0; the
exit status is 1 if any is not.  The package is imported from the
``src`` beside this script.  The cubics over F_3 pass 13,122 ``ci``,
11,664 ``nons`` and 11,664 ``irr`` (45 s); the 32,767 quartics over F_2
pass 6,240 ``nons`` and 6,240 ``irr`` (16 s, 21 s when each certificate
was eliminated on its own); the 1,180,960 space curves pass 354,294
``nons`` and take 175 s of a 240 s run (one core of a 2-core host, the
other busy, Python 3.11, numpy 2.4).  ``tests/test_one_rule.py`` runs
the same audit on the smaller families (cubics over F_2, conics over
F_2, F_3 and F_4, space curves over F_2) in Tier-1.
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cicensus import brute_force_absirr, enumerate_systems  # noqa: E402
from cicensus.census import _common_zeros, _point_blocks  # noqa: E402
from cicensus.macaulay import decide_certs  # noqa: E402

# (n, s, d, q, certs) of the families audited
FAMILIES = ((2, 1, (3,), 3, ("ci", "nons", "irr")),
            (2, 1, (2,), 5, ("ci", "nons", "irr")),
            (2, 1, (4,), 2, ("nons", "irr")),
            (3, 2, (2, 1), 3, ("nons",)))
CHUNK = 20_000  # systems decided at a time


def singular_forms(forms) -> list:
    """The forms, one or two, and every s x s minor of their Jacobian:
    their common zeros are the singular points of Z(forms)."""
    jac = [[h.partial(j) for j in range(h.nvars)] for h in forms]
    if len(forms) == 1:
        return list(forms) + jac[0]
    df, dg = jac
    return list(forms) + [df[i] * dg[j] - df[j] * dg[i] for i, j in
                          itertools.combinations(range(len(df)), 2)]


def zeros(forms, m: int) -> int:
    """Common zeros of the forms in P^n(F_{q^m})."""
    ext, emb = forms[0].field.extension(m)
    return sum(len(_common_zeros(forms, ext, emb, pts))
               for pts in _point_blocks(ext, forms[0].nvars - 1))


def holds(cert: str, forms) -> bool:
    """Whether the system's forms have the property a pass of cert states."""
    d = forms[0].degree
    if cert == "ci":
        return zeros(singular_forms(forms), 2) <= 3
    if cert == "irr" and d <= 3:
        return brute_force_absirr(forms[0])
    # nons, or irr of a plane curve of degree >= 4: it is nonsingular
    depth = max(d, d * (d - 1) // 2) if len(forms) == 1 else 2
    sing = singular_forms(forms)
    return all(zeros(sing, m) == 0 for m in range(1, depth + 1))


def audit(n: int, s: int, d, q: int, certs):
    """(systems, passes per cert, unsound passes per cert)."""
    systems = enumerate_systems(n, s, d, q, cap=None)
    passes, unsound = dict.fromkeys(certs, 0), dict.fromkeys(certs, 0)
    total = 0
    while chunk := list(itertools.islice(systems, CHUNK)):
        total += len(chunk)
        decided = decide_certs(chunk, certs)
        for cert in certs:
            passed = [x.forms for x, v in zip(chunk, decided[cert]) if v.empty]
            passes[cert] += len(passed)
            unsound[cert] += sum(not holds(cert, f) for f in passed)
    return total, passes, unsound


def main() -> int:
    bad = 0
    for n, s, d, q, certs in FAMILIES:
        t0 = time.monotonic()
        total, passes, unsound = audit(n, s, d, q, certs)
        bad += sum(unsound.values())
        print(f"{(n, s, d)} over F_{q}: {total} systems; passes "
              + ", ".join(f"{c} {passes[c]}" for c in certs) + "; unsound "
              + ", ".join(f"{c} {unsound[c]}" for c in certs)
              + f"; {time.monotonic() - t0:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
