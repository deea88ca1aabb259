"""Check that a certificate pass implies the property it states, for
every plane cubic over F_3 and every conic over F_5.

    python3 tools/audit.py

Each system of ``enumerate_systems(2, 1, (d,), q)`` is decided with
``decide_many`` for ``ci``, ``nons`` and ``irr``; each pass is then
checked against the property ``cicensus test`` prints for it, by point
search and factor search alone:

- ``nons``: no common zero of f and its partials in P^2(F_{q^m}) for
  m <= d.  A reduced plane curve of degree d <= 3 has at most 3
  singular points and a repeated factor is a line over F_q, so a
  singular point, if any, lies in such an extension.
- ``ci``: f is squarefree, which for d <= 3 holds iff f has at most 3
  singular points in P^2(F_{q^2}); a double line has q^2 + 1 >= 10.
- ``irr``: ``brute_force_absirr(f)``.

One line per family gives the systems, the passes of each certificate
and the passes whose property fails (``unsound``), which must be 0; the
exit status is 1 if any is not.  The package is imported from the
``src`` beside this script.  The cubics over F_3 pass 13,122 ``ci``,
11,664 ``nons`` and 11,664 ``irr``.  ``tests/test_one_rule.py`` runs
the same audit on the smaller families (cubics over F_2, conics over
F_2, F_3 and F_4) in Tier-1.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cicensus import brute_force_absirr, enumerate_systems  # noqa: E402
from cicensus.census import _common_zeros, _point_blocks  # noqa: E402
from cicensus.macaulay import decide_many  # noqa: E402

# (degree, q) of the families of plane curves audited
FAMILIES = ((3, 3), (2, 5))
CERTS = ("ci", "nons", "irr")


def singular_points(f, m: int) -> int:
    """Common zeros of f and its partials in P^2(F_{q^m})."""
    ext, emb = f.field.extension(m)
    forms = [f] + [f.partial(j) for j in range(f.nvars)]
    return sum(len(_common_zeros(forms, ext, emb, pts))
               for pts in _point_blocks(ext, f.nvars - 1))


def holds(cert: str, f, d: int) -> bool:
    """Whether f has the property a pass of cert states."""
    if cert == "nons":
        return all(singular_points(f, m) == 0 for m in range(1, d + 1))
    if cert == "ci":
        return singular_points(f, 2) <= 3
    return brute_force_absirr(f)


def audit(d: int, q: int):
    """(systems, passes per cert, unsound passes per cert)."""
    systems = list(enumerate_systems(2, 1, (d,), q))
    passes, unsound = {}, {}
    for cert in CERTS:
        passed = [s.forms[0] for s, v in
                  zip(systems, decide_many(systems, cert)) if v.empty]
        passes[cert] = len(passed)
        unsound[cert] = sum(not holds(cert, f, d) for f in passed)
    return len(systems), passes, unsound


def main() -> int:
    bad = 0
    for d, q in FAMILIES:
        t0 = time.monotonic()
        total, passes, unsound = audit(d, q)
        bad += sum(unsound.values())
        print(f"degree {d} over F_{q}: {total} systems; passes "
              + ", ".join(f"{c} {passes[c]}" for c in CERTS) + "; unsound "
              + ", ".join(f"{c} {unsound[c]}" for c in CERTS)
              + f"; {time.monotonic() - t0:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
