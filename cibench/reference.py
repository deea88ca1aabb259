"""Recompute the stored verdicts of certify-large's committed systems.

    python3 cibench/reference.py

Each system is parsed and its certificate's test system built with the
program's poly layer; the Macaulay matrix is then built and its column
rank decided by this directory's own code (``checks.decide_empty``),
never by the program's macaulay module.  The result is compared with
``expected.json``.  Takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cicensus.poly import build_test_system, parse_system_file  # noqa: E402

import workloads  # noqa: E402
from checks import GF, decide_empty  # noqa: E402


def decide(text: str, cert: str) -> dict:
    system = parse_system_file(text)
    ts = build_test_system(system, cert)
    empty, shape, rank = decide_empty([f.terms for f in ts.forms], ts.degrees,
                                      ts.nvars, GF(system.field.p))
    return {"verdict": "pass" if empty else "fail",
            "shape": list(shape) if shape else None, "rank": rank}


def main():
    stored = json.loads(workloads.EXPECTED.read_text())
    fresh = {}
    for label, _, _, cert in workloads.FIXED_SYSTEMS:
        text = (workloads.SYSTEMS / f"{label}.sys").read_text()
        fresh[label] = {"cert": cert, "sha256": workloads.sha256(text),
                        **decide(text, cert)}
        print(label, fresh[label], flush=True)
    if fresh != stored:
        print("stored verdicts differ from the recomputed ones",
              file=sys.stderr)
        return 1
    print("stored verdicts confirmed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
