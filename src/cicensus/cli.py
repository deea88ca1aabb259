"""Command-line surface: bound reports, single-system certification,
censuses, pattern landscapes, class-expansion verification, and the
oracle cross-check.

Exit codes: 0 on success with all asserted verdicts consistent, 2 when a
verdict is violated (bound broken, dominance failed, class/closed-form
mismatch, oracle disagreement), 1 on usage or IO errors.  All numeric
output carries the exact rational alongside a decimal approximation; the
exact form is authoritative.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bounds import (bounds_report, degree_bounds, pattern_landscape,
                     pattern_stats, recipe_macaulay_degree,
                     recipe_macaulay_shape)
from .census import (DEFAULT_EXHAUSTIVE_CAP, DEFAULT_POINT_CAP, oracle_check,
                     run_census)
from .chow import chow_class, extract_bound, top_coefficient
from .errors import CicensusError
from .field import field_from_order, parse_field_spec
from .macaulay import DEFAULT_MAX_CELLS, decide_certs
from .poly import CERTS, cert_recipe, parse_system_file, recipe_degrees

OUTDIR_ENV = "CICENSUS_OUTDIR"


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _emit_json(payload: dict, out: str | None):
    # p_D can pass Python's cap on digits in an int-to-str conversion; lift
    # the cap for this dump only, so that parsing input keeps its guard
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(cap)
    print(text)
    out = _resolve_out(out)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _emit_csv(rows, path: str | None):
    path = _resolve_out(path)
    if not path:
        return
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _frac_pair(fr: Fraction, prefix: str) -> dict:
    return {prefix: str(fr), f"{prefix}_approx": float(fr)}


def _parse_d(text: str):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise CicensusError(f"cannot parse degree list {text!r}") from None


def _parse_certs(text: str):
    if text == "all":
        return CERTS
    certs = tuple(t.strip() for t in text.split(","))
    for c in certs:
        if c not in CERTS:
            raise CicensusError(f"unknown certificate {c!r}; choose from "
                                f"{', '.join(CERTS)} or 'all'")
    return certs


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_bounds(args) -> int:
    if args.q is not None:
        field_from_order(args.q)  # refuses a q that is no field's order
    rep = bounds_report(args.n, args.s, _parse_d(args.d), args.q)
    st = rep.stats
    payload = {
        "pattern": {"n": st.n, "s": st.s, "d": list(st.d), "delta": st.delta,
                    "sigma": st.sigma, "D": list(st.big_d),
                    "D_total": st.big_d_total},
        "degree_bounds": {
            cert: _degree_entry(st, cert, db)
            for cert, db in rep.degree.items()},
    }
    if rep.q is not None:
        payload["q"] = rep.q
        payload["p_n"] = rep.p_n
        payload["p_D"] = rep.p_big_d
        prob = {}
        for cert, pb in rep.probability.items():
            entry = {"e_per_i": list(pb.e_per_i), "e_concise": pb.e_concise,
                     "guard": "met" if pb.guard_met else "unmet",
                     "guard_threshold": str(pb.guard_threshold)}
            entry.update(_frac_pair(pb.bound, "bound"))
            entry.update(_frac_pair(pb.product_bound, "product_bound"))
            prob[cert] = entry
        payload["probability"] = prob
    _emit_json(payload, args.out)
    return 0


def _degree_entry(st, cert, db) -> dict:
    """The certificate's degree bounds, and the Macaulay degree and shape
    of its sliced matrix, with whether that exceeds the cell cap that
    makes deciding it raise TooLarge."""
    rows, cols = recipe_macaulay_shape(st.n, st.s, st.d, cert)
    return {"per_i": list(db.per_i), "concise": db.concise,
            "macaulay_degree": recipe_macaulay_degree(st.n, st.s, st.d, cert),
            "macaulay_shape": [rows, cols],
            "exceeds_cap": rows * cols > DEFAULT_MAX_CELLS}


_GUARANTEES = {
    "stci": "Z(f) is a set-theoretic complete intersection of pure dimension "
            "{dim}; the forms are a regular sequence",
    "ci": "the ideal of the forms is radical; Z(f) is an ideal-theoretic "
          "complete intersection of dimension {dim} and degree {delta}",
    "nons": "Z(f) is a nonsingular complete intersection of dimension {dim} "
            "and degree {delta}",
    "irr": "Z(f) is an absolutely irreducible complete intersection of "
           "dimension {dim} and degree {delta}",
}


def _cmd_test(args) -> int:
    field = parse_field_spec(args.field)
    with open(args.system) as fh:
        system = parse_system_file(fh.read())
    if system.field != field:
        print(f"note: system file declares field "
              f"{system.field.spec_str()}, overriding --field {args.field}",
              file=sys.stderr)
    pat = system.pattern
    print(f"system: n={pat.n} s={pat.s} d={list(pat.d)} over "
          f"F_{system.field.spec_str()} (delta={pat.delta}, sigma={pat.sigma})")
    certs = _parse_certs(args.cert)
    decided = decide_certs([system], certs)  # each distinct recipe once
    for cert in certs:
        verdict = decided[cert][0]
        if verdict.empty:
            meaning = _GUARANTEES[cert].format(dim=pat.n - pat.s,
                                               delta=pat.delta)
            print(f"{cert}: pass: {meaning}")
        else:
            print(f"{cert}: fail: no conclusion (the certificate is a "
                  f"sufficient condition only)")
        print(f"      emptiness test at degree {verdict.degree} on the derived "
              f"degrees {list(recipe_degrees(pat, cert))}")
        print(f"      Macaulay matrix {verdict.nrows}x{verdict.ncols}: "
              f"rank {verdict.rank}, deficit {verdict.deficit}")
    return 0


def _run_config(args) -> dict:
    """Flag set of the invocation, embedded in every run record."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _cmd_census(args, mode: str) -> int:
    if mode == "monte_carlo":
        kwargs = dict(trials=args.trials, seed=args.seed, jobs=args.jobs)
    else:
        kwargs = dict(exhaustive_cap=args.cap)
    report = run_census(args.n, args.s, _parse_d(args.d), args.q, mode,
                        certs=_parse_certs(args.cert),
                        count_points=args.count_points,
                        keep_trials=args.keep_trials, **kwargs)
    payload = report.to_json_dict()
    payload["run_config"] = _run_config(args)
    _emit_json(payload, args.out)
    _emit_csv(report.csv_rows(), args.csv)
    return 2 if report.violated else 0


def _cmd_patterns(args) -> int:
    pl = pattern_landscape(args.b, args.n, args.s)
    entries = [{"pattern": list(e.pattern), "dimension": e.big_d_total,
                "margin": e.margin} for e in pl.entries]
    ok = pl.dominance_strict and pl.margin_ok
    payload = {"b": pl.b, "n": pl.n, "s": pl.s, "g": pl.g_b,
               "m_s_b": pl.m_s_b, "hypersurface": list(pl.hypersurface),
               "entries": entries,
               "dominance_strict": pl.dominance_strict,
               "margin_ok": pl.margin_ok,
               "best_rival_margin": pl.best_rival_margin,
               "verdict": "consistent" if ok else "violated"}
    _emit_json(payload, args.out)
    rows = [("pattern", "dimension", "margin")]
    rows += [(" ".join(str(x) for x in e.pattern), e.big_d_total, e.margin)
             for e in pl.entries]
    _emit_csv(rows, args.csv)
    return 0 if ok else 2


def _cmd_chow(args) -> int:
    d = _parse_d(args.d)
    st = pattern_stats(args.n, args.s, d)
    n, s = st.n, st.s
    payload = {"n": n, "s": s, "d": list(st.d)}
    all_match = True
    for cert in ("nons", "irr"):
        cls = chow_class(cert, n, s, d)
        per_i = []
        for i, closed in enumerate(degree_bounds(n, s, d, cert).per_i, start=1):
            coeff = extract_bound(cls, i)
            per_i.append({"i": i, "coefficient": coeff, "closed_form": closed,
                          "match": coeff == closed})
        top = top_coefficient(cls)
        top_closed = st.sigma ** len(cert_recipe(cert, n, s)[0]) * st.delta
        payload[cert] = {"per_i": per_i,
                         "top": {"coefficient": top, "closed_form": top_closed,
                                 "match": top == top_closed}}
        all_match &= all(e["match"] for e in per_i) and top == top_closed
    payload["all_match"] = all_match
    _emit_json(payload, args.out)
    return 0 if all_match else 2


def _cmd_oracle(args) -> int:
    report = oracle_check(args.trials, args.seed, point_cap=args.point_cap,
                          keep_records=args.keep_records)
    payload = report.to_json_dict()
    payload["run_config"] = _run_config(args)
    _emit_json(payload, args.out)
    return 0 if not report.disagreements else 2


# ---------------------------------------------------------------------------
# Parser


def _add_pattern_flags(p):
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--s", type=int, required=True, help="number of forms")
    p.add_argument("--d", required=True, help="degree pattern, e.g. 2,1")


def _add_output_flags(p, with_csv=False):
    p.add_argument("--out", help=f"write JSON here (relative paths resolve "
                                 f"against ${OUTDIR_ENV})")
    if with_csv:
        p.add_argument("--csv", help="also write the tabular summary as CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cicensus",
        description="Certificates and censuses for homogeneous polynomial "
                    "systems over finite fields")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form degree and probability bounds")
    _add_pattern_flags(p)
    p.add_argument("--q", type=int, help="field size (enables probability bounds)")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("test", help="certify one system from a file")
    p.add_argument("--field", required=True, help="field spec, e.g. 3 or 2^2")
    p.add_argument("--system", required=True, help="system file path")
    p.add_argument("--cert", default="all",
                   help="certificate(s): stci|ci|nons|irr|all or a comma list")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("sample", help="Monte Carlo certificate census")
    _add_pattern_flags(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", default=0)
    p.add_argument("--cert", default="all")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="parallel trial workers, at most the trial count and "
                        "the CPU count (aggregation is deterministic)")
    p.add_argument("--count-points", action="store_true",
                   help="also count rational points of each Z(f)")
    p.add_argument("--keep-trials", action="store_true",
                   help="embed per-trial records in the report")
    _add_output_flags(p, with_csv=True)
    p.set_defaults(func=lambda a: _cmd_census(a, "monte_carlo"))

    p = sub.add_parser("exhaustive", help="exact census over every system")
    _add_pattern_flags(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--cert", default="all")
    p.add_argument("--cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                   help="refuse enumerations larger than this")
    p.add_argument("--count-points", action="store_true")
    p.add_argument("--keep-trials", action="store_true")
    _add_output_flags(p, with_csv=True)
    p.set_defaults(func=lambda a: _cmd_census(a, "exhaustive"))

    p = sub.add_parser("patterns", help="degree patterns sharing one Bezout number")
    p.add_argument("--b", type=int, required=True, help="Bezout number")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_output_flags(p, with_csv=True)
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("chow", help="class expansions vs closed-form bounds")
    _add_pattern_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_chow)

    p = sub.add_parser("oracle-check",
                       help="emptiness gate vs brute-force point search")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", default=0)
    p.add_argument("--point-cap", type=int, default=DEFAULT_POINT_CAP)
    p.add_argument("--keep-records", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_oracle)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CicensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
