"""Spans around the public calls of each layer, recorded from outside.

The tracer replaces public functions of ``cicensus.field``, ``poly``,
``macaulay``, ``census`` and ``cli`` with wrappers that record one span
(name, start, end, parent, info) per call, in every module namespace
that holds a reference to them, and puts the originals back on
``uninstall``.  The program itself is not edited.  ``Field.mul`` is not
wrapped: it runs millions of times per round, so the lazy product table
it builds falls into the span of whichever call multiplies first.
``chow``, ``bounds`` and ``errors`` are not traced: the first two are
closed forms that take well under 1% of any run and the last does no
work.
"""

from __future__ import annotations

import importlib
import json
import time

MODULES = ("cicensus", "cicensus.field", "cicensus.poly", "cicensus.macaulay",
           "cicensus.census", "cicensus.cli")


def _decision_info(args, kwargs, result):
    return (result.nrows, result.ncols, result.rank)


def _search_info(args, kwargs, result):
    """Points scanned, taken as every point up to the searched depth."""
    ts = args[0]
    n, q = ts.nvars - 1, ts.field.q
    return sum((q ** (m * (n + 1)) - 1) // (q ** m - 1)
               for m in range(1, result.searched_up_to + 1))


# (module, attribute, span name, info function)
TARGETS = (
    ("cicensus.field", "Field.__init__", "field.build", None),
    ("cicensus.field", "Field.extension", "field.extension", None),
    ("cicensus.poly", "build_test_system", "poly.test_system", None),
    ("cicensus.poly", "jacobian_minor", "poly.minor", None),
    ("cicensus.macaulay", "certify", "macaulay.certify", None),
    ("cicensus.macaulay", "projective_empty", "macaulay.decision",
     _decision_info),
    ("cicensus.macaulay", "macaulay_instance", "macaulay.matrix_build", None),
    ("cicensus.macaulay", "rank_over_field", "macaulay.elim", None),
    ("cicensus.census", "sample_system", "census.sample", None),
    ("cicensus.census", "brute_force_empty", "census.point_search",
     _search_info),
    ("cicensus.census", "run_census", "census.run", None),
    ("cicensus.census", "oracle_check", "census.oracle", None),
    ("cicensus.cli", "main", "cli.main", None),
)

PER_LAYER = (
    ("field.fields_built", "count"), ("field.build_s", "s"),
    ("poly.test_systems", "count"), ("poly.minors", "count"),
    ("poly.test_system_s", "s"),
    ("census.samples", "count"), ("census.sample_s", "s"),
    ("census.point_searches", "count"), ("census.point_search_s", "s"),
    ("census.points_searched", "count"), ("census.self_s", "s"),
    ("macaulay.decisions", "count"), ("macaulay.short_circuits", "count"),
    ("macaulay.deficit_sum", "count"), ("macaulay.matrix_build_s", "s"),
    ("macaulay.elim_s", "s"), ("macaulay.matrix_cells", "count"),
    ("macaulay.max_rows", "count"), ("macaulay.max_cols", "count"),
    ("macaulay.max_matrix_mb", "MB"), ("macaulay.elim_ops", "count"),
    ("macaulay.elim_ops_per_s", "1/s"), ("cli.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = (info(args, kwargs, result)
                         if info and result is not None else None)
                spans[idx] = (name, t0, t1, parent, extra)

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for modname, attr, name, info in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, info))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def take(self):
        """Return the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_totals(spans) -> dict:
    """Per-layer counts and times for one traced round."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {name: 0 for name, _ in PER_LAYER if name != "trace.overhead_pct"}
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        dur = t1 - t0
        if name in ("field.build", "field.extension"):
            out["field.fields_built"] += name == "field.build"
            if parent < 0 or not spans[parent][0].startswith("field."):
                out["field.build_s"] += dur
        elif name == "poly.test_system":
            out["poly.test_systems"] += 1
            out["poly.test_system_s"] += dur
        elif name == "poly.minor":
            out["poly.minors"] += 1
        elif name == "census.sample":
            out["census.samples"] += 1
            out["census.sample_s"] += dur
        elif name == "census.point_search":
            out["census.point_searches"] += 1
            out["census.point_search_s"] += dur
            out["census.points_searched"] += extra or 0
        elif name in ("census.run", "census.oracle"):
            out["census.self_s"] += dur - child[i]
        elif name == "macaulay.decision":
            out["macaulay.decisions"] += 1
            if extra is None:
                continue
            nrows, ncols, rank = extra
            out["macaulay.deficit_sum"] += ncols - rank
            if nrows == 0:
                out["macaulay.short_circuits"] += 1
                continue
            out["macaulay.matrix_cells"] += nrows * ncols
            out["macaulay.max_rows"] = max(out["macaulay.max_rows"], nrows)
            out["macaulay.max_cols"] = max(out["macaulay.max_cols"], ncols)
            out["macaulay.max_matrix_mb"] = max(
                out["macaulay.max_matrix_mb"], nrows * ncols * 8 / 2 ** 20)
            # pivot r updates at most the nrows - r - 1 rows below it
            out["macaulay.elim_ops"] += ncols * (
                rank * nrows - rank * (rank + 1) // 2)
        elif name == "macaulay.matrix_build":
            out["macaulay.matrix_build_s"] += dur
        elif name == "macaulay.elim":
            out["macaulay.elim_s"] += dur
        elif name == "cli.main":
            out["cli.self_s"] += dur - child[i]
    return out


def average_rounds(rounds) -> dict:
    """Mean per round of each total; the max_* figures take the maximum."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if ".max_" in key:
            out[key] = max(values)
        else:
            out[key] = sum(values) / len(values)
    elim_s = out["macaulay.elim_s"]
    out["macaulay.elim_ops_per_s"] = (out["macaulay.elim_ops"] / elim_s
                                      if elim_s else 0.0)
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        for name, t0, t1, parent, extra in spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                 "parent": parent, "info": extra}) + "\n")
