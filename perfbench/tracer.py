"""Spans around the program's public functions, recorded from outside.

The program's source is not edited.  ``Tracer.install`` replaces each
target function on its defining module or class, and also wherever another
``novikov.*`` module bound it by ``from .x import y``.  Every call then
records a span (name, start, end, parent span, query id) and, for a few
targets, a count taken at that boundary.  Spans stay in memory until the
run writes them out.  Polynomial arithmetic is not wrapped: it runs
millions of times per query.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _snf_counts(args, result):
    m = args[0]
    nonzero = sum(1 for row in m.entries for e in row if not e.is_zero())
    return {"cells": m.rows * m.cols, "nonzero": nonzero}


def _rank_int_counts(args, result):
    rows, ncols = args[0], args[1]
    return {"cells": len(rows) * ncols}


def _span_add_counts(args, result):
    return {"accepted": int(bool(result))}


# (module, attribute path, count function)
TARGETS = [
    ("cli", "main", None),
    ("corpus", "space_from_json", None),
    ("corpus", "mv_oracle_dims", None),
    ("invariants", "jump_locus", None),
    ("invariants", "cup_length", None),
    ("twisted", "TwistedComplex.__init__", None),
    ("twisted", "DeformationComplex.__init__", None),
    ("twisted", "DeformationComplex.dim_at", None),
    ("twisted", "cocycle_space_basis", None),
    ("twisted", "coboundary_image_vectors", None),
    ("complexes", "twisted_coboundary_values", None),
    ("complexes", "twisted_cup", None),
    ("matrix", "snf", _snf_counts),
    ("matrix", "rank_at", None),
    ("polyq", "squarefree_factors", None),
    ("polyq", "coprime_basis", None),
    ("linalg", "rank_rational", None),
    ("linalg", "rank_generic", None),
    ("linalg", "nullspace", None),
    ("linalg", "express", None),
    ("linalg", "Span.add", _span_add_counts),
    ("kernels", "rank_int", _rank_int_counts),
    ("numfield", "is_dirichlet_unit", None),
]

# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = [
    ("matrix.snf.calls", "count", "lower"),
    ("matrix.snf.s", "s", "lower"),
    ("matrix.snf.cells", "count", "lower"),
    ("matrix.snf.nonzero_share", "ratio", "higher"),
    ("twisted.TwistedComplex.s", "s", "lower"),
    ("polyq.squarefree_factors.s", "s", "lower"),
    ("polyq.coprime_basis.s", "s", "lower"),
    ("complexes.twisted_coboundary_values.calls", "count", "lower"),
    ("complexes.twisted_coboundary_values.s", "s", "lower"),
    ("linalg.rank_rational.s", "s", "lower"),
    ("kernels.rank_int.calls", "count", "lower"),
    ("kernels.rank_int.s", "s", "lower"),
    ("kernels.rank_int.cells", "count", "lower"),
    ("linalg.rank_generic.s", "s", "lower"),
    ("matrix.rank_at.s", "s", "lower"),
    ("twisted.DeformationComplex.s", "s", "lower"),
    ("twisted.DeformationComplex.dim_at.s", "s", "lower"),
    ("corpus.mv_oracle_dims.s", "s", "lower"),
    ("linalg.Span.add.calls", "count", "lower"),
    ("linalg.Span.add.s", "s", "lower"),
    ("linalg.Span.add.accept_ratio", "ratio", "higher"),
    ("complexes.twisted_cup.calls", "count", "lower"),
    ("complexes.twisted_cup.s", "s", "lower"),
    ("twisted.cocycle_space_basis.s", "s", "lower"),
    ("twisted.coboundary_image_vectors.s", "s", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.express.s", "s", "lower"),
    ("invariants.cup_length.calls", "count", "lower"),
    ("invariants.cup_length.self_s", "s", "lower"),
    ("invariants.jump_locus.calls", "count", "lower"),
    ("numfield.is_dirichlet_unit.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("corpus.space_from_json.s", "s", "lower"),
    ("run_s.untraced", "s", "lower"),
    ("run_s.traced", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def span_name(module, path):
    """'twisted.TwistedComplex' for a constructor, else module.path."""
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    """In-memory span recorder.  A span is the list
    [name, start, end, parent index or -1, query id, counts or None]."""

    def __init__(self):
        self.spans = []
        self.qid = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules):
        """Wrap every target; ``modules`` maps short names to the loaded
        ``novikov`` modules."""
        loaded = [m for k, m in sys.modules.items()
                  if k == "novikov" or k.startswith("novikov.")]
        for mod_name, path, count in TARGETS:
            owner = modules[mod_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr]
            wrapped = self.wrap(span_name(mod_name, path), orig, count)
            self._replace(owner, attr, orig, wrapped)
            if not classes:
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._replace(m, key, orig, wrapped)

    def _replace(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index\tparent\tquery\tname\tstart\tend\tcounts\n")
            for i, (name, start, end, parent, qid, counts) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{qid}\t{name}\t{start:.9f}\t"
                         f"{end:.9f}\t{counts or ''}\n")


def aggregate(spans, lo=0, hi=None):
    """Per-name call count, total time, self time and summed counts of the
    spans ``spans[lo:hi]``, which must not have parents before ``lo``.

    Total time counts only spans without an ancestor of the same name, so
    a function re-entered through another one is not counted twice.  Self
    time is a span's duration minus the time its child spans cover.
    """
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * (hi - lo)
    for name, start, end, parent, _q, _c in spans[lo:hi]:
        if parent >= 0:
            child_time[parent - lo] += end - start
    stats = {}
    for i in range(lo, hi):
        name, start, end, parent, _q, counts = spans[i]
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += end - start - child_time[i - lo]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
        for key, value in (counts or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def per_layer_metrics(stats):
    """Values of every PER_LAYER metric that comes from spans."""
    out = {}
    for metric, _unit, _better in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if layer in ("run_s", "trace"):
            continue
        st = stats.get(layer, {})
        if field == "nonzero_share":
            value = st.get("nonzero", 0) / st["cells"] if st.get("cells") else 0.0
        elif field == "accept_ratio":
            value = st.get("accepted", 0) / st["calls"] if st.get("calls") else 0.0
        else:
            value = st.get(field, 0)
        out[metric] = value
    return out


def per_query_calls(spans, names):
    """{query id: {name: calls}} for the given span names."""
    out = {}
    for name, _s, _e, _p, qid, _c in spans:
        if name in names:
            row = out.setdefault(qid, dict.fromkeys(names, 0))
            row[name] += 1
    return out
