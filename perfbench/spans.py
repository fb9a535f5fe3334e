"""Spans around calls into the program's layers, recorded from outside it.

A traced run replaces public functions of the program with timing wrappers,
set as module attributes. The program's modules import functions by name, so
each wrapper is set on the module that looks the name up when it calls
(`contextgraph.search.neighborhood_similarity`, not only
`contextgraph.index.neighborhood_similarity`).

A span records its name, start, end, parent span and op. Functions called
thousands of times per op are folded into one record per parent span, with a
call count and summed busy time, so the trace stays small. `edge_similarity`
runs about 10^5 times per run and is only counted: even one clock read per
call would show in the op's time. Spans stay in memory until written out at
the end of the run.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import contextgraph.exemplar as cg_exemplar
import contextgraph.graph as cg_graph
import contextgraph.index as cg_index
import contextgraph.search as cg_search

SPAN, FOLD, COUNT = "span", "fold", "count"

# (module, attribute the program looks up, span name, how it is recorded)
TARGETS = (
    (cg_graph, "load_graph", "graph.load", SPAN),
    (cg_index, "build_index", "index.build", SPAN),
    (cg_index, "estimate_null_model", "context.null_model", SPAN),
    (cg_index, "association_vectors", "similarity.assoc", SPAN),
    (cg_index, "neighborhood_summary", "index.summary", FOLD),
    (cg_index, "construct_tree", "index.tree", SPAN),
    (cg_index, "save_index", "index.save", SPAN),
    (cg_index, "load_index", "index.load", SPAN),
    (cg_search, "weight_vector", "context.weights", SPAN),
    (cg_search, "neighborhood_summary", "index.query_summary", FOLD),
    (cg_search, "mbr_similarity", "index.mbr", FOLD),
    (cg_search, "neighborhood_similarity", "index.nsim", FOLD),
    (cg_search, "edge_similarity", "similarity.edge_sim", COUNT),
    (cg_exemplar, "hybrid_context", "exemplar.context", SPAN),
    (cg_exemplar, "exemplar_weights", "exemplar.context", SPAN),
    (cg_exemplar, "weight_vector", "context.weights", SPAN),
    (cg_exemplar, "mbr_similarity", "index.mbr", FOLD),
    (cg_exemplar, "edge_similarity", "similarity.edge_sim", COUNT),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "calls", "busy")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.calls = 0
        self.busy = 0.0


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = [None]
        self._folded = {}

    def call(self, op, name, fn, *args):
        """Run fn as the root span of op."""
        self.op = op
        self._stack = [None]  # an op stopped by the fuse may leave spans open
        try:
            return self._span(name, fn, args, {})
        finally:
            self.op = None

    def _span(self, name, fn, args, kwargs):
        rec = Span(name, 0.0, self._stack[-1], self.op)
        rec.calls = 1
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end = perf_counter()
            rec.busy = rec.end - rec.start
            self._stack.pop()

    def _fold(self, name):
        key = (self._stack[-1], name)
        rec = self._folded.get(key)
        if rec is None:
            rec = Span(name, perf_counter(), key[0], self.op)
            self._folded[key] = rec
            self.spans.append(rec)
        return rec

    def _wrap(self, name, how, fn):
        if how == SPAN:
            def spanned(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
            return spanned
        if how == COUNT:
            def counted(*args, **kwargs):
                self._fold(name).calls += 1
                return fn(*args, **kwargs)
            return counted

        def folded(*args, **kwargs):
            rec = self._fold(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                rec.calls += 1
                rec.busy += rec.end - t0
        return folded

    @contextmanager
    def installed(self):
        """Wrap the program's functions for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, how), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self._wrap(name, how, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def figures(self):
        """Per op: {span name: [calls, busy]} plus 'op.self'.

        A span nested in a span of its own name is skipped, so a layer's time
        is counted once. 'op.self' is the root spans' time minus the time of
        their direct children: what the op spent outside the traced layers.
        """
        figs = {}
        roots = set()
        for sid, s in enumerate(self.spans):
            if s.op is None:
                continue
            f = figs.setdefault(s.op, {"op.self": [0, 0.0]})
            if s.parent is None:
                roots.add(sid)
                f["op.self"][1] += s.busy
                continue
            if s.parent in roots:
                f["op.self"][1] -= s.busy
            if self.spans[s.parent].name == s.name:
                continue
            c = f.setdefault(s.name, [0, 0.0])
            c[0] += s.calls
            c[1] += s.busy
        return figs

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "op": None if s.op is None else str(s.op),
                                     "calls": s.calls, "busy": s.busy}) + "\n")


PRUNE_KINDS = ("query-edge", "tree-node", "leaf-remainder", "seed", "growth",
               "growth-queue")


def audit_counts(audit):
    """Counts of one op from the program's SearchAudit.

    Includes "unsound": prunes whose bound beat the answer threshold at the
    time, which an exact search never makes.
    """
    counts = {"search.expanded": audit.expanded, "search.offers": audit.offers,
              "unsound": 0}
    for kind in PRUNE_KINDS:
        counts["search.prunes." + kind] = 0
    for kind, bound, least in audit.prunes:
        counts["search.prunes." + kind] += 1
        counts["unsound"] += bound > least
    return counts


def op_counts(fig, audited):
    """The counts of one op that must repeat exactly between traced runs."""
    counts = dict(audited)
    counts["similarity.edge_sim_calls"] = fig.get("similarity.edge_sim", [0])[0]
    counts["index.mbr_calls"] = fig.get("index.mbr", [0])[0]
    counts["index.nsim_calls"] = fig.get("index.nsim", [0])[0]
    return counts
