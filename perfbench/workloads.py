"""The benchmark's workloads: a fixed query corpus each, the ops that send it to
the program, the per-op fuse, and the checks on every answer.

Every workload runs on `synth.spatial_graph()` (1434 nodes, 15069 edges, 16
identical replicas of one patch) with the default `build_index` parameters.

The corpus of a workload is drawn once by `synth.grow_query` from a fixed rng
(CORPUS_SEED), not from the run's `--seed`. Query cost on this graph spans two
orders of magnitude, so a corpus drawn per seed moves the median of a run by
15-25 % from seed to seed; with one corpus every run answers the same queries.
`--seed` sets the order in which the queries are sent.

Each op is sent PASSES times, in a fresh order each pass, and its latency is
the least of those sends: on a shared machine other work only ever adds
time. perfbench/README.md gives the spreads this was chosen on."""

import hashlib
import json
import signal
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import contextgraph.context as cg_context
import contextgraph.exemplar as cg_exemplar
import contextgraph.search as cg_search
from contextgraph.graph import Graph
from contextgraph.similarity import Mapping, contextual_graph_similarity
from contextgraph.synth import grow_query

CORPUS_SEED = 0
K = 10

# Every op gets the same wall-clock limit, a guard against runaway ops and
# not a latency gate: slow ops are measured, in the tail metrics. The rule:
# the limit is fixed in seconds, not derived from the program's own speed, so
# a slower program gets no looser limit, and it is more than twice the
# slowest op of either corpus at the commit that defined the benchmark (the
# intent op of c10-range-intent query 14, 6-7.5 s), so the noise of a shared
# machine never flips an op between pass and fail. A limit near the slow ops
# (2 s) made the failure count differ between identical runs.
OP_LIMIT_S = 20.0

PASSES = 3

# (op kinds sent per query, query sizes cycled over the corpus, corpus size).
# Each corpus was sized so that PASSES passes took about 35 s at the commit
# that defined the benchmark, with a 2 s fuse; measured to their end, the
# slow ops of c10-range-intent stretch its passes to about 55 s. The first
# PASSES passes always run to their end; later passes fill the rest of the
# run.
WORKLOADS = {
    "c10-topk": (("topk",), (2, 3, 4, 6, 7, 8), 108),
    "c10-range-intent": (("range", "intent"), (3, 4, 5), 15),
}

DIGESTS_PATH = Path(__file__).resolve().parent / "range_digests.json"


@dataclass
class Query:
    """One corpus query with what its checks need."""

    idx: int
    q: Graph
    origin: Mapping      # the embedding the query was grown from
    r: float             # range threshold: m_q - 0.01
    es: object = None    # exemplar set for intent ops


def make_corpus(workload, g):
    """The workload's queries, grown from the target graph g by grow_query."""
    kinds, sizes, n = WORKLOADS[workload]
    rng = np.random.default_rng(CORPUS_SEED)
    by_id = {nid: u for u, nid in enumerate(g.node_ids)}
    corpus = []
    for i in range(n):
        q = grow_query(g, sizes[i % len(sizes)], rng)
        nmap = {u: by_id[nid] for u, nid in enumerate(q.node_ids)}
        pairs = [(qe, g.edge_between(nmap[a], nmap[b]))
                 for qe, (a, b) in enumerate(q.edges)]
        es = None
        if "intent" in kinds:
            # second exemplar: the query with one numeric feature shifted by +1
            f = int(rng.integers(4))
            feats = [tuple(v + 1.0 if j == f else v for j, v in enumerate(row))
                     for row in q.node_features]
            q2 = Graph(q.directed, q.schema, feats, q.edges, q.node_ids)
            es = cg_exemplar.ExemplarSet([q, q2], [{u: u for u in range(q.n_nodes)}])
        corpus.append(Query(i, q, Mapping(nmap, pairs), q.n_edges - 0.01, es))
    return corpus


def ops_of(workload, corpus, order):
    """The (query, kind) ops of one pass over the corpus in the given order."""
    kinds = WORKLOADS[workload][0]
    return [(corpus[i], kind) for i in order for kind in kinds]


def call(kind, query, index, audit=None):
    """Send one op to the program through its public functions."""
    if kind == "topk":
        return cg_search.topk_search(query.q, index, cg_search.SearchParams(k=K),
                                     audit=audit)
    if kind == "range":
        return cg_search.range_search(query.q, index, query.r, audit=audit)
    return cg_exemplar.intent_topk(query.es, index, cg_search.SearchParams(k=K),
                                   audit=audit)


class OpTimeout(Exception):
    """Raised inside an op that ran past the fuse."""


class Fuse:
    """A wall-clock limit per op from SIGALRM.

    The handler acts only while armed: the alarm can fire after the op has
    returned but before the timer is disarmed, and must not fail the op then.
    """

    def __init__(self, limit):
        self.limit = limit
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout(f"over the {self.limit} s limit")

    def attempt(self, fn):
        """Run fn under the limit: (seconds, result or None, error or None)."""
        t0 = perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                result = fn()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return perf_counter() - t0, None, "over-limit"
        except MemoryError:
            return perf_counter() - t0, None, "memory"
        except Exception as exc:  # noqa: BLE001 - the run goes on, the op failed
            return perf_counter() - t0, None, f"error: {exc!r}"
        return perf_counter() - t0, result, None


def load_digests():
    """Recorded range answer digests by corpus query."""
    if DIGESTS_PATH.is_file():
        return {int(k): v for k, v in json.loads(DIGESTS_PATH.read_text()).items()}
    return {}


def range_digest(matches):
    """Digest of the sorted signatures of a range answer."""
    sigs = sorted(m.mapping.signature() for m in matches)
    return hashlib.sha256(repr(sigs).encode()).hexdigest()[:16]


def _mapping_error(m, q, g):
    nmap = m.node_map
    if len(set(nmap.values())) != len(nmap):
        return "mapping is not injective"
    for qe, te in m.edge_pairs:
        a, b = q.edges[qe]
        if a not in nmap or b not in nmap or g.edge_between(nmap[a], nmap[b]) != te:
            return f"pair {(qe, te)} does not follow the node map"
    return None


def check(kind, query, index, matches, digests):
    """None when the answer is right, else what is wrong with it."""
    q, g = query.q, index.graph
    for m in matches:
        err = _mapping_error(m.mapping, q, g)
        if err:
            return err
    if kind == "intent":
        if len(matches) != K:
            return f"{len(matches)} answers, expected {K}"
        for m in matches:
            s = cg_exemplar.exemplar_similarity(m.mapping, query.es, g, index.null_model)
            if s != m.score:
                return f"score {m.score!r} recomputes as {s!r}"
        return None
    w = cg_context.weight_vector(q, index.null_model)
    for m in matches:
        s = contextual_graph_similarity(m.mapping, q, g, w)
        if s != m.score:
            return f"score {m.score!r} recomputes as {s!r}"
    if kind == "topk":
        # the 16 replicas hold at least K embeddings as good as the origin's
        best = contextual_graph_similarity(query.origin, q, g, w)
        if len(matches) != K:
            return f"{len(matches)} answers, expected {K}"
        for m in matches:
            if m.score != best:
                return f"score {m.score!r} differs from the origin's {best!r}"
        return None
    if len(matches) < 16:
        return f"{len(matches)} range answers, expected at least 16"
    for m in matches:
        if m.score < query.r:
            return f"range answer scores {m.score!r} < r = {query.r!r}"
    want = digests.get(query.idx)
    if want is not None and range_digest(matches) != want:
        return f"range answer digest {range_digest(matches)} != recorded {want}"
    return None
