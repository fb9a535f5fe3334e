"""Top-k and range retrieval of contextually similar connected subgraphs.

Two engines share one search universe: every connected mapping between query
and target that admits no further valid extension (a maximal common subgraph,
deduplicated by its sorted edge-pair signature).

enumerate_mcs / naive_topk grow a mapping from every (query edge, target
edge) seed and enumerate the universe exhaustively; they are the reference.

topk_search / range_search answer exactly the same question through the edge
index: query edges are taken in order of their similarity bound against the
tree root (phase 1), the tree is descended best-first with bound-checked
pruning (phase 2), and each leaf reached puts its entries, ordered by
neighborhood similarity, as seeds into one bound-ordered growth queue
(phase 3). A leaf entry whose pair value alone cannot beat the answer
threshold is dropped before it is ordered. Growth prunes a child in two
stages: first on a bound estimated from its parent's score and the pair it
adds, before the child is built or remembered, then on the bound of its
canonical score. Every discarded state is covered by an upper bound that
cannot beat the current answer threshold, so the returned score multiset
equals the naive one.
"""

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush, heapreplace
from itertools import count

import numpy as np

from .context import estimate_null_model, weight_vector
from .index import mbr_similarity, neighborhood_similarity, neighborhood_summary
from .similarity import (Mapping, ScoredMatch, association_vectors,
                         contextual_graph_similarity,
                         pair_similarity_table, traditional_graph_similarity,
                         traditional_node_similarity)
# not called here since pair values come from pair_similarity_table, but the
# benchmark's traced run (perfbench/spans.py) wraps and counts this name on
# this module, and fails if it is missing
from .similarity import edge_similarity  # noqa: F401


class SearchTimeout(Exception):
    """Raised when an enumeration exceeds its deadline."""


@dataclass
class SearchParams:
    k: int = 10
    scorer: str = "contextual"


class SearchAudit:
    """Optional log of prune decisions and threshold evolution.

    Every pruned state is recorded with its bound and the answer threshold at
    the time of the prune; bound <= threshold for each entry certifies that no
    prune could have removed a result that belongs in the answer set. A
    "seed" prune counts once per leaf entry dropped on its pair bound, and
    once per seed orientation dropped after it was scored.
    """

    def __init__(self):
        self.prunes = []
        self.least_trace = []
        self.expanded = 0
        self.offers = 0


def _check_compatible(q, g):
    if q.schema != g.schema:
        raise ValueError("query and target must share one feature schema")
    if q.directed != g.directed:
        raise ValueError("query and target must agree on directedness")


def _seed_orientations(q, g, qe, te):
    """Node assignments mapping query edge qe onto target edge te."""
    u, v = q.edges[qe]
    a, b = g.edges[te]
    if g.directed:
        return (((u, a), (v, b)),)
    return (((u, a), (v, b)), ((u, b), (v, a)))


def _extensions(q, g, nmap, pairs):
    """All single-pair extensions of a connected mapping.

    Returns sorted (query edge, target edge, new node assignments) triples.
    A query edge qualifies when at least one endpoint is mapped; the target
    edge must be unused, direction-consistent, and respect injectivity.
    """
    out = []
    used_te = {te for _, te in pairs}
    used_qe = {qe for qe, _ in pairs}
    mapped_targets = set(nmap.values())
    directed = g.directed
    for qe in range(q.n_edges):
        if qe in used_qe:
            continue
        u, v = q.edges[qe]
        mu = nmap.get(u)
        mv = nmap.get(v)
        if mu is None and mv is None:
            continue
        if mu is not None and mv is not None:
            te = g.edge_between(mu, mv)
            if te is not None and te not in used_te:
                out.append((qe, te, ()))
            continue
        if mu is not None:
            anchor_q, free_q, anchor_t = u, v, mu
        else:
            anchor_q, free_q, anchor_t = v, u, mv
        for te in g.incident[anchor_t]:
            if te in used_te:
                continue
            a, b = g.edges[te]
            if directed:
                if anchor_q == u:
                    if a != anchor_t:
                        continue
                    cand = b
                else:
                    if b != anchor_t:
                        continue
                    cand = a
            else:
                cand = b if a == anchor_t else a
            if cand in mapped_targets:
                continue
            out.append((qe, te, ((free_q, cand),)))
    out.sort()
    return out


def enumerate_mcs(q, g, deadline=None):
    """Every maximal connected mapping, deduplicated by signature.

    Exhaustive depth-first growth from all compatible seeds with global
    state deduplication. Raises SearchTimeout past the optional monotonic
    deadline. Results come back in signature order.
    """
    _check_compatible(q, g)
    found = {}
    visited = set()
    stack = []
    for qe in range(q.n_edges):
        for te in range(g.n_edges):
            for ori in _seed_orientations(q, g, qe, te):
                stack.append((dict(ori), frozenset(((qe, te),)), ((qe, te),)))
    ticks = 0
    while stack:
        ticks += 1
        if deadline is not None and ticks % 1024 == 1 and time.monotonic() > deadline:
            raise SearchTimeout("enumeration exceeded its deadline")
        nmap, pairs, sig = stack.pop()
        exts = _extensions(q, g, nmap, pairs)
        if not exts:
            if sig not in found:
                found[sig] = Mapping(nmap, pairs)
            continue
        for qe2, te2, new in exts:
            if new:
                nm2 = dict(nmap)
                nm2.update(new)
            else:
                nm2 = nmap
            pairs2 = pairs | {(qe2, te2)}
            sig2 = tuple(sorted(pairs2))
            key = (tuple(sorted(nm2.items())), sig2)
            if key in visited:
                continue
            visited.add(key)
            stack.append((nm2, pairs2, sig2))
    return [found[sig] for sig in sorted(found)]


def _rank_all(q, g, scorer, weights, null_model, bins, deadline):
    maps = enumerate_mcs(q, g, deadline)
    if scorer == "contextual":
        if weights is None:
            if null_model is None:
                null_model = estimate_null_model(g, bins=bins)
            weights = weight_vector(q, null_model)
        score = lambda m: contextual_graph_similarity(m, q, g, weights)
    elif scorer == "traditional":
        score = lambda m: traditional_graph_similarity(m, q, g)
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    ranked = sorted(((score(m), m) for m in maps),
                    key=lambda t: (-t[0], t[1].signature()))
    return ranked


def naive_topk(q, g, k, scorer="contextual", weights=None, null_model=None,
               bins=10, deadline=None):
    """Reference top-k: exhaustive enumeration, then rank and cut.

    Ties break on the canonical signature. The score of each match is the
    canonical pairwise sum, identical bit-for-bit to the indexed engine's.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = _rank_all(q, g, scorer, weights, null_model, bins, deadline)
    return [ScoredMatch(m, s) for s, m in ranked[:k]]


def naive_range(q, g, r, scorer="contextual", weights=None, null_model=None,
                bins=10, deadline=None):
    """Reference range query: every maximal mapping scoring at least r."""
    ranked = _rank_all(q, g, scorer, weights, null_model, bins, deadline)
    return [ScoredMatch(m, s) for s, m in ranked if s >= r]


class _PairTableScorer:
    """Chi-square-weighted contextual similarity with tight index bounds.

    A mapping scores the min (agg_min) or mean of its sums over u exemplars,
    exemplar i given by its query vectors q_assocs[i] (in the driving query's
    edge ids) and weights per_weights[i]; a single query is u = 1 under min.
    Pair values come from one pair_similarity_table per exemplar, m_q * m * 8
    bytes for m target edges, plus one of pair gains when u > 1; their rows
    are read through memoryviews, which yield Python floats.
    """

    def __init__(self, q_assocs, index, per_weights, order_weights, agg_min):
        self.q_assocs = q_assocs
        self.q_assoc = q_assocs[0]
        self.per_weights = per_weights
        self.order_weights = order_weights
        self.agg_min = agg_min
        self.u = len(q_assocs)
        self.m_q = len(self.q_assoc)
        tables = [pair_similarity_table(qa, index.assoc, w)
                  for qa, w in zip(q_assocs, per_weights)]
        # min(s + c) <= min(s) + max(c) and mean(s + c) = mean(s) + mean(c), so
        # score + remaining edges bounds; sum() adds the exemplars in order,
        # and the max of one table is that table, not a copy
        gain = reduce(np.maximum, tables) if agg_min else sum(tables) / self.u
        self.rows = [[memoryview(row) for row in table] for table in tables]
        self.gain_rows = [memoryview(row) for row in gain]

    def state_score(self, nmap, sig):
        # canonical order: summed along the sorted signature, then over the
        # exemplars in order, as the reference scores; a list of sums for
        # min() doubled the cost of a one-exemplar call
        least = math.inf
        added = 0.0
        for rows in self.rows:
            total = 0.0
            for qe, te in sig:
                total += rows[qe][te]
            if total < least:
                least = total
            added += total
        return least if self.agg_min else added / self.u

    def pair_gain(self, qe, te, new):
        return self.gain_rows[qe][te]

    def state_bound(self, score, n_pairs, n_nodes):
        return score + (self.m_q - n_pairs)

    def mbr_value(self, qe, mbr):
        values = [mbr_similarity(qa[qe], w, mbr)
                  for qa, w in zip(self.q_assocs, self.per_weights)]
        return min(values) if self.agg_min else sum(values) / self.u

    def seed_bound(self, value):
        return value + (self.m_q - 1)


class _TraditionalScorer:
    """Context-free node+edge score; index phases order on uniform weights
    and never prune on seed bounds (no box bound exists for node terms)."""

    def __init__(self, q, index):
        d = len(q.schema)
        self.order_weights = tuple(1.0 / d for _ in range(d))
        self.q = q
        self.g = index.graph
        self.q_assoc = association_vectors(q)
        self.m_q = q.n_edges
        self.n_q = q.n_nodes
        self._ts = {}

    def _node_value(self, key):
        ts = traditional_node_similarity(self.q.node_features[key[0]],
                                         self.g.node_features[key[1]],
                                         self.q.schema)
        self._ts[key] = ts
        return ts

    def state_score(self, nmap, sig):
        cache = self._ts
        total = 0.0
        for qn in sorted(nmap):
            key = (qn, nmap[qn])
            ts = cache.get(key)
            if ts is None:
                ts = self._node_value(key)
            total += ts
        return total + len(sig)

    def pair_gain(self, qe, te, new):
        # one for the edge, plus the value of the node it brings, if any
        gain = 1.0
        for key in new:
            ts = self._ts.get(key)
            gain += self._node_value(key) if ts is None else ts
        return gain

    def state_bound(self, score, n_pairs, n_nodes):
        return score + (self.m_q - n_pairs) + (self.n_q - n_nodes)

    def mbr_value(self, qe, mbr):
        return mbr_similarity(self.q_assoc[qe], self.order_weights, mbr)

    def seed_bound(self, value):
        return math.inf


class _TopK:
    """Bounded answer set ordered by (score desc, discovery asc)."""

    def __init__(self, k):
        self.k = k
        self.heap = []

    def least(self):
        if len(self.heap) < self.k:
            return -math.inf
        return self.heap[0][0]

    # a state whose bound is at most floor() cannot enter the answer set
    floor = least

    def offer(self, score, sig, nmap, disc):
        entry = (score, -disc, disc, sig, nmap)
        if len(self.heap) < self.k:
            heappush(self.heap, entry)
        elif score > self.heap[0][0]:
            heapreplace(self.heap, entry)

    def ranked(self):
        order = sorted(self.heap, key=lambda t: (-t[0], t[2]))
        return [ScoredMatch(Mapping(nmap, sig), score)
                for score, _, disc, sig, nmap in order]


class _Threshold:
    """Unbounded answer set keeping everything at or above r."""

    def __init__(self, r):
        self.r = r
        self.below_r = math.nextafter(r, -math.inf)
        self.items = []

    def least(self):
        return self.r

    def floor(self):
        # bound <= the largest float below r exactly when bound < r
        return self.below_r

    def offer(self, score, sig, nmap, disc):
        if score >= self.r:
            self.items.append((score, sig, nmap))

    def ranked(self):
        order = sorted(self.items, key=lambda t: (-t[0], t[1]))
        return [ScoredMatch(Mapping(nmap, sig), score) for score, sig, nmap in order]


def _growth_slack(m_q):
    """Rounding slack added to the growth pre-filter's estimate.

    In exact arithmetic a child's canonical bound never exceeds its estimate
    state_bound(parent score + pair_gain, ...), because pair_gain bounds what
    the pair adds to the score. In floats each side is built by fewer than
    2*m_q + 4 + u roundings (u exemplars, none for a single query), and each
    moves that side by at most 2**-53 * (2*m_q + 2): pair and node values lie
    in [0, 1], a query has m_q edges and at most m_q + 1 nodes, and the
    exemplar mean divides its sums by u. So the two sides move apart by less
    than 2 * (2*m_q + 4 + u) * (2*m_q + 2) * 2**-53, which this slack of
    512 * (m_q + 1)**2 * 2**-53 covers for up to 250 exemplars.
    """
    return (m_q + 1) ** 2 * 2.0 ** -44


def _search(q, index, scorer, k=None, r=None, audit=None,
            exact_match=(), exact_relation=()):
    """Shared three-phase engine; exactly one of k / r is set.

    The scorer supplies seven members:
      q_assoc                    association vectors of q's edges, by edge id
      order_weights              feature weights that order query edges,
                                 tree nodes and leaf entries
      state_score(nmap, sig)     score of a mapping, summed along sig
      state_bound(score, n_pairs, n_nodes)
                                 best final score reachable from a state
      pair_gain(qe, te, new)     upper bound on what pair (qe, te) and its new
                                 node assignments add to a state's score
      mbr_value(qe, mbr)         bound on qe's pair value under a tree box
      seed_bound(value)          best final score from a seed of that value
    The pair-table scorer builds its pair values against every target edge
    once, when it is made (pair_similarity_table), so pair_gain and
    state_score only read them by index.
    Each leaf the tree descent reaches puts every seed it holds for the
    current query edge into one growth queue, in neighborhood-similarity
    order, and grows that queue until its best bound cannot beat the answer
    threshold. Before ordering, a leaf entry te is dropped, as one seed
    prune, when seed_bound(pair_gain(qe, te, ())) is at most the threshold:
    that bound is at least the state bound of each of its seed orientations,
    so none of them could have entered the queue. The entries that remain
    are ordered, oriented and scored as before, and each orientation is cut
    on its own state bound, so the queue receives the same seeds in the same
    order.
    Growth prunes a child in two stages. The first bounds it from its parent
    alone, state_bound(parent score + pair_gain, ...) + _growth_slack(m_q),
    and drops it before its signature is built, remembered or scored; the
    slack makes this estimate at least the child's canonical bound despite
    rounding, so it only drops children the second stage would drop. A child
    that survives is scored canonically by state_score and cut on that
    bound, so answers and the order of pushes match a search without the
    first stage; a child dropped early is not remembered, so it may be
    reached and dropped again.
    exact_match and exact_relation are feature indices the match must keep
    exactly: a target edge seeds only when its association components on
    exact_relation equal the query edge's, and a seed orientation only when
    its node values on exact_match equal the query nodes'.
    """
    g = index.graph
    _check_compatible(q, g)
    m_q = q.n_edges
    if m_q == 0 or g.n_edges == 0:
        return []

    ans = _TopK(k) if r is None else _Threshold(r)

    def prune(kind, bound):
        audit.prunes.append((kind, bound, ans.least()))

    q_assoc = scorer.q_assoc
    q_summaries = neighborhood_summary(q, index.params.buckets, q_assoc).tolist()
    order_w = scorer.order_weights
    summaries = index.summaries
    if exact_relation:
        # relation_ok[qe][te]: te's association components on exact_relation
        # equal query edge qe's
        rel = list(exact_relation)
        same = (np.asarray(q_assoc)[:, None, rel] == index.assoc[None, :, rel])
        relation_ok = [memoryview(row) for row in same.all(axis=2)]
    state_score = scorer.state_score
    state_bound = scorer.state_bound
    pair_gain = scorer.pair_gain
    seed_bound = scorer.seed_bound
    slack = _growth_slack(m_q)

    visited = set()
    found = set()
    tick = count()
    disc = count(1)

    def grow(pq):
        # a connected mapping with two or more pairs is fully determined by
        # its signature (shared endpoints force every node assignment), so
        # the signature alone is a sound visited key past the seed level (a
        # seed is met once per search: each query edge is handled once and
        # each target edge sits in one leaf); the threshold only moves when
        # an answer is offered
        floor = ans.floor()
        while pq:
            negb, _, _, score, nmap, sig = heappop(pq)
            if -negb <= floor:
                if audit is not None:
                    prune("growth-queue", -negb)
                break
            if audit is not None:
                audit.expanded += 1
            exts = _extensions(q, g, nmap, sig)
            if not exts:
                if sig not in found:
                    found.add(sig)
                    ans.offer(score, sig, nmap, next(disc))
                    floor = ans.floor()
                    if audit is not None:
                        audit.offers += 1
                        audit.least_trace.append(ans.least())
                continue
            n2 = len(sig) + 1
            n_nodes = len(nmap)
            for qe2, te2, new in exts:
                est = state_bound(score + pair_gain(qe2, te2, new), n2,
                                  n_nodes + len(new)) + slack
                if est <= floor:
                    if audit is not None:
                        prune("growth", est)
                    continue
                pair = (qe2, te2)
                pos = bisect_left(sig, pair)
                sig2 = sig[:pos] + (pair,) + sig[pos:]
                if sig2 in visited:
                    continue
                visited.add(sig2)
                if new:
                    nm2 = dict(nmap)
                    nm2.update(new)
                else:
                    nm2 = nmap
                score2 = state_score(nm2, sig2)
                bound2 = state_bound(score2, n2, len(nm2))
                if bound2 <= floor:
                    if audit is not None:
                        prune("growth", bound2)
                    continue
                # equal bounds pop deepest-first: finishing a mapping early
                # raises the answer threshold and shrinks the frontier
                heappush(pq, (-bound2, m_q - n2, next(tick), score2, nm2, sig2))

    def handle_leaf(qe, node):
        # an entry whose pair value alone cannot beat the answer threshold
        # is dropped first, before it is ordered or oriented; answers are
        # offered only in grow, so the floor stays put while the leaf's seeds
        # are gathered. The rest are ordered best first, so that seeds of
        # equal bound enter the growth queue in this order; neighborhood
        # similarity ties break toward edges whose endpoint values equal the
        # query edge's exactly, since those complete to top-scoring mappings
        # fastest and tighten the answer threshold
        floor = ans.floor()
        qu, qv = q.edges[qe]
        fu = q.node_features[qu]
        fv = q.node_features[qv]
        keep = relation_ok[qe] if exact_relation else None
        scored = []
        for te in node.entries:
            if keep is not None and not keep[te]:
                continue
            bound = seed_bound(pair_gain(qe, te, ()))
            if bound <= floor:
                if audit is not None:
                    prune("seed", bound)
                continue
            ns = neighborhood_similarity(q_summaries[qe], summaries[te].tolist(),
                                         order_w)
            a, b = g.edges[te]
            fa = g.node_features[a]
            fb = g.node_features[b]
            exact = (fa == fu and fb == fv) or (
                not g.directed and fa == fv and fb == fu)
            scored.append((-ns, 0 if exact else 1, te))
        scored.sort()
        pq = []
        for _, _, te in scored:
            for ori in _seed_orientations(q, g, qe, te):
                if exact_match and any(
                        q.node_features[qn][f] != g.node_features[tn][f]
                        for qn, tn in ori for f in exact_match):
                    continue
                nmap = dict(ori)
                sig = ((qe, te),)
                score = state_score(nmap, sig)
                bound = state_bound(score, 1, len(nmap))
                if bound <= floor:
                    if audit is not None:
                        prune("seed", bound)
                    continue
                heappush(pq, (-bound, m_q - 1, next(tick), score, nmap, sig))
        grow(pq)

    root = index.root
    root_values = [scorer.mbr_value(e, root.mbr) for e in range(m_q)]
    for qe in sorted(range(m_q), key=lambda e: (-root_values[e], e)):
        bound = seed_bound(root_values[qe])
        if bound <= ans.floor():
            if audit is not None:
                prune("query-edge", bound)
            break
        # equal-value tree nodes pop tightest box first: a narrow box that
        # still reaches the top value holds the most specific candidates
        root_w = sum(h - l for l, h in zip(root.mbr.lo, root.mbr.hi))
        cands = [(-root_values[qe], root_w, next(tick), root)]
        while cands:
            negval, _, _, node = heappop(cands)
            bound = seed_bound(-negval)
            if bound <= ans.floor():
                if audit is not None:
                    prune("tree-node", bound)
                break
            if node.is_leaf:
                handle_leaf(qe, node)
                continue
            for child in node.children:
                width = sum(h - l for l, h in zip(child.mbr.lo, child.mbr.hi))
                heappush(cands, (-scorer.mbr_value(qe, child.mbr),
                                 width, next(tick), child))
    return ans.ranked()


def _build_scorer(q, index, params, weights):
    if params.scorer == "contextual":
        if weights is None:
            weights = weight_vector(q, index.null_model)
        weights = tuple(weights)
        return _PairTableScorer([association_vectors(q)], index, [weights],
                                weights, True)
    if params.scorer == "traditional":
        return _TraditionalScorer(q, index)
    raise ValueError(f"unknown scorer {params.scorer!r}")


def topk_search(q, index, params=None, weights=None, audit=None):
    """Exact top-k maximal common subgraphs of q in the indexed target.

    Returns ScoredMatch objects ranked by (score desc, discovery asc); the
    score multiset always equals naive_topk's on the same inputs.
    """
    if params is None:
        params = SearchParams()
    if params.k < 1:
        raise ValueError("k must be >= 1")
    scorer = _build_scorer(q, index, params, weights)
    return _search(q, index, scorer, k=params.k, audit=audit)


def range_search(q, index, r, params=None, weights=None, audit=None):
    """Every maximal common subgraph scoring at least r, ranked."""
    if params is None:
        params = SearchParams()
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    scorer = _build_scorer(q, index, params, weights)
    return _search(q, index, scorer, r=r, audit=audit)
