"""Top-k and range retrieval of contextually similar connected subgraphs.

Two engines share one search universe: every connected mapping between query
and target that admits no further valid extension (a maximal common subgraph,
deduplicated by its sorted edge-pair signature).

enumerate_mcs / naive_topk grow a mapping from every (query edge, target
edge) seed and enumerate the universe exhaustively; they are the reference.

topk_search / range_search answer exactly the same question through the edge
index: query edges are taken in order of their similarity bound against the
tree root (phase 1), the tree is descended best-first with bound-checked
pruning (phase 2), and each leaf reached puts its entries, in edge-id
order, as seeds into one bound-ordered growth queue (phase 3). A leaf entry
whose seed score alone cannot beat the answer threshold is dropped before
it is oriented. Growth prunes a child in two stages: first on a bound
estimated from its parent's score and the pair it adds, read from
per-search candidate lists sorted by that pair value. An expansion queues
one unbuilt entry per list, at its first usable child, and each pop moves
that list's cursor on to the next child, estimated only then, so a list
stops at its first cut child and most children are never estimated (as in
Enhanced Partial Expansion A*, Felner et al., JAIR 2012). A child is
built, remembered and scored only when it is popped, and then cut on the
bound of its canonical score. Every discarded state is covered by an upper
bound that cannot beat the current answer threshold, so the returned score
multiset equals the naive one.

Each query edge is handled once, and later phases leave handled edges out:
every mapping holding a pair of a handled edge was grown from that pair or
cut on a bound, so later growth never adds such a pair, never offers a state
that only such a pair extends, and counts handled edges as settled in every
bound. This is the set-enumeration tree's rule that each set is reached
from one root only (Rymon, KR 1992).

Intent search may carry filters: features a match must keep exactly. They
hold on every pair and every mapped node, at seeds and in growth alike, so
a filtered search grows and offers only admissible mappings, and a mapping
is maximal when no admissible pair extends it (see admissible).
"""

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush, heapreplace
from itertools import count
from typing import NamedTuple

import numpy as np

from .context import estimate_null_model, weight_vector
from .index import mbr_similarity
from .similarity import (Mapping, ScoredMatch, association_vectors,
                         contextual_graph_similarity,
                         pair_similarity_table, traditional_graph_similarity,
                         traditional_node_similarity)
# not called here since pair values come from pair_similarity_table and
# leaf entries are seeded in edge-id order, but the benchmark's traced run
# (perfbench/spans.py) wraps and counts these names on this module, and
# fails if one is missing
from .index import neighborhood_similarity, neighborhood_summary  # noqa: F401
from .similarity import edge_similarity  # noqa: F401


class SearchTimeout(Exception):
    """Raised when an enumeration exceeds its deadline."""


SCORERS = ("contextual", "traditional")


@dataclass(frozen=True)
class SearchParams:
    """k answers under a scorer of SCORERS, checked here when made and
    nowhere else: k must be an integer >= 1 (numpy integers pass; bool,
    float and str raise ValueError, as does an unknown scorer)."""

    k: int = 10
    scorer: str = "contextual"

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.scorer not in SCORERS:
            raise ValueError(f"unknown scorer {self.scorer!r}")


class SearchAudit:
    """Optional log of prune decisions and threshold evolution.

    Every pruned state is recorded with its bound and the answer threshold at
    the time of the prune; bound <= threshold for each entry certifies that no
    prune could have removed a result that belongs in the answer set. A
    "seed" prune counts once per leaf entry dropped on its seed bound, and
    once per seed orientation dropped after it was scored. A "growth" prune
    counts once per stop of a candidate list's cursor, when the cursor
    reaches its first cut entry, at the scan or at the advance of a pop (the
    estimate it stops at bounds every later entry of that list), and not at
    all when the queue stops first; once per closing pair dropped on its
    estimate at the scan; and once per child cut on its canonical bound when
    it is popped.
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


class Admissible(NamedTuple):
    """The pairs and node assignments a filtered search may use.

    pair_ok[qe][te] and node_ok[qn][tn] are rows of booleans, read by index.
    A pair (qe, te) that assigns nodes new is admissible when pair_ok[qe][te]
    and node_ok[qn][tn] for every (qn, tn) in new; a seed assigns both of
    its nodes. Built by admissible.
    """

    pair_ok: list
    node_ok: list


def admissible(q, index, q_assoc, exact_match, exact_relation):
    """The Admissible tables of intent filters on query q and an index.

    exact_relation and exact_match are feature indices a match must keep
    exactly: pair (qe, te) is admissible when te's association components
    on exact_relation equal qe's (q_assoc, by query edge), and node
    assignment (qn, tn) when tn's values on exact_match equal qn's. A table
    whose filter is empty is all True. Each table is compared against the
    index's distinct vectors and node rows, then widened to every target
    edge and node by their classes.
    """
    rel = list(exact_relation)
    pair_ok = (np.asarray(q_assoc, dtype=float)[:, None, rel] ==
               index.vectors[None, :, rel]).all(axis=2)
    # one integer code per distinct value, so values of every kind compare
    # in one array pass; a code is shared only by equal values
    codes = {}
    em = list(exact_match)

    def coded(rows):
        return np.array([[codes.setdefault(row[f], len(codes)) for f in em]
                         for row in rows], dtype=np.int64)

    node_ok = (coded(q.node_features)[:, None, :] ==
               coded(index.node_rows)[None, :, :]).all(axis=2)
    pair_ok = pair_ok.take(index.edge_class, axis=1)
    node_ok = node_ok.take(index.node_class, axis=1)
    return Admissible([memoryview(row) for row in pair_ok],
                      [memoryview(row) for row in node_ok])


def _seed_orientations(q, g, qe, te, admit=None):
    """Node assignments mapping query edge qe onto target edge te; with an
    Admissible admit, only those it admits."""
    u, v = q.edges[qe]
    a, b = g.edges[te]
    if g.directed:
        oris = (((u, a), (v, b)),)
    else:
        oris = (((u, a), (v, b)), ((u, b), (v, a)))
    if admit is None:
        return oris
    if not admit.pair_ok[qe][te]:
        return ()
    node_ok = admit.node_ok
    return tuple(ori for ori in oris if all(node_ok[qn][tn] for qn, tn in ori))


def _extensions(q, g, nmap, pairs, admit=None):
    """All single-pair extensions of a connected mapping.

    Returns (query edge, target edge, new node assignments) triples in
    ascending (query edge, target edge) order, with no pair twice: query edges
    are visited in order and Graph.incident lists ascend. A query edge
    qualifies when it is not in the mapping and at least one endpoint is
    mapped; the target edge must be unused, direction-consistent, and
    respect injectivity. With an Admissible admit, only the extensions it
    admits are returned. The oracle grows by it, and the indexed search asks
    it whether a handled edge extends a state; indexed growth reads the
    same extensions, less those of handled edges, from _child_scan.
    """
    out = []
    used_te = {te for _, te in pairs}
    used_qe = {qe for qe, _ in pairs}
    mapped_targets = set(nmap.values())
    directed = g.directed
    edges = g.edges
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
            if te is not None and te not in used_te and (
                    admit is None or admit.pair_ok[qe][te]):
                out.append((qe, te, ()))
            continue
        if mu is not None:
            anchor_q, free_q, anchor_t = u, v, mu
        else:
            anchor_q, free_q, anchor_t = v, u, mv
        incident = g.incident[anchor_t]
        if admit is not None:
            # the edges whose pair and whose endpoint across from the anchor
            # (a + b - anchor) the filters admit; the loop below is as
            # without filters
            pair_ok = admit.pair_ok[qe]
            node_ok = admit.node_ok[free_q]
            incident = [te for te in incident if pair_ok[te] and
                        node_ok[sum(edges[te]) - anchor_t]]
        for te in incident:
            if te in used_te:
                continue
            a, b = edges[te]
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
    return out


def enumerate_mcs(q, g, deadline=None, admit=None):
    """Every maximal connected mapping, deduplicated by signature.

    Exhaustive depth-first growth from all compatible seeds with global
    state deduplication. Raises SearchTimeout past the optional monotonic
    deadline. With an Admissible admit, seeds and extensions are only those
    it admits, and a mapping is maximal when no admissible pair extends it.
    Results come back in signature order.
    """
    _check_compatible(q, g)
    found = {}
    visited = set()
    stack = []
    for qe in range(q.n_edges):
        for te in range(g.n_edges):
            for ori in _seed_orientations(q, g, qe, te, admit):
                stack.append((dict(ori), frozenset(((qe, te),)), ((qe, te),)))
    ticks = 0
    while stack:
        ticks += 1
        if deadline is not None and ticks % 1024 == 1 and time.monotonic() > deadline:
            raise SearchTimeout("enumeration exceeded its deadline")
        nmap, pairs, sig = stack.pop()
        exts = _extensions(q, g, nmap, pairs, admit=admit)
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


def _check_weights(weights, schema):
    """Caller weights as a tuple: one finite weight >= 0 per feature of
    schema, or ValueError. mbr_similarity bounds a box only for weights
    >= 0, and a NaN weight would make every score NaN and every bound
    comparison false."""
    weights = tuple(weights)
    if len(weights) != len(schema):
        raise ValueError(f"need one weight per feature ({len(schema)}), "
                         f"got {len(weights)}")
    for w in weights:
        if not (math.isfinite(w) and w >= 0):
            raise ValueError(f"weights must be finite and >= 0, got {w!r}")
    return weights


def _rank_all(q, g, params, weights, null_model, deadline):
    if weights is not None:
        weights = _check_weights(weights, q.schema)
    maps = enumerate_mcs(q, g, deadline)
    if params.scorer == "contextual":
        if weights is None:
            if null_model is None:
                null_model = estimate_null_model(g)
            weights = weight_vector(q, null_model)
        score = lambda m: contextual_graph_similarity(m, q, g, weights)
    else:
        score = lambda m: traditional_graph_similarity(m, q, g)

    def represent(m):
        # a one-pair signature can be maximal in both orientations of an
        # undirected seed; the indexed engine offers the one it pops first,
        # the best-scoring, or the first _seed_orientations yields on ties
        if len(m.edge_pairs) > 1:
            return m
        sig = m.signature()
        ((qe, te),) = sig
        return max((Mapping(ori, sig) for ori in _seed_orientations(q, g, qe, te)
                    if not _extensions(q, g, dict(ori), sig)), key=score)

    ranked = sorted(((score(m), m) for m in map(represent, maps)),
                    key=lambda t: (-t[0], t[1].signature()))
    return ranked


def naive_topk(q, g, k, scorer="contextual", weights=None, null_model=None,
               deadline=None):
    """Reference top-k: exhaustive enumeration, then rank and cut.

    k and scorer are checked by SearchParams, and weights, when given, are
    one finite weight >= 0 per feature or ValueError, before any
    enumeration. Ties break on the canonical signature. The score of each
    match is the canonical pairwise sum, identical bit-for-bit to the
    indexed engine's.
    """
    ranked = _rank_all(q, g, SearchParams(k, scorer), weights, null_model, deadline)
    return [ScoredMatch(m, s) for s, m in ranked[:k]]


def naive_range(q, g, r, scorer="contextual", weights=None, null_model=None,
                deadline=None):
    """Reference range query: every maximal mapping scoring at least r."""
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    ranked = _rank_all(q, g, SearchParams(scorer=scorer), weights, null_model, deadline)
    return [ScoredMatch(m, s) for s, m in ranked if s >= r]


class _PairTableScorer:
    """Chi-square-weighted contextual similarity with tight index bounds.

    A mapping scores the min (agg_min) or mean of its sums over u exemplars,
    exemplar i given by its query vectors q_assocs[i] (in the driving query's
    edge ids) and weights per_weights[i]; a single query is u = 1 under min.
    Pair values come from one pair_similarity_table per exemplar, m_q * m * 8
    bytes for m target edges, plus one of pair gains when u > 1; their rows
    are read through memoryviews, which yield Python floats. Each table and
    the gain table are computed against the index's distinct vectors and
    widened to every target edge by its class: every entry is computed
    element by element, so the widened tables equal those computed against
    every edge bit for bit.
    """

    def __init__(self, q_assocs, index, per_weights, agg_min):
        self.q_assocs = q_assocs
        self.q_assoc = q_assocs[0]
        self.per_weights = per_weights
        self.agg_min = agg_min
        self.u = len(q_assocs)
        self.m_q = len(self.q_assoc)
        tables = [pair_similarity_table(qa, index.vectors, w)
                  for qa, w in zip(q_assocs, per_weights)]
        # min(s + c) <= min(s) + max(c) and mean(s + c) = mean(s) + mean(c), so
        # score + remaining edges bounds; sum() adds the exemplars in order,
        # and the max of one table is that table, not a copy
        gain = reduce(np.maximum, tables) if agg_min else sum(tables) / self.u
        cls = index.edge_class
        wide = [table.take(cls, axis=1) for table in tables]
        gain = wide[0] if gain is tables[0] else gain.take(cls, axis=1)
        self.rows = [[memoryview(row) for row in table] for table in wide]
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


class _TraditionalScorer:
    """Context-free node+edge score: one per mapped pair and the
    traditional similarity of each mapped node.

    A pair's edge term is 1 wherever its target edge lies, so 1.0 is the
    exact value of every tree box; the node terms, each at most 1, are
    covered by state_bound's n_q - n_nodes at n_nodes = 0.
    """

    def __init__(self, q, index):
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
        return 1.0


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
        entry = (score, -disc, sig, nmap)
        if len(self.heap) < self.k:
            heappush(self.heap, entry)
        elif score > self.heap[0][0]:
            heapreplace(self.heap, entry)

    def ranked(self):
        order = sorted(self.heap, key=lambda t: (-t[0], -t[1]))
        return [ScoredMatch(Mapping(nmap, sig), score)
                for score, _, sig, nmap in order]


class _Threshold:
    """Unbounded answer set keeping everything at or above r."""

    def __init__(self, r, slack):
        self.r = r
        self.below_r = math.nextafter(r - slack, -math.inf)
        self.items = []

    def least(self):
        return self.r

    def floor(self):
        # bound <= this exactly when bound < r - slack (see _growth_slack)
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
    The same inequality keeps a queued child's key, its estimate plus this
    slack, at or above its canonical bound, so a growth queue may stop at
    the first key that cannot beat the threshold before building the child.
    Range search prunes a state only on a bound below r - slack: the same
    count of roundings separates a state's canonical bound from the score of
    any mapping grown from it, which in exact arithmetic cannot exceed it.
    """
    return (m_q + 1) ** 2 * 2.0 ** -44


def _child_scan(q, g, scorer, admit):
    """Growth children, read one at a time from sorted candidate lists.

    Returns (scan, advance). scan(score, nmap, sig, handled, floor, on_stop)
    -> (has_ext, heads) serves the state with node map nmap, sorted
    signature sig and score score. has_ext tells whether _extensions(q, g,
    nmap, sig, admit) has an extension whose query edge is not in handled.
    The estimate of such an extension (qe, te, new) is est =
    state_bound(score + pair_gain(qe, te, new), len(sig) + 1 + len(handled),
    len(nmap) + len(new)) + _growth_slack(m_q). heads holds, per query edge
    qe, the first of its extensions in list order as (-est, qe, pos, src),
    when est is above floor.

    An extension whose query edge qe has one endpoint, anchor_q, mapped to
    anchor_t comes from the candidate list of (qe, anchor_q, anchor_t),
    built once per _child_scan call, when a scan first needs it: anchor_t's
    incident target edges that keep the direction and the filters, as flat
    lists of gains, target edges and free target nodes, sorted by gain
    descending, ties by edge id. An entry is usable when its edge is unused
    and its free node unmapped. The scan stops each list at its first usable
    entry; a query edge whose endpoints are both mapped has one extension,
    the closing pair, a list of that one entry. src = (found, free_q,
    used_te, mapped) holds the list (gains, target edges, free target nodes)
    and, shared by every head of the state, its used edges and mapped nodes:
    entry pos of the list is the extension (qe, found[1][pos], ((free_q,
    found[2][pos]),)), or (qe, found[1][pos], ()) when free_q is None.

    advance(score, n_settled, n_nodes, pos, src, floor, on_stop) moves a
    head's cursor on to the next usable entry of its list and returns it as
    (-est, pos), est = state_bound(score + gain, n_settled, n_nodes) +
    slack, with n_settled and n_nodes those of the entries' estimates, or
    None when the list holds no more usable entries or est is at most floor.
    Rounded addition never decreases, so a cursor's estimates never rise,
    and when one is at most floor it bounds every later entry of the list
    too: the cursor stops there, and on_stop, unless it is None, is called
    with that estimate, once per list at most.
    """
    directed = g.directed
    edges = g.edges
    incident = g.incident
    q_edges = q.edges
    m_q = q.n_edges
    slack = _growth_slack(m_q)
    pair_gain = scorer.pair_gain
    state_bound = scorer.state_bound
    # lists[2 * qe + side] maps anchor_t to its candidate list; side 0
    # anchors qe's first endpoint, side 1 its second
    lists = [{} for _ in range(2 * m_q)]

    def candidates(qe, side, anchor_t):
        u, v = q_edges[qe]
        free_q = v if side == 0 else u
        rows = []
        for te in incident[anchor_t]:
            a, b = edges[te]
            if directed:
                if (a if side == 0 else b) != anchor_t:
                    continue
                cand = b if side == 0 else a
            else:
                cand = b if a == anchor_t else a
            if admit is not None and not (admit.pair_ok[qe][te] and
                                          admit.node_ok[free_q][cand]):
                continue
            # negation is exact, so the gain comes back bit for bit
            rows.append((-pair_gain(qe, te, ((free_q, cand),)), te, cand))
        rows.sort()
        found = ([-row[0] for row in rows], [row[1] for row in rows],
                 [row[2] for row in rows])
        lists[2 * qe + side][anchor_t] = found
        return found

    def scan(score, nmap, sig, handled, floor, on_stop):
        used_te = {te for _, te in sig}
        used_qe = {qe for qe, _ in sig}
        used_qe.update(handled)
        mapped = set(nmap.values())
        settled = len(sig) + 1 + len(handled)
        n_nodes = len(nmap)
        has_ext = False
        heads = []
        for qe in range(m_q):
            if qe in used_qe:
                continue
            u, v = q_edges[qe]
            mu = nmap.get(u)
            mv = nmap.get(v)
            if mu is None:
                if mv is None:
                    continue
                side, anchor_t, free_q = 1, mv, u
            elif mv is None:
                side, anchor_t, free_q = 0, mu, v
            else:
                te = g.edge_between(mu, mv)
                if te is None or te in used_te or (
                        admit is not None and not admit.pair_ok[qe][te]):
                    continue
                has_ext = True
                est = state_bound(score + pair_gain(qe, te, ()), settled,
                                  n_nodes) + slack
                if est > floor:
                    heads.append((-est, qe, 0,
                                  ((None, (te,), None), None, used_te,
                                   mapped)))
                elif on_stop is not None:
                    on_stop(est)
                continue
            found = lists[2 * qe + side].get(anchor_t)
            if found is None:
                found = candidates(qe, side, anchor_t)
            gains, tes, cands = found
            for pos, te in enumerate(tes):
                if te in used_te or cands[pos] in mapped:
                    continue
                has_ext = True
                est = state_bound(score + gains[pos], settled,
                                  n_nodes + 1) + slack
                if est > floor:
                    heads.append((-est, qe, pos,
                                  (found, free_q, used_te, mapped)))
                elif on_stop is not None:
                    on_stop(est)
                break
        return has_ext, heads

    def advance(score, settled, n_nodes, pos, src, floor, on_stop):
        (gains, tes, cands), _, used_te, mapped = src
        for pos in range(pos + 1, len(tes)):
            if tes[pos] in used_te or cands[pos] in mapped:
                continue
            est = state_bound(score + gains[pos], settled, n_nodes) + slack
            if est > floor:
                return -est, pos
            if on_stop is not None:
                on_stop(est)
            return None
        return None

    return scan, advance


def _search(q, index, scorer, k=None, r=None, audit=None,
            exact_match=(), exact_relation=()):
    """Shared three-phase engine; exactly one of k / r is set.

    The scorer supplies five members, read here and by _child_scan:
      q_assoc                    association vectors of q's edges, by edge id
      state_score(nmap, sig)     score of a mapping, summed along sig
      state_bound(score, n_settled, n_nodes)
                                 best final score reachable from a state
                                 whose growth can add no pair of n_settled
                                 query edges
      pair_gain(qe, te, new)     upper bound on what pair (qe, te) and its new
                                 node assignments add to a state's score
      mbr_value(qe, mbr)         bound on qe's pair value under a tree box
    The pair-table scorer builds its pair values once, when it is made
    (pair_similarity_table): against each of the index's distinct
    association vectors, then widened to every target edge by its class, so
    pair_gain and state_score only read them by index.
    A seed or box value v, state_score({}, ((qe, te),)) or mbr_value(qe,
    mbr), with n query edges settled is bounded by state_bound(v, n, 0): the
    value covers the pair, and n_nodes = 0 leaves room for every node term.
    Both scorers prune on it in every phase, on query edges, tree nodes and
    leaf entries alike.
    Each leaf the tree descent reaches puts every seed it holds for the
    current query edge into one growth queue and grows that queue until its
    best bound cannot beat the answer threshold. Its entries are taken in
    edge-id order. An entry te is first dropped, as one seed prune, when its
    seed bound, state_bound(state_score({}, ((qe, te),)), n, 0), is at most
    the threshold: a pair-table seed scores that value in every orientation,
    and a traditional one scores 1.0 plus node terms that n_nodes = 0
    covers, so none of its orientations could have entered the queue. The
    entries that remain are oriented and scored; an entry's orientations
    are pushed best-scoring first, ties in _seed_orientations order, and
    each is cut on its own state bound. The queue pops by bound, so the
    entry order only ranks seeds of equal bound.
    Growth prunes a child in two stages. The first bounds it from its parent
    alone, state_bound(parent score + pair_gain, ...) + _growth_slack(m_q),
    and drops it before its signature is built, remembered or scored; the
    slack makes this estimate at least the child's canonical bound despite
    rounding, so it only drops children the second stage would drop. The
    children come from _child_scan's candidate lists, sorted by pair_gain
    descending, ties by target edge, one list per anchored query edge; a
    closing pair is a list of one. An expansion queues one unbuilt entry per
    list cursor, (-estimate, depth, tick, qe, pos, score, nmap, sig, src):
    the list's first usable child, at list position pos, with the state it
    extends. Every entry of one expansion carries the one tick drawn for
    it, and seeds take the same shape with src None, so (tick, qe) is
    unique per live entry and the queue never compares the states. Popping
    a child's entry first moves its list's cursor on to the next usable
    entry and estimates that one, against the current threshold: it is
    queued again under the same tick when its estimate can beat the
    threshold, and otherwise the list stops, since every later entry's
    estimate is no larger. An entry whose key cannot beat the threshold is
    never queued, and the threshold only rises, so the queue pops the same
    entries before it stops as if it held them. The children of one
    expansion thus pop in (-estimate, qe, list position) order, and the
    queue orders them with every other entry by (-estimate, depth, tick):
    the order of queueing every child alone, sorted by (-estimate, qe, te),
    except for two entries of one list whose different gains round to one
    estimate, which pop larger gain first. Only when a child is popped is
    its signature built, checked against the visited set, its node map
    copied and its score computed canonically by state_score; it is cut on
    that bound or expanded at once. Most children are never estimated, and
    most estimated ones never popped, since a queue stops at its first key
    that cannot beat the threshold, and the key is at least the child's
    canonical bound, so the stop stays sound. A child dropped early, or
    queued again by another parent before its first pop, is not remembered,
    so it may be reached and dropped again; only its first pop expands it.
    Phase 1 adds a query edge to handled once its tree descent has run out
    or been cut. Every mapping holding a pair of a handled edge qe0 is then
    covered: it was grown from its qe0 seed, or it was cut on a bound that
    the answer threshold, which never falls, keeps valid. A mapping holds at
    most one pair per query edge, and a connected mapping grows from any of
    its pairs, so later phases need none of them. There _child_scan skips
    handled edges, and a state it leaves without extensions is offered only
    when _extensions finds none at all: if a handled edge extends it, it is
    not maximal. Each bound counts handled edges as settled, since none of them
    can join: the state bound and the growth estimate take n_pairs +
    len(handled), and the leaf seed bound, the seed-orientation bound, the
    tree-node bound and the phase-1 query-edge bound take 1 + len(handled).
    exact_match and exact_relation are feature indices the match must keep
    exactly, on every pair and every mapped node (see admissible, whose
    tables are compared per distinct vector and node row and widened like
    the pair values): a leaf entry te is dropped before its seed bound when
    (qe, te) fails the relation filter, a seed orientation when a node fails
    the match filter, and _child_scan offers growth only admissible pairs.
    An admissible mapping grows from any of its pairs through admissible
    pairs alone, so the argument above holds for filtered search too, and a
    state is offered when no admissible pair extends it.
    """
    g = index.graph
    _check_compatible(q, g)
    m_q = q.n_edges
    if m_q == 0 or g.n_edges == 0:
        return []

    slack = _growth_slack(m_q)
    ans = _TopK(k) if r is None else _Threshold(r, slack)

    def prune(kind, bound):
        audit.prunes.append((kind, bound, ans.least()))

    q_assoc = scorer.q_assoc
    admit = None
    if exact_match or exact_relation:
        admit = admissible(q, index, q_assoc, exact_match, exact_relation)
    state_score = scorer.state_score
    state_bound = scorer.state_bound
    scan, advance = _child_scan(q, g, scorer, admit)
    on_stop = None if audit is None else (lambda est: prune("growth", est))

    # query edges whose phase has ended
    handled = set()
    tick = count()
    disc = count(1)

    def grow(pq):
        # a connected mapping with two or more pairs is fully determined by
        # its signature (shared endpoints force every node assignment), so
        # the signature alone is a sound visited key past the seed level.
        # Every state of this queue holds exactly one pair of the current
        # query edge, with a target edge of this leaf, and no pair of a
        # handled edge; each target edge sits in one leaf and each query
        # edge is handled once, so no other queue of the search meets any
        # of these states, and visited and found live as long as this
        # queue. Children are built at their pop, so the visited check sits
        # there: one child may be queued under every parent that reaches it,
        # and only its first pop expands it. The threshold only moves when
        # an answer is offered
        visited = set()
        found = set()
        floor = ans.floor()
        n_handled = len(handled)
        while pq:
            negk, depth, t, qe, pos, score, nmap, sig, src = heappop(pq)
            if -negk <= floor:
                if audit is not None:
                    prune("growth-queue", -negk)
                break
            if src is not None:
                # the list's cursor moves on to its next usable entry, queued
                # under the tick its expansion drew, before this child is
                # built
                nxt = advance(score, len(sig) + 1 + n_handled, len(nmap) + 1,
                              pos, src, floor, on_stop)
                if nxt is not None:
                    heappush(pq, (nxt[0], depth, t, qe, nxt[1], score, nmap,
                                  sig, src))
                (_, tes, cands), free_q = src[0], src[1]
                pair = (qe, tes[pos])
                at = bisect_left(sig, pair)
                sig = sig[:at] + (pair,) + sig[at:]
                if sig in visited:
                    continue
                visited.add(sig)
                if free_q is not None:
                    nmap = dict(nmap)
                    nmap[free_q] = cands[pos]
                score = state_score(nmap, sig)
                bound = state_bound(score, len(sig) + n_handled, len(nmap))
                if bound <= floor:
                    if audit is not None:
                        prune("growth", bound)
                    continue
            if audit is not None:
                audit.expanded += 1
            has_ext, heads = scan(score, nmap, sig, handled, floor, on_stop)
            if not has_ext:
                # a state that only a handled edge extends is not maximal;
                # its maximal mappings were covered in that edge's phase
                if n_handled and _extensions(q, g, nmap, sig, admit=admit):
                    continue
                if sig not in found:
                    found.add(sig)
                    ans.offer(score, sig, nmap, next(disc))
                    floor = ans.floor()
                    if audit is not None:
                        audit.offers += 1
                        audit.least_trace.append(ans.least())
                continue
            # one entry per list cursor, all under one tick drawn for the
            # expansion; equal keys pop deepest-first: finishing a mapping
            # early raises the answer threshold and shrinks the frontier
            depth = m_q - len(sig) - 1
            t = next(tick)
            for negk, qe, pos, src in heads:
                heappush(pq, (negk, depth, t, qe, pos, score, nmap, sig, src))

    def handle_leaf(qe, node):
        # entries go in edge-id order; the queue pops by bound, so the order
        # only ranks seeds of equal bound. An entry whose seed score alone
        # cannot beat the answer threshold is dropped before it is oriented;
        # answers are offered only in grow, so the floor stays put while the
        # leaf's seeds are gathered
        floor = ans.floor()
        settled = 1 + len(handled)
        keep = admit.pair_ok[qe] if admit is not None else None
        pq = []
        for te in sorted(node.entries):
            if keep is not None and not keep[te]:
                continue
            sig = ((qe, te),)
            bound = state_bound(state_score({}, sig), settled, 0)
            if bound <= floor:
                if audit is not None:
                    prune("seed", bound)
                continue
            oriented = []
            for ori in _seed_orientations(q, g, qe, te, admit):
                nmap = dict(ori)
                oriented.append((state_score(nmap, sig), nmap))
            # best-scoring orientation first, ties in _seed_orientations
            # order: scores a rounding step apart can share one bound, and
            # the push order then decides which of the two a terminal seed
            # offers
            oriented.sort(key=lambda t: -t[0])
            for score, nmap in oriented:
                bound = state_bound(score, settled, len(nmap))
                if bound <= floor:
                    if audit is not None:
                        prune("seed", bound)
                    continue
                heappush(pq, (-bound, m_q - 1, next(tick), qe, 0, score,
                              nmap, sig, None))
        grow(pq)

    root = index.root
    root_values = [scorer.mbr_value(e, root.mbr) for e in range(m_q)]
    for qe in sorted(range(m_q), key=lambda e: (-root_values[e], e)):
        settled = 1 + len(handled)
        bound = state_bound(root_values[qe], settled, 0)
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
            bound = state_bound(-negval, settled, 0)
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
        handled.add(qe)
    return ans.ranked()


def _build_scorer(q, index, params, weights):
    if weights is not None:
        weights = _check_weights(weights, q.schema)
    if params.scorer == "traditional":
        return _TraditionalScorer(q, index)
    if weights is None:
        weights = weight_vector(q, index.null_model)
    return _PairTableScorer([association_vectors(q)], index, [weights], True)


def topk_search(q, index, params=SearchParams(), weights=None, audit=None):
    """Exact top-k maximal common subgraphs of q in the indexed target.

    params was checked when it was made; weights, when given, must hold one
    finite weight >= 0 per feature, or ValueError. Returns ScoredMatch
    objects ranked by (score desc, discovery asc); the score multiset
    always equals naive_topk's on the same inputs.
    """
    scorer = _build_scorer(q, index, params, weights)
    return _search(q, index, scorer, k=params.k, audit=audit)


def range_search(q, index, r, params=SearchParams(), weights=None, audit=None):
    """Every maximal common subgraph scoring at least r, ranked."""
    if not math.isfinite(r):
        raise ValueError("r must be finite")
    scorer = _build_scorer(q, index, params, weights)
    return _search(q, index, scorer, r=r, audit=audit)
