"""Association vectors, edge/graph similarity, and search bounds.

Gamma(x, y) = min(x, y) / max(x, y) compares two non-negative numbers, with
Gamma(0, 0) = 1 so identical values always score 1. An edge's association
vector holds one Gamma (numeric) or equality indicator (categorical,
categorical-set) per feature for its endpoint values; edges are similar when
their association vectors agree on the features the context weights favor.
"""

from dataclasses import dataclass

import numpy as np

from .graph import NUMERIC


def gamma(x, y):
    """Ratio similarity of two non-negative numbers in [0, 1]."""
    if x < 0 or y < 0:
        raise ValueError("gamma is defined for non-negative values only")
    if x == y:
        return 1.0
    return min(x, y) / max(x, y)


def association_vector(g, e):
    """Per-feature endpoint similarity of edge e as a tuple in [0, 1]^d."""
    u, v = g.edges[e]
    fu = g.node_features[u]
    fv = g.node_features[v]
    out = []
    for i, kind in enumerate(g.schema.kinds):
        if kind == NUMERIC:
            out.append(gamma(fu[i], fv[i]))
        else:
            out.append(1.0 if fu[i] == fv[i] else 0.0)
    return tuple(out)


def association_vectors(g):
    """Association vectors of every edge, indexed by edge id."""
    return [association_vector(g, e) for e in range(g.n_edges)]


def edge_similarity(s_q, s_t, weights, strict_zero=False):
    """Weighted agreement of two association vectors.

    Each component contributes weights[i] * Gamma(s_q[i], s_t[i]). With
    strict_zero the 0-vs-0 comparison scores 0 instead of 1, matching
    conventions that treat absent similarity as non-evidence. The result is
    clamped into [0, 1] so normalized weights cannot push it past 1 by a
    rounding error.
    """
    total = 0.0
    for i, w in enumerate(weights):
        x = s_q[i]
        y = s_t[i]
        if x == y:
            if x == 0.0 and strict_zero:
                continue
            total += w
        elif x == 0.0 or y == 0.0:
            continue
        elif x < y:
            total += w * (x / y)
        else:
            total += w * (y / x)
    if total > 1.0:
        return 1.0
    if total < 0.0:
        return 0.0
    return total


def pair_similarity_table(q_assoc, t_assoc, weights):
    """edge_similarity of every (query edge, target edge) pair in one pass.

    q_assoc and t_assoc are sequences of association vectors or (n, d)
    arrays. Returns an (m_q, m) float64 array whose entry [qe, te] equals
    edge_similarity(q_assoc[qe], t_assoc[te], weights) bit for bit: per
    feature, in weight order, the ratio min/max (1 where both values are 0)
    is weighted and added, and the sum is clamped into [0, 1]. An edgeless
    query gives shape (0, m).
    """
    d = len(weights)
    q = np.asarray(q_assoc, dtype=float).reshape(len(q_assoc), d)
    t = np.asarray(t_assoc, dtype=float).reshape(len(t_assoc), d)
    total = np.zeros((len(q), len(t)))
    ratio = np.empty_like(total)
    for i, w in enumerate(weights):
        x = q[:, i, None]
        y = t[None, :, i]
        hi = np.maximum(x, y)
        ratio.fill(1.0)
        np.divide(np.minimum(x, y), hi, out=ratio, where=hi != 0.0)
        total += w * ratio
    return np.clip(total, 0.0, 1.0, out=total)


class Mapping:
    """Partial correspondence between a query and a target subgraph.

    node_map is an injective map from query node ids to target node ids;
    edge_pairs the set of matched (query edge, target edge) pairs. The
    signature, the sorted pair tuple, is the canonical identity used for
    deduplication and tie-breaking.
    """

    __slots__ = ("node_map", "edge_pairs")

    def __init__(self, node_map=None, edge_pairs=None):
        self.node_map = dict(node_map) if node_map else {}
        self.edge_pairs = frozenset(edge_pairs) if edge_pairs else frozenset()

    def signature(self):
        return tuple(sorted(self.edge_pairs))

    def __eq__(self, other):
        return (isinstance(other, Mapping) and self.node_map == other.node_map
                and self.edge_pairs == other.edge_pairs)

    def __repr__(self):
        return f"Mapping({self.node_map!r}, {sorted(self.edge_pairs)!r})"


@dataclass
class ScoredMatch:
    """A mapping with its score under some scorer."""

    mapping: Mapping
    score: float


def contextual_graph_similarity(m, q, g_t, weights):
    """Sum of weighted edge similarities over the mapping's matched pairs.

    Pairs are visited in signature order so the value is reproducible
    bit-for-bit regardless of how the mapping was grown.
    """
    total = 0.0
    for qe, te in sorted(m.edge_pairs):
        total += edge_similarity(association_vector(q, qe),
                                 association_vector(g_t, te), weights)
    return total


def traditional_node_similarity(fu, fv, schema):
    """Unweighted mean of per-feature value similarities of two nodes."""
    total = 0.0
    for i, kind in enumerate(schema.kinds):
        if kind == NUMERIC:
            total += gamma(fu[i], fv[i])
        elif fu[i] == fv[i]:
            total += 1.0
    return total / len(schema)


def traditional_graph_similarity(m, q, g_t):
    """Context-free score: mapped-node similarities plus matched edge count."""
    total = 0.0
    for qn in sorted(m.node_map):
        total += traditional_node_similarity(q.node_features[qn],
                                             g_t.node_features[m.node_map[qn]],
                                             q.schema)
    return total + len(m.edge_pairs)


def mcs_upper_bound(current_score, edges_matched, query_edge_count):
    """Best final score reachable from a growth state: each unmatched query
    edge can contribute at most 1."""
    return current_score + (query_edge_count - edges_matched)


def seed_upper_bound(cs_to_mbr, query_edge_count):
    """Best score of any maximal mapping seeded at an edge whose similarity
    to a bounding box is cs_to_mbr."""
    return cs_to_mbr + (query_edge_count - 1)
