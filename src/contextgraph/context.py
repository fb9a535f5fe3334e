"""Target-side context learning.

The null model of a target graph records, per feature, how often each unordered
pair of endpoint values occurs across edges. Numeric values are first replaced
by their decile among the target's values, one of BINS equal-frequency bins.
A query is scored against that model with a chi-square statistic per feature;
normalized statistics become the weight vector used by all contextual scoring.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .graph import NUMERIC

# equal-frequency bins of a numeric feature
BINS = 10


class Binner:
    """Equal-frequency cut points per feature; None for non-numeric features.

    bin(v) counts cut points <= v, so out-of-range values clamp to the first
    or last bin and every fitted value lands in [0, bin_count).
    """

    def __init__(self, cuts):
        self.cuts = tuple(tuple(c) if c is not None else None for c in cuts)

    def bin_count(self, i):
        cuts = self.cuts[i]
        if cuts is None:
            raise ValueError(f"feature {i} is not binned")
        return len(cuts) + 1

    def bin_value(self, i, value):
        cuts = self.cuts[i]
        if cuts is None:
            raise ValueError(f"feature {i} is not binned")
        return bisect_right(cuts, value)

    def __eq__(self, other):
        return isinstance(other, Binner) and self.cuts == other.cuts


def fit_binner(g):
    """Fit per-feature quantile cut points on the target's numeric node values."""
    cuts = []
    for i, kind in enumerate(g.schema.kinds):
        if kind != NUMERIC:
            cuts.append(None)
            continue
        vals = sorted(row[i] for row in g.node_features)
        m = len(vals)
        raw = [vals[j * m // BINS] for j in range(1, BINS)]
        # drop duplicates and cuts at the minimum; both would leave empty bins
        kept = []
        for c in raw:
            if c > vals[0] and (not kept or c > kept[-1]):
                kept.append(c)
        cuts.append(tuple(kept))
    return Binner(cuts)


def edge_feature_value(g, e, i, binner=None):
    """Unordered pair of endpoint values of feature i on edge e.

    Numeric values are replaced by their bin index, so a binner is required
    for numeric features. The pair is returned sorted for canonical identity.
    """
    u, v = g.edges[e]
    a = g.node_features[u][i]
    b = g.node_features[v][i]
    if g.schema.kinds[i] == NUMERIC:
        if binner is None:
            raise ValueError("numeric edge feature values need a binner")
        a = binner.bin_value(i, a)
        b = binner.bin_value(i, b)
    return (a, b) if a <= b else (b, a)


def edge_feature_counts(g, i, binner=None):
    """Occurrence count of every feature-i pair value across the graph's edges."""
    counts = {}
    for e in range(g.n_edges):
        key = edge_feature_value(g, e, i, binner)
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass
class NullModel:
    """Per-feature pair-value probabilities estimated from a target graph."""

    binner: Binner
    tables: tuple
    floor: float
    edge_count: int

    def probability(self, i, key):
        """P of one pair value; unseen keys get the small positive floor."""
        return self.tables[i].get(key, self.floor)


def estimate_null_model(g):
    """Estimate the pair-value null model of a target graph."""
    m = g.n_edges
    if m == 0:
        raise ValueError("null model needs a target with at least one edge")
    binner = fit_binner(g)
    tables = []
    for i in range(len(g.schema)):
        counts = edge_feature_counts(g, i, binner)
        tables.append({key: counts[key] / m for key in counts})
    return NullModel(binner, tuple(tables), 1.0 / (2 * m), m)


def chi_square(q, i, nm):
    """Chi-square statistic of feature i for query q under null model nm.

    Sums (observed - expected)^2 / expected over the pair values observed in
    the query; expected = |E_q| * P. Query numeric values are binned with the
    target's binner, clamping outside the fitted range.
    """
    counts = edge_feature_counts(q, i, nm.binner)
    m_q = q.n_edges
    x2 = 0.0
    for key in sorted(counts):
        p = nm.probability(i, key)
        expected = m_q * p
        x2 += (counts[key] - expected) ** 2 / expected
    return x2


def normalize_weights(values):
    """Normalize non-negative statistics to a weight vector; uniform if all zero."""
    total = sum(values)
    if total == 0.0:
        return tuple(1.0 / len(values) for _ in values)
    return tuple(v / total for v in values)


def weight_vector(q, nm):
    """Per-feature context weights of query q: normalized chi-square statistics."""
    d = len(q.schema)
    return normalize_weights([chi_square(q, i, nm) for i in range(d)])
