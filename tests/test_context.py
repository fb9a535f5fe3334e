"""Context learning: binning, edge pair counts, null model, chi-square weights."""

import numpy as np
import pytest

from contextgraph.context import (BINS, Binner, NullModel, chi_square,
                                  edge_feature_counts, edge_feature_value,
                                  estimate_null_model, fit_binner,
                                  normalize_weights, weight_vector)
from contextgraph.graph import (CATEGORICAL, CATEGORICAL_SET, NUMERIC,
                                FeatureSchema, Graph)
from contextgraph.synth import random_graph

NUM1 = FeatureSchema(("x",), (NUMERIC,))


def ladder(values):
    """Path graph over the given single-feature numeric values."""
    feats = [(float(v),) for v in values]
    return Graph(False, NUM1, feats, [(i, i + 1) for i in range(len(values) - 1)])


class TestBinner:
    def test_deciles_of_1_to_100(self):
        b = fit_binner(ladder(range(1, 101)))
        assert b.cuts[0] == (11.0, 21.0, 31.0, 41.0, 51.0, 61.0, 71.0, 81.0, 91.0)
        assert b.bin_count(0) == BINS == 10

    def test_every_fitted_value_lands_in_range(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 7, size=60).astype(float)
        b = fit_binner(ladder(vals))
        for v in vals:
            assert 0 <= b.bin_value(0, v) < b.bin_count(0)

    def test_constant_feature_gets_one_bin(self):
        b = fit_binner(ladder([5.0] * 9))
        assert b.cuts[0] == ()
        assert b.bin_count(0) == 1

    def test_cuts_strictly_increasing(self):
        rng = np.random.default_rng(1)
        vals = rng.choice([0.0, 1.0, 1.0, 2.0, 9.0], size=40)
        b = fit_binner(ladder(vals))
        assert all(a < c for a, c in zip(b.cuts[0], b.cuts[0][1:]))

    def test_out_of_range_values_clamp(self):
        b = fit_binner(ladder(range(1, 101)))
        assert b.bin_value(0, 0.0) == 0
        assert b.bin_value(0, 1e9) == 9

    def test_non_numeric_feature_has_no_bins(self):
        g = Graph(False, FeatureSchema(("c",), (CATEGORICAL,)),
                  [("a",), ("b",)], [(0, 1)])
        b = fit_binner(g)
        assert b.cuts[0] is None
        with pytest.raises(ValueError):
            b.bin_value(0, "a")

    def test_bin_count_is_no_parameter(self):
        g = ladder(range(1, 101))
        with pytest.raises(TypeError):
            fit_binner(g, bins=5)
        with pytest.raises(TypeError):
            estimate_null_model(g, bins=5)


class TestEdgeValues:
    def test_pair_is_unordered(self):
        g = Graph(False, FeatureSchema(("c",), (CATEGORICAL,)),
                  [("z",), ("a",)], [(0, 1)])
        assert edge_feature_value(g, 0, 0) == ("a", "z")

    def test_numeric_needs_binner(self):
        g = ladder([1, 2])
        with pytest.raises(ValueError, match="binner"):
            edge_feature_value(g, 0, 0)
        b = fit_binner(g)
        assert edge_feature_value(g, 0, 0, b) == (0, 1)

    def test_counts_on_triangle(self, collab_query):
        counts = edge_feature_counts(collab_query, 0)
        assert counts == {("org_w", "org_w"): 3}
        counts = edge_feature_counts(collab_query, 1)
        assert counts == {("ai", "ml"): 1, ("ai", "db"): 1, ("db", "ml"): 1}

    def test_counts_total_is_edge_count(self):
        g = random_graph(np.random.default_rng(2), 15, 25)
        b = fit_binner(g)
        for i in range(len(g.schema)):
            counts = edge_feature_counts(g, i, b)
            assert sum(counts.values()) == g.n_edges


class TestNullModel:
    def test_probabilities_are_frequencies(self, collab_target):
        nm = estimate_null_model(collab_target)
        assert nm.edge_count == 3
        assert nm.probability(1, ("db", "dm")) == pytest.approx(2 / 3)
        assert nm.probability(1, ("dm", "dm")) == pytest.approx(1 / 3)

    def test_floor_for_unseen_pairs(self, collab_target):
        nm = estimate_null_model(collab_target)
        assert nm.floor == 1 / 6
        assert nm.probability(1, ("nope", "nope")) == 1 / 6

    def test_observed_mass_sums_to_one(self):
        g = random_graph(np.random.default_rng(3), 20, 35)
        nm = estimate_null_model(g)
        for table in nm.tables:
            assert sum(table.values()) == pytest.approx(1.0)

    def test_rejects_empty_graph(self):
        g = Graph(False, NUM1, [(1.0,)], [])
        with pytest.raises(ValueError, match="at least one"):
            estimate_null_model(g)


class TestChiSquare:
    def test_three_rare_pairs(self):
        # three distinct pair values, each observed once, with null
        # probabilities 0.01 / 0.03 / 0.02 on a 3-edge query
        schema = FeatureSchema(("area",), (CATEGORICAL,))
        q = Graph(False, schema, [("a",), ("b",), ("c",)],
                  [(0, 1), (0, 2), (1, 2)])
        nm = NullModel(Binner((None,)),
                       ({("a", "b"): 0.01, ("a", "c"): 0.03, ("b", "c"): 0.02},),
                       0.005, 100)
        assert chi_square(q, 0, nm) == pytest.approx(55.29, abs=0.01)

    def test_matching_distribution_scores_zero(self):
        # query edge pairs drawn exactly at the null frequencies
        schema = FeatureSchema(("c",), (CATEGORICAL,))
        q = Graph(False, schema, [("a",), ("a",)], [(0, 1)])
        nm = NullModel(Binner((None,)), ({("a", "a"): 1.0},), 0.25, 4)
        assert chi_square(q, 0, nm) == pytest.approx(0.0)

    def test_edge_order_invariant(self):
        g = random_graph(np.random.default_rng(4), 15, 24)
        nm = estimate_null_model(g)
        q = Graph(g.directed, g.schema,
                  [g.node_features[u] for u in (0, 1, 2, 3)],
                  [(0, 1), (1, 2), (2, 3)])
        shuffled = Graph(g.directed, g.schema, q.node_features,
                         [(2, 3), (0, 1), (1, 2)])
        for i in range(len(g.schema)):
            assert chi_square(q, i, nm) == chi_square(shuffled, i, nm)


class TestWeights:
    def test_normalized_to_one(self):
        w = normalize_weights([3.0, 1.0, 4.0])
        assert sum(w) == pytest.approx(1.0)
        assert w[2] > w[0] > w[1]

    def test_all_zero_becomes_uniform(self):
        assert normalize_weights([0.0, 0.0]) == (0.5, 0.5)

    def test_scale_invariant_argmax(self):
        vals = [2.0, 7.0, 1.0]
        w1 = normalize_weights(vals)
        w2 = normalize_weights([v * 1000 for v in vals])
        assert np.argmax(w1) == np.argmax(w2)
        assert w1 == pytest.approx(w2)

    def test_weight_vector_shape(self, collab_query, collab_target):
        nm = estimate_null_model(collab_target)
        w = weight_vector(collab_query, nm)
        assert len(w) == 3
        assert sum(w) == pytest.approx(1.0)
        assert all(x >= 0 for x in w)

    def test_rare_feature_dominates(self):
        # one feature matches the target's pair distribution, the other is
        # a pair the target never produces; the unseen pair carries the weight
        schema = FeatureSchema(("common", "rare"), (CATEGORICAL, CATEGORICAL))
        g = Graph(False, schema, [("x", "p"), ("x", "p"), ("x", "p")],
                  [(0, 1), (1, 2), (0, 2)])
        nm = estimate_null_model(g)
        q = Graph(False, schema, [("x", "q1"), ("x", "q2")], [(0, 1)])
        w = weight_vector(q, nm)
        assert w[1] > w[0]
