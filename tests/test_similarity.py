"""Association vectors, weighted edge/graph similarity, and search bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextgraph.graph import (CATEGORICAL, CATEGORICAL_SET, NUMERIC,
                                FeatureSchema, Graph)
from contextgraph.similarity import (Mapping, association_vector,
                                     association_vectors,
                                     contextual_graph_similarity,
                                     edge_similarity, gamma, mcs_upper_bound,
                                     pair_similarity_table, seed_upper_bound,
                                     traditional_graph_similarity,
                                     traditional_node_similarity)
from contextgraph.synth import random_graph


class TestGamma:
    def test_equal_values(self):
        assert gamma(3.0, 3.0) == 1.0
        assert gamma(0.0, 0.0) == 1.0

    def test_ratio(self):
        assert gamma(112.0, 125.0) == pytest.approx(0.896)
        assert gamma(125.0, 112.0) == pytest.approx(0.896)

    def test_zero_against_positive(self):
        assert gamma(0.0, 5.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gamma(-1.0, 2.0)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.random(2) * 100
            assert 0.0 <= gamma(x, y) <= 1.0


class TestAssociationVectors:
    def test_query_triangle(self, collab_query):
        vecs = association_vectors(collab_query)
        assert vecs[0] == pytest.approx((1.0, 0.0, 0.896), abs=5e-4)
        assert vecs[1] == pytest.approx((1.0, 0.0, 0.8421), abs=5e-4)
        assert vecs[2] == pytest.approx((1.0, 0.0, 0.9398), abs=5e-4)

    def test_target_triangle(self, collab_target):
        vecs = association_vectors(collab_target)
        assert vecs[0] == pytest.approx((1.0, 0.0, 0.96), abs=5e-4)
        assert vecs[1] == pytest.approx((1.0, 0.0, 0.896), abs=5e-4)
        assert vecs[2] == pytest.approx((1.0, 1.0, 0.86), abs=5e-4)

    def test_rounded_display_values(self, collab_query, collab_target):
        # the two headline vectors quoted throughout: [1, 0, 0.90] / [1, 0, 0.96]
        s_q = association_vector(collab_query, 0)
        s_t = association_vector(collab_target, 0)
        assert tuple(round(x, 2) for x in s_q) == (1.0, 0.0, 0.90)
        assert tuple(round(x, 2) for x in s_t) == (1.0, 0.0, 0.96)

    def test_set_feature_uses_exact_equality(self):
        schema = FeatureSchema(("tags",), (CATEGORICAL_SET,))
        g = Graph(False, schema, [({"a", "b"},), ({"b", "a"},), ({"a"},)],
                  [(0, 1), (0, 2)])
        assert association_vector(g, 0) == (1.0,)
        assert association_vector(g, 1) == (0.0,)

    def test_components_in_unit_interval(self):
        g = random_graph(np.random.default_rng(1), 20, 40)
        for s in association_vectors(g):
            assert all(0.0 <= x <= 1.0 for x in s)


class TestEdgeSimilarity:
    W = (0.40, 0.02, 0.58)

    def test_weighted_example(self):
        s_q = (1.0, 0.0, 0.90)
        s_t = (1.0, 0.0, 0.96)
        got = edge_similarity(s_q, s_t, self.W)
        assert got == pytest.approx(0.96375, abs=1e-6)

    def test_weighted_example_strict_zero(self):
        s_q = (1.0, 0.0, 0.90)
        s_t = (1.0, 0.0, 0.96)
        got = edge_similarity(s_q, s_t, self.W, strict_zero=True)
        assert got == pytest.approx(0.94375, abs=1e-6)

    def test_strict_zero_never_raises_score(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s_q = tuple(rng.choice([0.0, 0.3, 1.0], size=3))
            s_t = tuple(rng.choice([0.0, 0.3, 1.0], size=3))
            w = tuple(rng.dirichlet(np.ones(3)))
            assert (edge_similarity(s_q, s_t, w, strict_zero=True)
                    <= edge_similarity(s_q, s_t, w) + 1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s_q = tuple(rng.random(3))
            s_t = tuple(rng.random(3))
            w = tuple(rng.dirichlet(np.ones(3)))
            assert edge_similarity(s_q, s_t, w) == edge_similarity(s_t, s_q, w)

    def test_identical_vectors_score_one(self):
        s = (0.5, 1.0, 0.0)
        assert edge_similarity(s, s, (0.2, 0.3, 0.5)) == 1.0

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            s_q = tuple(rng.random(4))
            s_t = tuple(rng.random(4))
            w = tuple(rng.dirichlet(np.ones(4)))
            cs = edge_similarity(s_q, s_t, w)
            assert 0.0 <= cs <= 1.0


# association components: zeros, repeats and 0/1 categorical values are
# drawn often, so equal, 0-vs-0 and 0-vs-positive pairs all occur
COMPONENT = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25]),
                      st.floats(0.0, 1.0))


@st.composite
def table_inputs(draw):
    d = draw(st.integers(1, 5))
    vec = st.tuples(*[COMPONENT] * d)
    q_assoc = draw(st.lists(vec, min_size=1, max_size=5))
    t_assoc = draw(st.lists(vec, min_size=1, max_size=8))
    # zero weights, and weights summing past 1 so the clamp runs
    weights = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1.0))] * d))
    return q_assoc, t_assoc, weights


class TestPairSimilarityTable:
    @settings(max_examples=300, deadline=None)
    @given(table_inputs())
    def test_equals_edge_similarity_bit_for_bit(self, inputs):
        q_assoc, t_assoc, weights = inputs
        table = pair_similarity_table(q_assoc, t_assoc, weights)
        assert table.dtype == np.float64
        assert table.shape == (len(q_assoc), len(t_assoc))
        for qe, s_q in enumerate(q_assoc):
            for te, s_t in enumerate(t_assoc):
                assert table[qe, te] == edge_similarity(s_q, s_t, weights)

    def test_clamps_like_edge_similarity(self):
        q_assoc = [(0.5, 1.0), (0.0, 0.0)]
        t_assoc = np.array([[0.5, 1.0], [0.0, 0.0], [0.25, 0.0]])
        weights = (0.75, 0.75)
        table = pair_similarity_table(q_assoc, t_assoc, weights)
        assert table[0, 0] == 1.0 and table[1, 1] == 1.0
        for qe in range(2):
            for te in range(3):
                assert table[qe, te] == edge_similarity(q_assoc[qe], t_assoc[te],
                                                        weights)

    def test_edgeless_query(self):
        table = pair_similarity_table([], [(0.5, 1.0), (1.0, 0.0)], (0.5, 0.5))
        assert table.shape == (0, 2)


def triangle_mapping(n_pairs=3):
    return Mapping({0: 0, 1: 1, 2: 2}, {(e, e) for e in range(n_pairs)})


class TestGraphSimilarity:
    def test_identity_mapping_scores_edge_count(self, collab_query):
        w = (1 / 3, 1 / 3, 1 / 3)
        m = triangle_mapping()
        cgs = contextual_graph_similarity(m, collab_query, collab_query, w)
        assert cgs == pytest.approx(3.0)

    def test_monotone_under_pair_addition(self, collab_query, collab_target):
        w = (0.40, 0.02, 0.58)
        prev = 0.0
        for n in range(1, 4):
            cgs = contextual_graph_similarity(triangle_mapping(n),
                                              collab_query, collab_target, w)
            assert cgs >= prev - 1e-12
            prev = cgs

    def test_independent_of_pair_insertion_order(self, collab_query, collab_target):
        w = (0.40, 0.02, 0.58)
        a = Mapping({0: 0, 1: 1, 2: 2}, {(0, 0), (1, 1), (2, 2)})
        b = Mapping({0: 0, 1: 1, 2: 2}, {(2, 2), (0, 0), (1, 1)})
        assert (contextual_graph_similarity(a, collab_query, collab_target, w)
                == contextual_graph_similarity(b, collab_query, collab_target, w))

    def test_mapping_signature_sorted(self):
        m = Mapping({0: 1}, {(2, 5), (0, 3)})
        assert m.signature() == ((0, 3), (2, 5))

    def test_mapping_equality(self):
        a = Mapping({0: 1}, {(0, 3)})
        b = Mapping({0: 1}, {(0, 3)})
        assert a == b


class TestTraditionalSimilarity:
    def test_node_similarity_averages_features(self, collab_query, collab_target):
        ts = traditional_node_similarity(collab_query.node_features[0],
                                         collab_target.node_features[0],
                                         collab_query.schema)
        # orgs differ (0), areas differ (0), gamma(112, 48) = 3/7
        assert ts == pytest.approx((0.0 + 0.0 + 48.0 / 112.0) / 3)

    def test_graph_similarity_adds_edge_count(self, collab_query):
        m = triangle_mapping()
        ts = traditional_graph_similarity(m, collab_query, collab_query)
        assert ts == pytest.approx(3.0 + 3.0)

    def test_set_feature_equality(self):
        schema = FeatureSchema(("tags",), (CATEGORICAL_SET,))
        a = (("x", "y"),)
        b = (("x", "y"),)
        c = (("x",),)
        assert traditional_node_similarity(a, b, schema) == 1.0
        assert traditional_node_similarity(a, c, schema) == 0.0


class TestBounds:
    def test_mcs_upper_bound_formula(self):
        assert mcs_upper_bound(2.5, 3, 7) == pytest.approx(2.5 + 4)

    def test_seed_upper_bound_formula(self):
        assert seed_upper_bound(0.8, 5) == pytest.approx(0.8 + 4)

    def test_complete_mapping_bound_is_score(self):
        assert mcs_upper_bound(4.2, 6, 6) == pytest.approx(4.2)
