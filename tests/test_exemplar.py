"""Multi-exemplar intent: isomorphism checks, filters, weight aggregation."""

import numpy as np
import pytest

import contextgraph.exemplar as cg_exemplar
from contextgraph.context import estimate_null_model, weight_vector
from contextgraph.exemplar import (ExemplarError, ExemplarSet, HybridContext,
                                   averaged_weights,
                                   detect_exact_match_features,
                                   detect_exact_relation_features,
                                   exemplar_similarity, exemplar_weights,
                                   hybrid_context, intent_topk,
                                   load_bijections)
from contextgraph.graph import (CATEGORICAL, NUMERIC, FeatureSchema, Graph,
                                GraphLoadError)
from contextgraph.index import build_index
from contextgraph.search import SearchParams, naive_topk, topk_search
from contextgraph.similarity import (Mapping, contextual_graph_similarity,
                                     edge_similarity)
from contextgraph.synth import grow_query, random_graph
from conftest import COLLAB_SCHEMA, intent_scorer

IDENTITY3 = {0: 0, 1: 1, 2: 2}


def collab_pair(collab_query, collab_target):
    return ExemplarSet([collab_query, collab_target], [IDENTITY3])


class TestExemplarSet:
    def test_accepts_isomorphic_triangles(self, collab_query, collab_target):
        es = collab_pair(collab_query, collab_target)
        assert len(es) == 2
        assert es.edge_maps[1] == [0, 1, 2]

    def test_rejects_single_exemplar(self, collab_query):
        with pytest.raises(ExemplarError, match="at least two"):
            ExemplarSet([collab_query], [])

    def test_rejects_count_mismatch(self, collab_query):
        path = Graph(False, COLLAB_SCHEMA,
                     [collab_query.node_features[i] for i in range(3)],
                     [(0, 1), (1, 2)])
        with pytest.raises(ExemplarError, match="equal node and edge counts"):
            ExemplarSet([collab_query, path], [IDENTITY3])

    def test_rejects_non_isomorphic_under_bijection(self, collab_query):
        # same counts, but a path maps no triangle: some edge has no image
        p1 = Graph(False, COLLAB_SCHEMA,
                   [collab_query.node_features[i] for i in range(3)] +
                   [collab_query.node_features[0]],
                   [(0, 1), (1, 2), (2, 3)])
        p2 = Graph(False, COLLAB_SCHEMA,
                   [collab_query.node_features[i] for i in range(3)] +
                   [collab_query.node_features[0]],
                   [(0, 1), (1, 2), (1, 3)])
        with pytest.raises(ExemplarError, match="no image"):
            ExemplarSet([p1, p2], [{0: 0, 1: 1, 2: 2, 3: 3}])

    def test_rejects_partial_bijection(self, collab_query, collab_target):
        with pytest.raises(ExemplarError, match="domain"):
            ExemplarSet([collab_query, collab_target], [{0: 0, 1: 1}])

    def test_rejects_non_injective_bijection(self, collab_query, collab_target):
        with pytest.raises(ExemplarError, match="image"):
            ExemplarSet([collab_query, collab_target], [{0: 0, 1: 0, 2: 2}])

    def test_pairwise_composition(self, collab_query, collab_target):
        rotated = {0: 1, 1: 2, 2: 0}
        es = ExemplarSet([collab_query, collab_query, collab_query],
                         [rotated, IDENTITY3])
        comp = es.pairwise(1, 2)
        assert comp == {1: 0, 2: 1, 0: 2}

    def test_translate_mapping(self, collab_query, collab_target):
        es = ExemplarSet([collab_query, collab_target],
                         [{0: 1, 1: 2, 2: 0}])
        m = Mapping({0: 7, 1: 8}, {(0, 42)})
        t = es.translate(m, 1)
        assert t.node_map == {1: 7, 2: 8}
        # edge (0,1) of the first exemplar lands on target-exemplar edge (1,2)
        assert t.edge_pairs == {(es.edge_maps[1][0], 42)}


class TestFeatureDetection:
    def test_shared_relation_not_shared_values(self, collab_query, collab_target):
        # both triangles keep organization uniform, but at different values:
        # the relation transfers, the raw value does not
        es = collab_pair(collab_query, collab_target)
        assert detect_exact_relation_features(es) == (0,)
        assert detect_exact_match_features(es) == ()

    def test_identical_exemplars_match_everywhere(self, collab_query):
        es = ExemplarSet([collab_query, collab_query], [IDENTITY3])
        assert detect_exact_match_features(es) == (0, 1, 2)
        assert detect_exact_relation_features(es) == (0, 1, 2)

    def test_exact_match_implies_exact_relation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_graph(rng, 12, 18)
            q1 = grow_query(g, 3, rng)
            perturb = int(rng.integers(0, 3))
            feats = [list(row) for row in q1.node_features]
            if perturb:
                feats[0][0] = feats[0][0] + 1.0
            q2 = Graph(q1.directed, q1.schema, [tuple(r) for r in feats],
                       list(q1.edges))
            es = ExemplarSet([q1, q2],
                             [{i: i for i in range(q1.n_nodes)}])
            em = set(detect_exact_match_features(es))
            er = set(detect_exact_relation_features(es))
            assert em <= er


class TestWeights:
    def test_per_exemplar_vectors(self, collab_query, collab_target):
        es = collab_pair(collab_query, collab_target)
        nm = estimate_null_model(collab_target)
        per = exemplar_weights(es, nm)
        assert per[0] == weight_vector(collab_query, nm)
        assert per[1] == weight_vector(collab_target, nm)

    def test_averaged_is_componentwise_mean(self):
        wa = (0.7, 0.2, 0.1)
        wb = (0.1, 0.4, 0.5)
        assert averaged_weights([wa, wb]) == pytest.approx(
            ((0.7 + 0.1) / 2, (0.2 + 0.4) / 2, (0.1 + 0.5) / 2))
        assert sum(averaged_weights([wa, wb])) == pytest.approx(1.0)

    def test_hybrid_zeroes_filtered_features(self, collab_query, collab_target):
        es = collab_pair(collab_query, collab_target)
        nm = estimate_null_model(collab_target)
        hc = hybrid_context(es, nm)
        assert hc.exact_relation == (0,)
        assert hc.weights[0] == 0.0
        assert sum(hc.weights) == pytest.approx(1.0)

    def test_hybrid_renormalizes_remaining(self, collab_query, collab_target):
        es = collab_pair(collab_query, collab_target)
        nm = estimate_null_model(collab_target)
        per = exemplar_weights(es, nm)
        hc = hybrid_context(es, nm)
        s1 = per[0][1] + per[1][1]
        s2 = per[0][2] + per[1][2]
        assert hc.weights[1] == pytest.approx(s1 / (s1 + s2))
        assert hc.weights[2] == pytest.approx(s2 / (s1 + s2))

    def test_hybrid_all_features_filtered(self, collab_query):
        es = ExemplarSet([collab_query, collab_query], [IDENTITY3])
        nm = estimate_null_model(collab_query)
        hc = hybrid_context(es, nm)
        assert hc.weights == (0.0, 0.0, 0.0)


class TestExemplarSimilarity:
    def test_identical_exemplars_reduce_to_plain_score(self, collab_query,
                                                       collab_target):
        es = ExemplarSet([collab_query, collab_query], [IDENTITY3])
        nm = estimate_null_model(collab_target)
        m = Mapping({0: 0, 1: 1, 2: 2}, {(0, 0), (1, 1), (2, 2)})
        w = weight_vector(collab_query, nm)
        plain = contextual_graph_similarity(m, collab_query, collab_target, w)
        for wm in ("individual", "averaged"):
            for am in ("min", "mean"):
                got = exemplar_similarity(m, es, collab_target, nm, wm, am)
                assert got == pytest.approx(plain)

    def test_min_never_exceeds_mean(self, collab_query, collab_target):
        es = collab_pair(collab_query, collab_target)
        nm = estimate_null_model(collab_target)
        m = Mapping({0: 0, 1: 1, 2: 2}, {(0, 0), (1, 1), (2, 2)})
        for wm in ("individual", "averaged"):
            lo = exemplar_similarity(m, es, collab_target, nm, wm, "min")
            hi = exemplar_similarity(m, es, collab_target, nm, wm, "mean")
            assert lo <= hi + 1e-12


ORG_SCHEMA = FeatureSchema(("org", "area", "years"),
                           (CATEGORICAL, CATEGORICAL, NUMERIC))


def org_edge(org_a, area_a, y_a, org_b, area_b, y_b):
    return [(org_a, area_a, float(y_a)), (org_b, area_b, float(y_b))]


class TestIntentSearch:
    def test_four_variants_coincide_on_identical_exemplars(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 20, 34)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        es = ExemplarSet([q, q], [{i: i for i in range(q.n_nodes)}])
        runs = [intent_topk(es, idx, SearchParams(k=5), wm, am, use_filters=False)
                for wm in ("individual", "averaged") for am in ("min", "mean")]
        base = [(m.score, m.mapping.signature()) for m in runs[0]]
        for other in runs[1:]:
            assert [(m.score, m.mapping.signature()) for m in other] == base

    def test_identical_exemplars_match_plain_search(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 20, 34)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        es = ExemplarSet([q, q], [{i: i for i in range(q.n_nodes)}])
        got = intent_topk(es, idx, SearchParams(k=5), use_filters=False)
        want = topk_search(q, idx, SearchParams(k=5))
        assert [m.score for m in got] == [m.score for m in want]

    def test_relation_filter_excludes_violating_seeds(self):
        # both exemplars keep org uniform along their edge (at different
        # values), so org transfers as a relation; the target offers one
        # edge honoring it and one violating it
        e1 = Graph(False, ORG_SCHEMA, org_edge("o1", "a1", 10, "o1", "a2", 20),
                   [(0, 1)])
        e2 = Graph(False, ORG_SCHEMA, org_edge("o2", "a3", 10, "o2", "a4", 15),
                   [(0, 1)])
        es = ExemplarSet([e1, e2], [{0: 0, 1: 1}])
        target = Graph(False, ORG_SCHEMA,
                       org_edge("oX", "b1", 10, "oX", "b2", 20) +
                       org_edge("oP", "b3", 10, "oQ", "b3", 20),
                       [(0, 1), (2, 3)])
        idx = build_index(target)
        assert detect_exact_relation_features(es) == (0, 1)
        with_filters = intent_topk(es, idx, SearchParams(k=10))
        without = intent_topk(es, idx, SearchParams(k=10), use_filters=False)
        assert len(with_filters) == 1
        assert len(without) == 2
        (kept,) = with_filters
        assert {te for _, te in kept.mapping.edge_pairs} == {0}

    def test_value_filter_restricts_orientations(self):
        # identical exemplars make every feature an exact-value filter;
        # only the verbatim copy of the edge can seed
        e1 = Graph(False, ORG_SCHEMA, org_edge("o1", "a1", 10, "o1", "a2", 20),
                   [(0, 1)])
        es = ExemplarSet([e1, e1], [{0: 0, 1: 1}])
        target = Graph(False, ORG_SCHEMA,
                       org_edge("o1", "a1", 10, "o1", "a2", 20) +
                       org_edge("o1", "a2", 10, "o1", "a1", 20),
                       [(0, 1), (2, 3)])
        idx = build_index(target)
        got = intent_topk(es, idx, SearchParams(k=10))
        assert len(got) == 1
        assert {te for _, te in got[0].mapping.edge_pairs} == {0}

    def test_scores_aggregate_all_exemplars(self):
        # every answer's score equals the reference aggregate bit for bit,
        # in each weight and aggregation mode: the engine's gain and score
        # tables must add the exemplars in the reference's order
        rng = np.random.default_rng(38)
        g = random_graph(rng, 24, 44)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        f = q.schema.kinds.index(NUMERIC)
        twins = [Graph(q.directed, q.schema,
                       [row[:f] + (row[f] + shift,) + row[f + 1:]
                        for row in q.node_features], q.edges)
                 for shift in (1.0, 2.5)]
        identity = {u: u for u in range(q.n_nodes)}
        checked = 0
        for n_ex in (2, 3):
            es = ExemplarSet([q] + twins[:n_ex - 1], [identity] * (n_ex - 1))
            for weight_mode in ("individual", "averaged"):
                for agg_mode in ("min", "mean"):
                    res = intent_topk(es, idx, SearchParams(k=5), weight_mode,
                                      agg_mode, use_filters=False)
                    assert res
                    for match in res:
                        assert match.score == exemplar_similarity(
                            match.mapping, es, g, idx.null_model, weight_mode,
                            agg_mode)
                        checked += 1
                    scorer = intent_scorer(es, idx, weight_mode=weight_mode,
                                           agg_mode=agg_mode)
                    for qe in range(q.n_edges):
                        for te in range(g.n_edges):
                            vec = [edge_similarity(scorer.q_assocs[i][qe],
                                                   idx.assoc[te], w)
                                   for i, w in enumerate(scorer.per_weights)]
                            want = (max(vec) if agg_mode == "min"
                                    else sum(vec) / n_ex)
                            assert scorer.pair_gain(qe, te, ()) == want
        assert checked == 8 * 5

    @pytest.mark.parametrize("scorer", ["traditional", "nope"])
    def test_rejects_other_scorers(self, scorer):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20, 34)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        es = ExemplarSet([q, q], [{i: i for i in range(q.n_nodes)}])
        with pytest.raises(ValueError, match="scorer"):
            intent_topk(es, idx, SearchParams(k=3, scorer=scorer))

    @pytest.mark.parametrize("modes", [{"weight_mode": "bogus"},
                                       {"agg_mode": "bogus"}])
    def test_modes_checked_before_weights_are_learned(self, monkeypatch, modes):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20, 34)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        es = ExemplarSet([q, q], [{i: i for i in range(q.n_nodes)}])
        calls = []

        def counted(*args, _fn=cg_exemplar.weight_vector):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(cg_exemplar, "weight_vector", counted)
        with pytest.raises(ValueError, match=next(iter(modes))):
            intent_topk(es, idx, SearchParams(k=3), **modes)
        assert calls == []

    def test_weights_learned_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 20, 34)
        idx = build_index(g, leaf_threshold=6)
        q = grow_query(g, 3, rng)
        es = ExemplarSet([q, q], [{i: i for i in range(q.n_nodes)}])
        calls = []

        def counted(*args, _fn=cg_exemplar.weight_vector):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(cg_exemplar, "weight_vector", counted)
        intent_topk(es, idx, SearchParams(k=5))
        assert len(calls) == 2


class TestBijectionFiles:
    def write(self, tmp_path, text):
        p = tmp_path / "bij.tsv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_parse(self, tmp_path, collab_query, collab_target):
        p = self.write(tmp_path,
                       "# first exemplar maps implicitly\n"
                       "2\ta1\tb2\n"
                       "2\ta2\tb3\n"
                       "2\ta3\tb1\n")
        maps = load_bijections(p, [collab_query, collab_target])
        assert maps == [{0: 1, 1: 2, 2: 0}]

    def test_unknown_exemplar_number(self, tmp_path, collab_query, collab_target):
        p = self.write(tmp_path, "3\ta1\tb1\n")
        with pytest.raises(GraphLoadError, match="out of range"):
            load_bijections(p, [collab_query, collab_target])

    def test_unknown_node_id(self, tmp_path, collab_query, collab_target):
        p = self.write(tmp_path, "2\tnope\tb1\n")
        with pytest.raises(GraphLoadError, match="unknown node id"):
            load_bijections(p, [collab_query, collab_target])

    def test_duplicate_assignment(self, tmp_path, collab_query, collab_target):
        p = self.write(tmp_path, "2\ta1\tb1\n2\ta1\tb2\n")
        with pytest.raises(GraphLoadError, match="mapped twice"):
            load_bijections(p, [collab_query, collab_target])

    def test_round_trip_into_exemplar_set(self, tmp_path, collab_query,
                                          collab_target):
        p = self.write(tmp_path, "2\ta1\tb1\n2\ta2\tb2\n2\ta3\tb3\n")
        maps = load_bijections(p, [collab_query, collab_target])
        es = ExemplarSet([collab_query, collab_target], maps)
        assert es.node_maps[1] == IDENTITY3
