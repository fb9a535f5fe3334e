"""Search engines: growth semantics, oracle, indexed top-k/range equivalence."""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextgraph.exemplar as cg_exemplar
import contextgraph.index as cg_index
import contextgraph.search as cg_search
from contextgraph.context import weight_vector
from contextgraph.exemplar import ExemplarSet, hybrid_context, intent_topk
from contextgraph.graph import CATEGORICAL, FeatureSchema, Graph
from contextgraph.index import build_index
from contextgraph.search import (SearchAudit, SearchParams, SearchTimeout,
                                 _PairTableScorer, _TraditionalScorer,
                                 _build_scorer, _extensions, _growth_slack,
                                 _seed_orientations, enumerate_mcs,
                                 naive_range, naive_topk, range_search,
                                 topk_search)
from contextgraph.similarity import association_vectors, edge_similarity
from contextgraph.synth import grow_query, random_graph, spatial_graph
from conftest import intent_scorer, make_instance, shifted_exemplars

CAT1 = FeatureSchema(("c",), (CATEGORICAL,))


def cat_graph(values, edges, directed=False):
    return Graph(directed, CAT1, [(v,) for v in values], edges)


class TestGrowth:
    def test_undirected_seed_has_two_orientations(self):
        q = cat_graph("ab", [(0, 1)])
        g = cat_graph("xy", [(0, 1)])
        assert _seed_orientations(q, g, 0, 0) == (((0, 0), (1, 1)),
                                                  ((0, 1), (1, 0)))

    def test_directed_seed_has_one_orientation(self):
        q = cat_graph("ab", [(0, 1)], directed=True)
        g = cat_graph("xy", [(0, 1)], directed=True)
        assert _seed_orientations(q, g, 0, 0) == (((0, 0), (1, 1)),)

    def test_path_seed_in_triangle_has_two_extensions(self):
        # path a-b-c, edge (a,b) seeded onto a triangle edge: each of the
        # two orientations admits exactly one growth of (b,c)
        q = cat_graph("abc", [(0, 1), (1, 2)])
        g = cat_graph("xyz", [(0, 1), (1, 2), (2, 0)])
        total = []
        for ori in _seed_orientations(q, g, 0, 0):
            exts = _extensions(q, g, dict(ori), {(0, 0)})
            assert len(exts) == 1
            total.extend(exts)
        assert len(total) == 2
        assert total[0] != total[1]

    def test_closing_edge_needs_no_new_assignment(self):
        q = cat_graph("abc", [(0, 1), (1, 2), (2, 0)])
        g = cat_graph("xyz", [(0, 1), (1, 2), (2, 0)])
        nmap = {0: 0, 1: 1, 2: 2}
        exts = _extensions(q, g, nmap, {(0, 0), (1, 1)})
        assert exts == [(2, 2, ())]

    def test_injectivity_blocks_reuse(self):
        # both query path ends would have to land on the same target node
        q = cat_graph("abc", [(0, 1), (1, 2)])
        g = cat_graph("xy", [(0, 1)])
        exts = _extensions(q, g, {0: 0, 1: 1}, {(0, 0)})
        assert exts == []

    def test_directed_growth_respects_direction(self):
        q = cat_graph("abc", [(0, 1), (1, 2)], directed=True)
        g_fwd = cat_graph("xyz", [(0, 1), (1, 2)], directed=True)
        g_bwd = cat_graph("xyz", [(0, 1), (2, 1)], directed=True)
        assert _extensions(q, g_fwd, {0: 0, 1: 1}, {(0, 0)}) == [(1, 1, ((2, 2),))]
        assert _extensions(q, g_bwd, {0: 0, 1: 1}, {(0, 0)}) == []


class TestEnumerate:
    def test_triangle_in_triangle_has_six_maximal_mappings(self):
        q = cat_graph("abc", [(0, 1), (0, 2), (2, 1)])
        g = cat_graph("xyz", [(0, 1), (0, 2), (2, 1)])
        maps = enumerate_mcs(q, g)
        assert len(maps) == 6
        assert all(len(m.edge_pairs) == 3 for m in maps)
        assert len({m.signature() for m in maps}) == 6

    def test_every_result_is_maximal(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g, q = make_instance(rng, max_nodes=14, query_edges=2)
            for m in enumerate_mcs(q, g):
                assert _extensions(q, g, m.node_map, m.edge_pairs) == []

    def test_signatures_unique_and_sorted(self):
        rng = np.random.default_rng(1)
        g, q = make_instance(rng, max_nodes=14)
        maps = enumerate_mcs(q, g)
        sigs = [m.signature() for m in maps]
        assert sigs == sorted(sigs)
        assert len(set(sigs)) == len(sigs)

    def test_incompatible_schema_rejected(self):
        q = cat_graph("ab", [(0, 1)])
        other = FeatureSchema(("d",), (CATEGORICAL,))
        g = Graph(False, other, [("x",), ("y",)], [(0, 1)])
        with pytest.raises(ValueError, match="schema"):
            enumerate_mcs(q, g)

    def test_directedness_must_agree(self):
        q = cat_graph("ab", [(0, 1)])
        g = cat_graph("xy", [(0, 1)], directed=True)
        with pytest.raises(ValueError, match="directed"):
            enumerate_mcs(q, g)

    def test_deadline_raises(self):
        rng = np.random.default_rng(2)
        g, q = make_instance(rng, min_nodes=24, max_nodes=28, query_edges=4)
        with pytest.raises(SearchTimeout):
            enumerate_mcs(q, g, deadline=time.monotonic() - 1.0)


class TestNaive:
    def test_scores_descend(self):
        rng = np.random.default_rng(3)
        g, q = make_instance(rng)
        res = naive_topk(q, g, 10)
        scores = [m.score for m in res]
        assert scores == sorted(scores, reverse=True)

    def test_perfect_match_scores_edge_count(self):
        rng = np.random.default_rng(4)
        g, q = make_instance(rng, query_edges=3)
        res = naive_topk(q, g, 1)
        # the query was grown out of the target, so a verbatim copy exists
        assert res[0].score == pytest.approx(q.n_edges)

    def test_k_truncates(self):
        rng = np.random.default_rng(5)
        g, q = make_instance(rng)
        assert len(naive_topk(q, g, 2)) == 2

    def test_rejects_bad_k(self):
        rng = np.random.default_rng(6)
        g, q = make_instance(rng)
        with pytest.raises(ValueError):
            naive_topk(q, g, 0)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        g, q = make_instance(rng)
        a = naive_topk(q, g, 8)
        b = naive_topk(q, g, 8)
        assert [m.mapping.signature() for m in a] == [m.mapping.signature() for m in b]
        assert [m.score for m in a] == [m.score for m in b]

    def test_range_is_score_filter(self):
        rng = np.random.default_rng(8)
        g, q = make_instance(rng)
        everything = naive_topk(q, g, 10 ** 9)
        r = everything[len(everything) // 2].score
        got = naive_range(q, g, r)
        assert all(m.score >= r for m in got)
        assert len(got) == sum(1 for m in everything if m.score >= r)

    def test_explicit_weights_override_learned(self):
        rng = np.random.default_rng(9)
        g, q = make_instance(rng)
        res = naive_topk(q, g, 3, weights=(1.0, 0.0, 0.0))
        assert all(m.score <= q.n_edges + 1e-9 for m in res)


class TestIndexedTopK:
    def test_matches_naive_scores(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g, q = make_instance(rng)
            idx = build_index(g, branching=int(rng.integers(2, 5)),
                              leaf_threshold=int(rng.integers(1, 24)))
            for k in (1, 3, 10):
                got = topk_search(q, idx, SearchParams(k=k))
                want = naive_topk(q, g, k)
                assert [m.score for m in got] == [m.score for m in want]

    def test_tie_classes_match_naive(self):
        # equal-score ties at the k boundary are interchangeable, so the
        # guarantee is: every score class above the boundary is returned in
        # full, and boundary members come from the true tie class
        rng = np.random.default_rng(27)
        for _ in range(6):
            g, q = make_instance(rng)
            idx = build_index(g, leaf_threshold=int(rng.integers(1, 24)))
            everything = naive_topk(q, g, 10 ** 9)
            by_score = {}
            for m in everything:
                by_score.setdefault(m.score, set()).add(m.mapping.signature())
            got = topk_search(q, idx, SearchParams(k=6))
            if not got:
                continue
            boundary = got[-1].score
            mine = {}
            for m in got:
                mine.setdefault(m.score, set()).add(m.mapping.signature())
            for score, sigs in mine.items():
                if score == boundary:
                    assert sigs <= by_score[score]
                else:
                    assert sigs == by_score[score]

    def test_matches_naive_traditional(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            g, q = make_instance(rng)
            idx = build_index(g, leaf_threshold=6)
            got = topk_search(q, idx, SearchParams(k=5, scorer="traditional"))
            want = naive_topk(q, g, 5, scorer="traditional")
            assert [m.score for m in got] == [m.score for m in want]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(13)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=4)
        a = topk_search(q, idx, SearchParams(k=6))
        b = topk_search(q, idx, SearchParams(k=6))
        assert [(m.score, m.mapping.signature()) for m in a] == \
            [(m.score, m.mapping.signature()) for m in b]

    def test_results_are_maximal_mappings(self):
        rng = np.random.default_rng(14)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=4)
        for m in topk_search(q, idx, SearchParams(k=10)):
            assert _extensions(q, g, m.mapping.node_map, m.mapping.edge_pairs) == []

    def test_explicit_weights_respected(self):
        rng = np.random.default_rng(15)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=4)
        w = (0.2, 0.3, 0.5)
        got = topk_search(q, idx, SearchParams(k=4), weights=w)
        want = naive_topk(q, g, 4, weights=w)
        assert [m.score for m in got] == [m.score for m in want]

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(16)
        g, q = make_instance(rng)
        idx = build_index(g)
        with pytest.raises(ValueError):
            topk_search(q, idx, SearchParams(k=0))
        with pytest.raises(ValueError):
            topk_search(q, idx, SearchParams(scorer="psychic"))


class TestIndexedRange:
    def test_matches_naive_at_boundary(self):
        rng = np.random.default_rng(17)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=4)
        everything = naive_topk(q, g, 10 ** 9)
        r = everything[min(2, len(everything) - 1)].score
        got = range_search(q, idx, r)
        want = naive_range(q, g, r)
        assert [m.score for m in got] == [m.score for m in want]
        assert {m.mapping.signature() for m in got} == \
            {m.mapping.signature() for m in want}
        # the boundary score itself is included
        assert any(m.score == r for m in got)

    def test_above_max_returns_nothing(self):
        rng = np.random.default_rng(18)
        g, q = make_instance(rng)
        idx = build_index(g)
        assert range_search(q, idx, q.n_edges + 1.0) == []

    def test_rejects_non_finite_threshold(self):
        rng = np.random.default_rng(19)
        g, q = make_instance(rng)
        idx = build_index(g)
        with pytest.raises(ValueError):
            range_search(q, idx, float("inf"))


class TestEdgelessQuery:
    @pytest.mark.parametrize("directed", [False, True])
    def test_every_search_returns_nothing(self, directed):
        # the scorers build their pair tables before the engine's early
        # return for a query without edges, so that path must hold up too
        g = random_graph(np.random.default_rng(37), 12, 20, directed=directed)
        idx = build_index(g, leaf_threshold=4)
        q = Graph(directed, g.schema, [g.node_features[0], g.node_features[1]], [])
        for scorer in ("contextual", "traditional"):
            params = SearchParams(k=3, scorer=scorer)
            assert topk_search(q, idx, params) == []
            assert range_search(q, idx, 0.0, params) == []
        es = ExemplarSet([q, q], [{0: 1, 1: 0}])
        for weight_mode in ("individual", "averaged"):
            for agg_mode in ("min", "mean"):
                assert intent_topk(es, idx, SearchParams(k=3), weight_mode,
                                   agg_mode) == []


class TestSingleLeaf:
    """An index whose one leaf holds every edge: 80-200 seeds per leaf, more
    than the small-leaf builds of the other tests ever put in one queue."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_naive(self, directed):
        rng = np.random.default_rng(40 + directed)
        for _ in range(3):
            g = random_graph(rng, int(rng.integers(30, 41)),
                             int(rng.integers(80, 201)), directed=directed)
            q = grow_query(g, 3, rng)
            idx = build_index(g, leaf_threshold=g.n_edges + 1)
            assert idx.root.is_leaf
            ranked = {scorer: naive_topk(q, g, 10 ** 9, scorer=scorer)
                      for scorer in ("contextual", "traditional")}
            for scorer, everything in ranked.items():
                for k in (1, 3, 10):
                    got = topk_search(q, idx, SearchParams(k=k, scorer=scorer))
                    assert [m.score for m in got] == \
                        [m.score for m in everything[:k]]
            r = ranked["contextual"][min(5, len(ranked["contextual"]) - 1)].score
            got = range_search(q, idx, r)
            assert {m.mapping.signature() for m in got} == \
                {m.mapping.signature() for m in naive_range(q, g, r)}
            audits = [SearchAudit() for _ in range(3)]
            topk_search(q, idx, SearchParams(k=3), audit=audits[0])
            range_search(q, idx, r, audit=audits[1])
            intent_topk(shifted_exemplars(q), idx, SearchParams(k=3),
                        audit=audits[2])
            for audit in audits:
                assert audit.expanded > 0
                assert all(bound <= threshold
                           for _, bound, threshold in audit.prunes)


class TestQueryVectors:
    @pytest.mark.parametrize("scorer", ["contextual", "traditional"])
    @pytest.mark.parametrize("search", [
        lambda q, idx, params: topk_search(q, idx, params),
        lambda q, idx, params: range_search(q, idx, 1.5, params),
    ], ids=["topk", "range"])
    def test_computed_once_per_search(self, monkeypatch, search, scorer):
        # the scorer computes the query's association vectors and the
        # engine reads them from it
        rng = np.random.default_rng(23)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        calls = []

        def counted(graph, _fn=cg_search.association_vectors):
            calls.append(graph)
            return _fn(graph)

        for mod in (cg_search, cg_index):
            monkeypatch.setattr(mod, "association_vectors", counted)
        search(q, idx, SearchParams(k=3, scorer=scorer))
        assert len(calls) == 1 and calls[0] is q

    def test_computed_once_per_exemplar(self, monkeypatch):
        rng = np.random.default_rng(23)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        es = shifted_exemplars(q)
        context = hybrid_context(es, idx.null_model)
        calls = []

        def counted(graph, _fn=cg_search.association_vectors):
            calls.append(graph)
            return _fn(graph)

        for mod in (cg_search, cg_index, cg_exemplar):
            monkeypatch.setattr(mod, "association_vectors", counted)
        intent_topk(es, idx, SearchParams(k=3), context=context)
        assert len(calls) == len(es)
        assert all(a is b for a, b in zip(calls, es.graphs))


class TestAudit:
    def test_prunes_never_cut_reachable_scores(self):
        rng = np.random.default_rng(20)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        audit = SearchAudit()
        topk_search(q, idx, SearchParams(k=3), audit=audit)
        assert audit.expanded > 0
        assert audit.offers > 0
        for kind, bound, threshold in audit.prunes:
            assert bound <= threshold + 1e-12

    def test_intent_prunes_never_cut_reachable_scores(self):
        rng = np.random.default_rng(20)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        audit = SearchAudit()
        intent_topk(shifted_exemplars(q), idx, SearchParams(k=3), audit=audit)
        assert audit.expanded > 0
        assert audit.offers > 0
        for kind, bound, threshold in audit.prunes:
            assert bound <= threshold + 1e-12

    def test_range_prunes_stay_below_threshold(self):
        rng = np.random.default_rng(21)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        audit = SearchAudit()
        r = 1.5
        range_search(q, idx, r, audit=audit)
        for kind, bound, threshold in audit.prunes:
            assert bound < threshold

    def test_least_trace_is_monotone(self):
        rng = np.random.default_rng(22)
        g, q = make_instance(rng)
        idx = build_index(g, leaf_threshold=3)
        audit = SearchAudit()
        topk_search(q, idx, SearchParams(k=5), audit=audit)
        trace = audit.least_trace
        assert all(a <= b for a, b in zip(trace, trace[1:]))


def make_scorer(kind, q, idx):
    if kind == "contextual":
        return _build_scorer(q, idx, SearchParams(),
                             weight_vector(q, idx.null_model))
    if kind == "traditional":
        return _TraditionalScorer(q, idx)
    return intent_scorer(shifted_exemplars(q), idx, agg_mode=kind)


class TestGrowthPrefilter:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["contextual", "traditional", "min", "mean"]),
           query_edges=st.integers(2, 4))
    def test_estimate_bounds_every_child(self, seed, kind, query_edges):
        # the pre-filter may drop a child only when its canonical bound
        # would be dropped too: canonical <= estimate + slack, every child
        rng = np.random.default_rng(seed)
        g, q = make_instance(rng, max_nodes=12, query_edges=query_edges)
        scorer = make_scorer(kind, q, build_index(g, leaf_threshold=3))
        slack = _growth_slack(q.n_edges)
        stack = [(dict(ori), ((qe, te),)) for qe in range(q.n_edges)
                 for te in range(g.n_edges)
                 for ori in _seed_orientations(q, g, qe, te)]
        seen = set()
        children = 0
        while stack and children < 2000:
            nmap, sig = stack.pop()
            score = scorer.state_score(nmap, sig)
            for qe, te, new in _extensions(q, g, nmap, sig):
                estimate = scorer.state_bound(score + scorer.pair_gain(qe, te, new),
                                              len(sig) + 1, len(nmap) + len(new))
                nm2 = {**nmap, **dict(new)}
                sig2 = tuple(sorted(sig + ((qe, te),)))
                canonical = scorer.state_bound(scorer.state_score(nm2, sig2),
                                               len(sig2), len(nm2))
                assert canonical <= estimate + slack
                children += 1
                if sig2 not in seen:
                    seen.add(sig2)
                    stack.append((nm2, sig2))

    def test_pruned_children_are_not_scored(self, monkeypatch):
        # children dropped on their estimate never reach state_score, so a
        # search that prunes most children in growth scores fewer states
        # than it prunes there
        rng = np.random.default_rng(35)
        g, q = make_instance(rng, min_nodes=20, query_edges=4)
        idx = build_index(g, leaf_threshold=3)
        calls = []
        score = _PairTableScorer.state_score

        def counted(self, nmap, sig):
            calls.append(sig)
            return score(self, nmap, sig)

        monkeypatch.setattr(_PairTableScorer, "state_score", counted)
        audit = SearchAudit()
        topk_search(q, idx, SearchParams(k=3), audit=audit)
        growth = sum(kind == "growth" for kind, _, _ in audit.prunes)
        assert len(calls) < growth


class TestSeedPairBound:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["contextual", "traditional", "min", "mean"]),
           query_edges=st.integers(2, 4))
    def test_pair_bound_covers_every_orientation(self, seed, kind, query_edges):
        # a leaf entry is dropped on seed_bound(pair_gain) before any of its
        # orientations is scored, so that bound must be at least the bound
        # of every orientation; a contextual seed reaches it exactly
        rng = np.random.default_rng(seed)
        g, q = make_instance(rng, max_nodes=12, query_edges=query_edges)
        scorer = make_scorer(kind, q, build_index(g, leaf_threshold=3))
        for qe in range(q.n_edges):
            for te in range(g.n_edges):
                pair_bound = scorer.seed_bound(scorer.pair_gain(qe, te, ()))
                for ori in _seed_orientations(q, g, qe, te):
                    sig = ((qe, te),)
                    seed_bound = scorer.state_bound(
                        scorer.state_score(dict(ori), sig), 1, 2)
                    if kind == "contextual":
                        assert seed_bound == pair_bound
                    else:
                        assert seed_bound <= pair_bound

    def test_dropped_entries_are_not_ordered(self, monkeypatch):
        # under a range threshold the floor never moves, so every entry
        # whose pair bound falls below r is dropped before neighborhood
        # similarity orders the leaf: no call may see such an entry
        g = spatial_graph(120, 400, seed=3, replicas=4)
        idx = build_index(g, leaf_threshold=20)
        q = grow_query(g, 3, np.random.default_rng(36))
        w = weight_vector(q, idx.null_model)
        r = q.n_edges - 0.1
        seen = []

        # each summary row travels tagged with its edge, so a call names the
        # very (query edge, target edge) pair it orders
        class Tagged:
            def __init__(self, rows):
                self.rows = rows

            def tolist(self):
                return list(enumerate(self.rows.tolist()))

            def __getitem__(self, e):
                row = self.rows[e].tolist()
                return SimpleNamespace(tolist=lambda: (e, row))

        def summary(*args, _fn=cg_search.neighborhood_summary):
            return Tagged(_fn(*args))

        def nsim(s_q, s_t, weights, _fn=cg_search.neighborhood_similarity):
            seen.append((s_q[0], s_t[0]))
            return _fn(s_q[1], s_t[1], weights)

        monkeypatch.setattr(cg_search, "neighborhood_summary", summary)
        monkeypatch.setattr(cg_search, "neighborhood_similarity", nsim)
        monkeypatch.setattr(idx, "summaries", Tagged(idx.summaries))
        audit = SearchAudit()
        range_search(q, idx, r, weights=w, audit=audit)
        assert seen
        assert any(kind == "seed" for kind, _, _ in audit.prunes)
        q_assoc = association_vectors(q)
        for qe, te in seen:
            cs = edge_similarity(q_assoc[qe], idx.assoc[te], w)
            assert cs + (q.n_edges - 1) >= r
