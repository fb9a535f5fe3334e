"""Search engines: growth semantics, oracle, indexed top-k/range equivalence."""

import ast
import dataclasses
import functools
import inspect
import math
import sys
import time
from heapq import heapify, heappop, heappush
from itertools import product, takewhile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import contextgraph.exemplar as cg_exemplar
import contextgraph.index as cg_index
import contextgraph.search as cg_search
from contextgraph.context import weight_vector
from contextgraph.exemplar import ExemplarSet, hybrid_context, intent_topk
from contextgraph.graph import CATEGORICAL, NUMERIC, FeatureSchema, Graph
from contextgraph.index import build_index, load_index, save_index
from contextgraph.search import (SCORERS, SearchAudit, SearchParams,
                                 SearchTimeout, _PairTableScorer,
                                 _TraditionalScorer, _build_scorer,
                                 _child_scan, _extensions, _growth_slack,
                                 _seed_orientations, admissible, enumerate_mcs,
                                 naive_range, naive_topk, range_search,
                                 topk_search)
from contextgraph.similarity import (association_vectors, edge_similarity,
                                     pair_similarity_table)
from contextgraph.synth import grow_query, random_graph, spatial_graph
from conftest import (index_with_tree, intent_scorer, make_instance,
                      shifted_exemplars, signed_zero_graph)

CAT1 = FeatureSchema(("c",), (CATEGORICAL,))


def cat_graph(values, edges, directed=False):
    return Graph(directed, CAT1, [(v,) for v in values], edges)


def assert_extensions_ascend(q, g):
    """g's incident lists ascend, and _extensions yields each (query edge,
    target edge) pair once, in ascending order, from every seed of q in g
    and from every one-step growth of a seed."""
    for edges in g.incident:
        assert list(edges) == sorted(set(edges))

    def check(nmap, pairs, depth):
        exts = _extensions(q, g, nmap, pairs)
        keys = [(qe, te) for qe, te, _ in exts]
        assert keys == sorted(set(keys))
        if depth:
            for qe, te, new in exts:
                check({**nmap, **dict(new)}, pairs | {(qe, te)}, depth - 1)

    for qe in range(q.n_edges):
        for te in range(g.n_edges):
            for ori in _seed_orientations(q, g, qe, te):
                check(dict(ori), frozenset(((qe, te),)), 1)


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

    @pytest.mark.parametrize("directed", [False, True])
    def test_extensions_ascend_on_random_graphs(self, directed):
        rng = np.random.default_rng(40 + directed)
        g = random_graph(rng, 16, 40, directed=directed)
        assert_extensions_ascend(grow_query(g, 4, rng), g)

    def test_extensions_ascend_on_loaded_index_graph(self, tmp_path):
        rng = np.random.default_rng(42)
        save_index(build_index(random_graph(rng, 16, 40)), tmp_path / "g.cgq")
        g = load_index(tmp_path / "g.cgq").graph
        assert_extensions_ascend(grow_query(g, 4, rng), g)


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

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
    def test_range_rejects_non_finite_threshold(self, r):
        g, q = make_instance(np.random.default_rng(10))
        with pytest.raises(ValueError, match="r must be finite"):
            naive_range(q, g, r)

    def test_bin_count_is_no_parameter(self):
        g, q = make_instance(np.random.default_rng(11))
        with pytest.raises(TypeError):
            naive_topk(q, g, 1, bins=5)
        with pytest.raises(TypeError):
            naive_range(q, g, 0.0, bins=5)


class TestIndexedTopK:
    def test_matches_naive_scores(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            g, q = make_instance(rng)
            idx = index_with_tree(g, branching=int(rng.integers(2, 5)),
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
            idx = index_with_tree(g, leaf_threshold=int(rng.integers(1, 24)))
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
            idx = index_with_tree(g, leaf_threshold=6)
            got = topk_search(q, idx, SearchParams(k=5, scorer="traditional"))
            want = naive_topk(q, g, 5, scorer="traditional")
            assert [m.score for m in got] == [m.score for m in want]

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(13)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=4)
        a = topk_search(q, idx, SearchParams(k=6))
        b = topk_search(q, idx, SearchParams(k=6))
        assert [(m.score, m.mapping.signature()) for m in a] == \
            [(m.score, m.mapping.signature()) for m in b]

    def test_results_are_maximal_mappings(self):
        rng = np.random.default_rng(14)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=4)
        for m in topk_search(q, idx, SearchParams(k=10)):
            assert _extensions(q, g, m.mapping.node_map, m.mapping.edge_pairs) == []

    def test_explicit_weights_respected(self):
        rng = np.random.default_rng(15)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=4)
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
        idx = index_with_tree(g, leaf_threshold=4)
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


class TestSearchParams:
    """SearchParams checks k and the scorer once, when it is made, for every
    search that takes them."""

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            SearchParams(k=k)

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_every_search_rejects_k_that_is_no_integer(self, k):
        g, q = make_instance(np.random.default_rng(20))
        idx = build_index(g)
        with pytest.raises(ValueError, match="k must be an integer"):
            topk_search(q, idx, SearchParams(k=k))
        with pytest.raises(ValueError, match="k must be an integer"):
            range_search(q, idx, 1.0, SearchParams(k=k))
        with pytest.raises(ValueError, match="k must be an integer"):
            intent_topk(shifted_exemplars(q), idx, SearchParams(k=k))
        with pytest.raises(ValueError, match="k must be an integer"):
            naive_topk(q, g, k)

    def test_numpy_integer_k(self):
        g, q = make_instance(np.random.default_rng(21))
        idx = build_index(g)
        got = topk_search(q, idx, SearchParams(k=np.int64(3)))
        assert [m.score for m in got] == \
            [m.score for m in topk_search(q, idx, SearchParams(k=3))]

    def test_naive_range_rejects_unknown_scorer(self):
        g, q = make_instance(np.random.default_rng(22))
        with pytest.raises(ValueError, match="unknown scorer 'psychic'"):
            naive_range(q, g, 1.0, scorer="psychic")

    def test_settings_cannot_change_after_the_check(self):
        params = SearchParams(k=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.k = 0


def listing(matches):
    """(score, signature, node map) of every match, in the oracle's order."""
    return sorted(((m.score, m.mapping.signature(),
                    sorted(m.mapping.node_map.items())) for m in matches),
                  key=lambda t: (-t[0], t[1]))


class TestOnePairOrientation:
    """A one-pair signature maximal in both orientations of an undirected
    seed: the oracle reports the orientation the indexed engine offers, the
    best-scoring one, or the first _seed_orientations yields on ties."""

    @staticmethod
    def assert_engines_agree(q, g, idx, scorer):
        params = SearchParams(k=10 ** 9, scorer=scorer)
        want = naive_range(q, g, 0.0, scorer=scorer)
        assert listing(range_search(q, idx, 0.0, params)) == listing(want)
        assert listing(topk_search(q, idx, params)) == listing(want)
        assert listing(naive_topk(q, g, 10 ** 9, scorer=scorer)) == listing(want)

    def test_path_onto_single_edge(self):
        schema = FeatureSchema(("x",), (NUMERIC,))
        q = Graph(False, schema, [(1.0,), (2.0,), (3.0,)], [(0, 1), (1, 2)])
        g = Graph(False, schema, [(1.0,), (5.0,)], [(0, 1)])
        idx = build_index(g)
        want = naive_topk(q, g, 5, scorer="traditional")
        assert [m.score for m in want] == pytest.approx([2.4, 2.1])
        assert [m.mapping.node_map for m in want] == [{0: 0, 1: 1}, {1: 0, 2: 1}]
        for scorer in ("contextual", "traditional"):
            self.assert_engines_agree(q, g, idx, scorer)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scorer=st.sampled_from(("contextual", "traditional")))
    # the two orientations of a terminal seed score one rounding step apart
    # and share one state bound: the engine must still offer the better one
    @example(seed=158, scorer="traditional")
    def test_sparse_targets_with_isolated_edges(self, seed, scorer):
        rng = np.random.default_rng(seed)
        core = int(rng.integers(3, 9))
        isolated = int(rng.integers(1, 4))
        base = random_graph(rng, core + 2 * isolated, int(rng.integers(1, core)))
        # keep the sparse edges among the first nodes, then pair the rest
        # off into edges that touch no other edge
        edges = [(u, v) for u, v in base.edges if v < core]
        edges += [(core + 2 * i, core + 2 * i + 1) for i in range(isolated)]
        g = Graph(False, base.schema, base.node_features, edges)
        q = grow_query(random_graph(rng, 6, 8), int(rng.integers(1, 4)), rng)
        idx = index_with_tree(g, leaf_threshold=int(rng.integers(1, 6)))
        self.assert_engines_agree(q, g, idx, scorer)


class TestEdgelessQuery:
    @pytest.mark.parametrize("directed", [False, True])
    def test_every_search_returns_nothing(self, directed):
        # the scorers build their pair tables before the engine's early
        # return for a query without edges, so that path must hold up too
        g = random_graph(np.random.default_rng(37), 12, 20, directed=directed)
        idx = index_with_tree(g, leaf_threshold=4)
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
            idx = index_with_tree(g, leaf_threshold=g.n_edges + 1)
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
        idx = index_with_tree(g, leaf_threshold=3)
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
        idx = index_with_tree(g, leaf_threshold=3)
        es = shifted_exemplars(q)
        calls = []

        def counted(graph, _fn=cg_search.association_vectors):
            calls.append(graph)
            return _fn(graph)

        for mod in (cg_search, cg_index, cg_exemplar):
            monkeypatch.setattr(mod, "association_vectors", counted)
        # the vectors the context was learned from are the ones it scores with
        context = hybrid_context(es, idx.null_model)
        intent_topk(es, idx, SearchParams(k=3), context=context)
        assert len(calls) == len(es)
        assert all(a is b for a, b in zip(calls, es.graphs))

    def test_computed_once_per_exemplar_without_context(self, monkeypatch):
        # the vectors that decide the exact-relation features also score
        rng = np.random.default_rng(23)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=3)
        es = shifted_exemplars(q)
        calls = []

        def counted(graph, _fn=cg_search.association_vectors):
            calls.append(graph)
            return _fn(graph)

        for mod in (cg_search, cg_index, cg_exemplar):
            monkeypatch.setattr(mod, "association_vectors", counted)
        intent_topk(es, idx, SearchParams(k=3))
        assert len(calls) == len(es) == 2
        assert all(a is b for a, b in zip(calls, es.graphs))


class TestAudit:
    def test_prunes_never_cut_reachable_scores(self):
        rng = np.random.default_rng(20)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=3)
        audit = SearchAudit()
        topk_search(q, idx, SearchParams(k=3), audit=audit)
        assert audit.expanded > 0
        assert audit.offers > 0
        for kind, bound, threshold in audit.prunes:
            assert bound <= threshold + 1e-12

    def test_intent_prunes_never_cut_reachable_scores(self):
        rng = np.random.default_rng(20)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=3)
        audit = SearchAudit()
        intent_topk(shifted_exemplars(q), idx, SearchParams(k=3), audit=audit)
        assert audit.expanded > 0
        assert audit.offers > 0
        for kind, bound, threshold in audit.prunes:
            assert bound <= threshold + 1e-12

    def test_range_prunes_stay_below_threshold(self):
        rng = np.random.default_rng(21)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=3)
        audit = SearchAudit()
        r = 1.5
        range_search(q, idx, r, audit=audit)
        for kind, bound, threshold in audit.prunes:
            assert bound < threshold

    def test_least_trace_is_monotone(self):
        rng = np.random.default_rng(22)
        g, q = make_instance(rng)
        idx = index_with_tree(g, leaf_threshold=3)
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
        scorer = make_scorer(kind, q, index_with_tree(g, leaf_threshold=3))
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
        idx = index_with_tree(g, leaf_threshold=3)
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


class TestChildScan:
    @staticmethod
    def reference(q, g, scorer, admit, score, nmap, sig, handled, floor):
        # _extensions less the handled query edges, then the estimate of
        # each child and the filter on it, in the order a growth queue pops
        # one expansion's children: (-est, qe, -gain, te)
        slack = _growth_slack(q.n_edges)
        exts = [ext for ext in _extensions(q, g, nmap, sig, admit)
                if ext[0] not in handled]
        kids = []
        for qe, te, new in exts:
            gain = scorer.pair_gain(qe, te, new)
            est = scorer.state_bound(score + gain,
                                     len(sig) + 1 + len(handled),
                                     len(nmap) + len(new)) + slack
            if est > floor:
                kids.append((-est, qe, -gain, te, new))
        return bool(exts), [(negest, qe, te, new)
                            for negest, qe, _, te, new in sorted(kids)]

    @staticmethod
    def drain(scan, advance, score, nmap, sig, handled, floor, on_stop):
        # the children of one state as a growth queue pops them: the
        # scan's heads, each pop moving its list's cursor on at the fixed
        # floor; (negest, qe) is unique per live entry, so src is never
        # compared
        has_ext, queue = scan(score, nmap, sig, handled, floor, on_stop)
        heapify(queue)
        settled = len(sig) + 1 + len(handled)
        kids = []
        while queue:
            negest, qe, pos, src = heappop(queue)
            (_, tes, cands), free_q, _, _ = src
            nxt = advance(score, settled, len(nmap) + 1, pos, src, floor,
                          on_stop)
            if nxt is not None:
                heappush(queue, (nxt[0], qe, nxt[1], src))
            new = () if free_q is None else ((free_q, cands[pos]),)
            kids.append((negest, qe, tes[pos], new))
        return has_ext, kids

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["contextual", "traditional", "min", "mean"]),
           directed=st.booleans(), filtered=st.booleans(),
           query_edges=st.integers(2, 5))
    def test_scan_equals_extensions_and_estimate(self, seed, kind, directed,
                                                 filtered, query_edges):
        # one _child_scan serves every state of the instance, so later
        # states read candidate lists built for earlier ones; floors run
        # from -inf to above the best estimate, through each estimate itself
        rng = np.random.default_rng(seed)
        g, q = make_instance(rng, max_nodes=14, directed=directed,
                             query_edges=query_edges)
        idx = index_with_tree(g, leaf_threshold=3)
        scorer = make_scorer(kind, q, idx)
        admit = None
        if filtered:
            features = range(len(q.schema))
            admit = admissible(
                q, idx, scorer.q_assoc,
                [f for f in features if rng.random() < 0.4],
                [f for f in features if rng.random() < 0.4])
        scan, advance = _child_scan(q, g, scorer, admit)
        stack = [(dict(ori), ((qe, te),)) for qe in range(q.n_edges)
                 for te in range(g.n_edges)
                 for ori in _seed_orientations(q, g, qe, te, admit)]
        seen = set()
        states = 0
        while stack and states < 150:
            nmap, sig = stack.pop()
            states += 1
            score = scorer.state_score(nmap, sig)
            used = {qe for qe, _ in sig}
            handled = {e for e in range(q.n_edges)
                       if e not in used and rng.random() < 0.3}
            _, everything = self.reference(q, g, scorer, admit, score, nmap,
                                           sig, handled, -math.inf)
            ests = sorted({-negest for negest, *_ in everything})
            floors = [-math.inf, *ests, *(a + (b - a) / 2 for a, b
                                          in zip(ests, ests[1:])),
                      (ests[-1] if ests else 0.0) + 1.0]
            for floor in floors:
                has_ext, want = self.reference(q, g, scorer, admit, score,
                                               nmap, sig, handled, floor)
                stops = []
                got_ext, got = self.drain(scan, advance, score, nmap, sig,
                                          handled, floor, stops.append)
                assert got_ext == has_ext
                assert got == want
                assert all(est <= floor for est in stops)
                assert len(stops) <= len(everything) - len(want)
                assert bool(stops) or len(want) == len(everything)
            for qe, te, new in _extensions(q, g, nmap, sig, admit=admit):
                sig2 = tuple(sorted(sig + ((qe, te),)))
                if sig2 not in seen:
                    seen.add(sig2)
                    stack.append(({**nmap, **dict(new)}, sig2))

    def test_equal_estimates_pop_in_list_order(self):
        # two entries of one list whose gains differ but round to one
        # estimate pop in list order, larger gain first, though its edge id
        # is the larger: a queue of every child sorted by (-est, qe, te)
        # popped them the other way round
        class Scorer:
            gains = {0: 1.0, 1: 0.5, 2: 0.5 + 2.0 ** -53}

            def pair_gain(self, qe, te, new):
                return self.gains[te]

            def state_bound(self, score, n_pairs, n_nodes):
                return score

        # query path 0-1-2 grown from its first edge mapped onto star edge
        # 0 = (0, 1): its second edge extends from target node 0 along
        # edge 1 or 2
        g = cat_graph("aaaa", [(0, 1), (0, 2), (0, 3)])
        q = cat_graph("aaa", [(0, 1), (1, 2)])
        scorer = Scorer()
        assert scorer.gains[1] != scorer.gains[2]
        assert 1.0 + scorer.gains[1] == 1.0 + scorer.gains[2]
        scan, advance = _child_scan(q, g, scorer, None)
        nmap, sig = {0: 1, 1: 0}, ((0, 0),)
        want = [(1, 2, ((2, 3),)), (1, 1, ((2, 2),))]
        for floor in (-math.inf, 0.0):
            has_ext, kids = self.drain(scan, advance, 1.0, nmap, sig, (),
                                       floor, None)
            assert has_ext
            assert [kid[1:] for kid in kids] == want
            assert kids[0][0] == kids[1][0]
        _, ref = self.reference(q, g, scorer, None, 1.0, nmap, sig, (),
                                -math.inf)
        assert [kid[1:] for kid in ref] == want


class TestChildrenBuiltAtPop:
    @staticmethod
    def replicated_instance():
        g = spatial_graph(n_nodes=200, n_edges=1500, replicas=4)
        q = grow_query(g, 5, np.random.default_rng(3))
        return g, q

    def test_child_is_scored_only_when_popped(self, monkeypatch):
        # a child is queued unbuilt and scored when it is popped, so growth
        # scores no more states of two or more pairs than the queues pop;
        # scoring every child that passes the estimate made 9,592 calls
        # against 491 pops here
        g, q = self.replicated_instance()
        calls = []
        pops = []
        score = _PairTableScorer.state_score

        def counted_score(self, nmap, sig):
            if len(sig) >= 2:
                calls.append(sig)
            return score(self, nmap, sig)

        def counted_pop(heap, _fn=cg_search.heappop):
            pops.append(1)
            return _fn(heap)

        monkeypatch.setattr(_PairTableScorer, "state_score", counted_score)
        monkeypatch.setattr(cg_search, "heappop", counted_pop)
        topk_search(q, build_index(g), SearchParams(k=5))
        assert calls
        assert len(calls) <= len(pops)

    @staticmethod
    def expansions(monkeypatch, search):
        # (signature, node map) of every state grow expands: the one call
        # per expansion of the scan that _child_scan makes for the search
        seen = []

        def recorded(*args, _fn=cg_search._child_scan):
            scan, advance = _fn(*args)

            def recorded_scan(score, nmap, sig, *rest):
                seen.append((tuple(sig), tuple(sorted(nmap.items()))))
                return scan(score, nmap, sig, *rest)

            return recorded_scan, advance

        with monkeypatch.context() as mp:
            mp.setattr(cg_search, "_child_scan", recorded)
            search()
        return seen

    def test_no_state_is_expanded_twice(self, monkeypatch):
        # a child may be queued once per parent that reaches it; the visited
        # check at its pop lets only the first of those copies expand
        g, q = self.replicated_instance()
        idx = build_index(g)
        seen = self.expansions(
            monkeypatch, lambda: topk_search(q, idx, SearchParams(k=5)))
        assert seen
        assert len(set(seen)) == len(seen)
        rng = np.random.default_rng(37)
        for _ in range(6):
            g, q = make_instance(rng, min_nodes=12, query_edges=4)
            idx = index_with_tree(g, leaf_threshold=3)
            for scorer in SCORERS:
                params = SearchParams(k=int(rng.integers(1, 6)), scorer=scorer)
                seen = self.expansions(
                    monkeypatch, lambda: topk_search(q, idx, params))
                assert len(set(seen)) == len(seen)

    @staticmethod
    def growth_log(monkeypatch):
        # one top-k search of the replicated instance, logging the heads
        # each scan returns, the growth cuts made at the scan, every push
        # and pop of a child entry (a 9-tuple whose src is not None; a seed
        # holds None and the tree descent's entries are 4-tuples), and the
        # estimates computed, told apart by the function that computes them
        g, q = TestChildrenBuiltAtPop.replicated_instance()
        log = {"heads": 0, "scan_stops": 0, "pushes": [], "pops": 0,
               "scan": 0, "advance": 0}

        def recorded(*args, _fn=cg_search._child_scan):
            scan, advance = _fn(*args)

            def recorded_scan(score, nmap, sig, handled, floor, on_stop):
                def stop(est):
                    log["scan_stops"] += 1
                    if on_stop is not None:
                        on_stop(est)

                has_ext, heads = scan(score, nmap, sig, handled, floor, stop)
                log["heads"] += len(heads)
                return has_ext, heads

            return recorded_scan, advance

        def recorded_push(heap, item, _fn=cg_search.heappush):
            if len(item) == 9 and item[8] is not None:
                log["pushes"].append(item)
            return _fn(heap, item)

        def recorded_pop(heap, _fn=cg_search.heappop):
            item = _fn(heap)
            if len(item) == 9 and item[8] is not None:
                log["pops"] += 1
            return item

        bound = _PairTableScorer.state_bound

        def counted_bound(self, *args):
            caller = sys._getframe(1).f_code.co_name
            if caller in ("scan", "advance"):
                log[caller] += 1
            return bound(self, *args)

        monkeypatch.setattr(cg_search, "_child_scan", recorded)
        monkeypatch.setattr(cg_search, "heappush", recorded_push)
        monkeypatch.setattr(cg_search, "heappop", recorded_pop)
        monkeypatch.setattr(_PairTableScorer, "state_bound", counted_bound)
        topk_search(q, build_index(g), SearchParams(k=5))
        return log
    def test_one_push_per_expansion_and_pop(self, monkeypatch):
        # an expansion queues one entry per candidate list its scan keeps,
        # its heads, and popping an entry queues at most one more, the next
        # entry of that list; pushing every child that passes its estimate
        # made 9,832 growth pushes here, and one entry per expansion 729
        # (468 expansions, 681 pops); one entry per list cursor makes 1,136
        # (825 heads, 491 child pops)
        log = self.growth_log(monkeypatch)
        assert log["pushes"]
        assert len(log["pushes"]) <= log["heads"] + log["pops"]

    def test_repush_keeps_the_expansion_tick(self, monkeypatch):
        # every entry of one expansion, its heads and each re-push after a
        # pop, carries the tick drawn for that expansion, and no other
        # expansion draws it. The used-edge set in src is made once per
        # expansion and the logged entries keep it alive, so its id names
        # the expansion
        log = self.growth_log(monkeypatch)
        ticks = {}
        cursors = set()
        repushes = 0
        for _, _, t, qe, _, _, _, _, src in log["pushes"]:
            expansion = id(src[2])
            ticks.setdefault(expansion, set()).add(t)
            repushes += (expansion, qe) in cursors
            cursors.add((expansion, qe))
        assert repushes
        assert all(len(drawn) == 1 for drawn in ticks.values())
        drawn = [t for (t,) in ticks.values()]
        assert len(set(drawn)) == len(drawn)

    def test_estimates_follow_the_cursors(self, monkeypatch):
        # a scan computes one estimate per candidate list it reaches, for a
        # head or a list cut at the scan, and a pop at most one, for the
        # entry its cursor moves to; estimating every child that passes
        # the floor made 10,619 estimates here, where the cursors make
        # 1,896 (1,407 at the scans for 825 heads and 582 cuts, 489 at 491
        # child pops)
        log = self.growth_log(monkeypatch)
        assert log["heads"] and log["pops"]
        assert log["scan"] == log["heads"] + log["scan_stops"]
        assert log["advance"] <= log["pops"]


class TestSeedPairBound:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["contextual", "traditional", "min", "mean"]),
           query_edges=st.integers(2, 4))
    def test_pair_bound_covers_every_orientation(self, seed, kind, query_edges):
        # a leaf entry is dropped on its seed bound, state_bound of
        # state_score({}, ((qe, te),)) at n_nodes = 0, before any of its
        # orientations is scored, so that bound must be at least the bound
        # of every orientation, at every count of settled edges (the seed
        # plus the query edges handled before it); a pair-table seed, which
        # scores no node, reaches it exactly. The tree descent prunes on the
        # same bound of each box value, so every node on the path from the
        # root to te's leaf must bound the seed bound too. pair_gain, which
        # bounds growth, bounds it as well; under min it is the largest
        # exemplar's value, while a seed and a box take the least
        rng = np.random.default_rng(seed)
        g, q = make_instance(rng, max_nodes=12, query_edges=query_edges)
        idx = index_with_tree(g, leaf_threshold=3)
        scorer = make_scorer(kind, q, idx)
        paths = {}

        def walk(node, path):
            path = path + (node,)
            if node.is_leaf:
                paths.update((te, path) for te in node.entries)
            else:
                for child in node.children:
                    walk(child, path)

        walk(idx.root, ())
        for qe, te in product(range(q.n_edges), range(g.n_edges)):
            for settled in range(1, q.n_edges + 1):
                sig = ((qe, te),)
                seed_bound = scorer.state_bound(scorer.state_score({}, sig),
                                                settled, 0)
                ori_bounds = [
                    scorer.state_bound(scorer.state_score(dict(ori), sig),
                                       settled, 2)
                    for ori in _seed_orientations(q, g, qe, te)]
                if kind == "traditional":
                    assert all(b <= seed_bound for b in ori_bounds)
                else:
                    assert all(b == seed_bound for b in ori_bounds)
                assert seed_bound <= scorer.state_bound(
                    scorer.pair_gain(qe, te, ()), settled, 0)
                for node in paths[te]:
                    assert seed_bound <= scorer.state_bound(
                        scorer.mbr_value(qe, node.mbr), settled, 0)

    @staticmethod
    def oriented(monkeypatch, search):
        # the (query edge, target edge) pairs the search orients: _search
        # calls _seed_orientations only for the leaf entries it keeps
        seen = []

        def recorded(q, g, qe, te, *rest, _fn=cg_search._seed_orientations):
            seen.append((qe, te))
            return _fn(q, g, qe, te, *rest)

        with monkeypatch.context() as mp:
            mp.setattr(cg_search, "_seed_orientations", recorded)
            search()
        return seen

    def test_dropped_entries_are_not_oriented(self, monkeypatch):
        # under a range threshold the floor never moves, so every entry
        # whose seed bound falls below r is dropped before it is oriented:
        # no orientation may be asked of such an entry
        g = spatial_graph(120, 400, seed=3, replicas=4)
        idx = index_with_tree(g, leaf_threshold=20)
        q = grow_query(g, 3, np.random.default_rng(36))
        w = weight_vector(q, idx.null_model)
        r = q.n_edges - 0.1
        audit = SearchAudit()
        seen = self.oriented(
            monkeypatch, lambda: range_search(q, idx, r, weights=w, audit=audit))
        assert seen
        assert any(kind == "seed" for kind, _, _ in audit.prunes)
        q_assoc = association_vectors(q)
        for qe, te in seen:
            cs = edge_similarity(q_assoc[qe], idx.assoc[te], w)
            assert cs + (q.n_edges - 1) >= r

    def test_min_entries_drop_on_the_least_exemplar(self, monkeypatch):
        # under agg_mode="min" a seed scores its least exemplar's pair
        # value in every orientation, so an entry whose least value plus the
        # remaining query edges cannot reach r is dropped before it is
        # oriented, though the largest exemplar's value, the growth gain,
        # may reach r
        g = spatial_graph(120, 400, seed=3, replicas=4)
        idx = index_with_tree(g, leaf_threshold=20)
        q = grow_query(g, 3, np.random.default_rng(36))
        scorer = intent_scorer(shifted_exemplars(q), idx, agg_mode="min")
        m_q = q.n_edges
        r = m_q - 0.1
        values = [[[edge_similarity(qa[qe], idx.assoc[te], w)
                    for qa, w in zip(scorer.q_assocs, scorer.per_weights)]
                   for te in range(g.n_edges)] for qe in range(m_q)]
        # entries that only the largest exemplar lets through exist
        assert any(min(v) + (m_q - 1) < r <= max(v) + (m_q - 1)
                   for row in values for v in row)
        seen = self.oriented(
            monkeypatch, lambda: cg_search._search(q, idx, scorer, r=r))
        assert seen
        for qe, te in seen:
            assert min(values[qe][te]) + (m_q - 1) >= r


class TestNoSummaries:
    def test_search_never_reads_the_summaries(self):
        # leaf entries are seeded in edge-id order, so no search reads the
        # index's neighborhood summaries: top-k, range and intent answers
        # are the same once the array is gone
        g = spatial_graph(120, 400, seed=3, replicas=4)
        idx = build_index(g)
        q = grow_query(g, 4, np.random.default_rng(5))
        es = shifted_exemplars(q)

        def answers():
            runs = [topk_search(q, idx, SearchParams(k=5)),
                    range_search(q, idx, q.n_edges - 0.5),
                    topk_search(q, idx, SearchParams(k=5,
                                                     scorer="traditional")),
                    intent_topk(es, idx, SearchParams(k=5)),
                    intent_topk(es, idx, SearchParams(k=5), agg_mode="mean")]
            return [[(m.score, m.mapping.signature(),
                      sorted(m.mapping.node_map.items())) for m in run]
                    for run in runs]

        want = answers()
        assert all(want)
        del idx.summaries
        assert answers() == want


def bits(a):
    """The float64 bit patterns of an array, so that equality also tells
    0.0 from -0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(bits(got), bits(want))


@functools.lru_cache(maxsize=1)
def c10_index():
    return build_index(spatial_graph())


class TestDistinctTables:
    """The pair-table scorer and admissible compute over the index's
    distinct vectors and node rows and widen the results by class; what
    they hold equals the tables computed against every target edge and
    node, bit for bit."""

    @staticmethod
    def assert_tables_widen(scorer, idx):
        got = [np.array([np.asarray(row) for row in rows])
               for rows in scorer.rows]
        got_gain = np.array([np.asarray(row) for row in scorer.gain_rows])
        for targets in (idx.assoc, association_vectors(idx.graph)):
            want = [pair_similarity_table(qa, targets, w)
                    for qa, w in zip(scorer.q_assocs, scorer.per_weights)]
            gain = (functools.reduce(np.maximum, want) if scorer.agg_min
                    else sum(want) / scorer.u)
            assert len(got) == len(want) == scorer.u
            for table, table_want in zip(got, want):
                assert_same_bits(table, table_want)
            assert_same_bits(got_gain, gain)

    @pytest.mark.parametrize("kind", ["contextual", "min", "mean"])
    def test_c10_tables(self, kind):
        idx = c10_index()
        q = grow_query(idx.graph, 6, np.random.default_rng(2))
        self.assert_tables_widen(make_scorer(kind, q, idx), idx)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans(),
           kind=st.sampled_from(["contextual", "min", "mean"]))
    def test_tables_on_repeated_and_signed_zero_vectors(self, seed, directed,
                                                        kind):
        g = signed_zero_graph(seed, directed)
        idx = build_index(g)
        q = grow_query(g, 3, np.random.default_rng(seed))
        self.assert_tables_widen(make_scorer(kind, q, idx), idx)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans())
    def test_admissible_on_repeated_and_signed_zero_rows(self, seed,
                                                         directed):
        # read off the features one pair and one node at a time
        rng = np.random.default_rng(seed)
        g = signed_zero_graph(seed, directed)
        idx = build_index(g)
        q = grow_query(g, 3, rng)
        features = range(len(g.schema))
        em = [f for f in features if rng.random() < 0.5]
        er = [f for f in features if rng.random() < 0.5]
        qa, ga = association_vectors(q), association_vectors(g)
        admit = admissible(q, idx, qa, em, er)
        assert [list(row) for row in admit.pair_ok] == \
            [[all(qa[qe][f] == ga[te][f] for f in er)
              for te in range(g.n_edges)] for qe in range(q.n_edges)]
        assert [list(row) for row in admit.node_ok] == \
            [[all(q.node_features[qn][f] == g.node_features[tn][f]
                  for f in em)
              for tn in range(g.n_nodes)] for qn in range(q.n_nodes)]


class TestCallerWeights:
    """Caller weights hold one finite weight >= 0 per feature; the indexed
    engine and the oracle check them alike, before any search."""

    BAD = [(math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0), (-0.25, 0.75, 0.5),
           (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)]
    IDS = ["nan", "inf", "negative", "short", "long"]

    @staticmethod
    def instance():
        g = random_graph(np.random.default_rng(3), 25, 45)
        return g, grow_query(g, 3, np.random.default_rng(4)), build_index(g)

    @pytest.mark.parametrize("weights", BAD, ids=IDS)
    @pytest.mark.parametrize("scorer", SCORERS)
    def test_every_search_rejects(self, weights, scorer):
        g, q, idx = self.instance()
        params = SearchParams(k=3, scorer=scorer)
        runs = [lambda: topk_search(q, idx, params, weights=weights),
                lambda: range_search(q, idx, 1.0, params, weights=weights),
                lambda: naive_topk(q, g, 3, scorer, weights=weights),
                # checked before the enumeration, whose deadline is past
                lambda: naive_topk(q, g, 3, scorer, weights=weights,
                                   deadline=0.0),
                lambda: naive_range(q, g, 1.0, scorer, weights=weights)]
        for run in runs:
            with pytest.raises(ValueError, match="weight"):
                run()

    def test_zero_weights_and_arrays_pass(self):
        g, q, idx = self.instance()
        for w in [(0.0, 0.0, 1.0), np.array([0.25, 0.0, 0.75]), [0, 1, 0]]:
            got = topk_search(q, idx, SearchParams(k=4), weights=w)
            want = naive_topk(q, g, 4, weights=w)
            assert got and [m.score for m in got] == [m.score for m in want]
            assert all(math.isfinite(m.score) for m in got)


class TestTraditionalPruning:
    @pytest.mark.parametrize("size", [3, 4])
    def test_index_prunes_and_answers_hold(self, size):
        # a traditional pair's box value is 1.0, so the traditional scorer
        # prunes query edges, tree nodes and leaf entries on the same
        # bound as the contextual one, and its answers still equal the
        # oracle's; no prune may cut at a bound above the threshold
        g = spatial_graph(80, 200, seed=3, replicas=4)
        idx = build_index(g)
        q = grow_query(g, size, np.random.default_rng(size))
        params = SearchParams(k=5, scorer="traditional")
        audit = SearchAudit()
        got = topk_search(q, idx, params, audit=audit)
        ref = naive_topk(q, g, 5, scorer="traditional")
        assert [m.score for m in got] == [m.score for m in ref]
        r = q.n_edges + q.n_nodes - 0.5
        range_audit = SearchAudit()
        got_r = range_search(q, idx, r, params, audit=range_audit)
        ref_r = naive_range(q, g, r, scorer="traditional")
        assert ref_r
        assert (sorted((m.score, m.mapping.signature()) for m in got_r) ==
                sorted((m.score, m.mapping.signature()) for m in ref_r))
        for run in (audit, range_audit):
            kinds = {kind for kind, _, _ in run.prunes}
            # seed-orientation prunes alone do not show index pruning: the
            # bound on a box or a whole query edge must cut too
            assert kinds & {"query-edge", "tree-node"}
            assert "seed" in kinds
            assert all(bound <= least for _, bound, least in run.prunes)


class TestScorerProtocol:
    def test_docstring_names_every_member_search_reads(self):
        # the members the _search docstring lists are exactly the scorer
        # attributes _search and _child_scan read, and both scorers have
        # each of them, so a member only one scorer needs shows up here
        fns = {node.name: node
               for node in ast.parse(inspect.getsource(cg_search)).body
               if isinstance(node, ast.FunctionDef)}
        read = {node.attr for name in ("_search", "_child_scan")
                for node in ast.walk(fns[name])
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "scorer"}
        assert "pair_gain" in read
        doc = ast.get_docstring(fns["_search"]).splitlines()
        start = next(i for i, line in enumerate(doc)
                     if line.startswith("The scorer supplies"))
        block = takewhile(lambda line: line.startswith(" "), doc[start + 1:])
        listed = {line.split()[0].split("(")[0] for line in block
                  if not line.startswith("   ")}
        assert read == listed
        g, q = make_instance(np.random.default_rng(3))
        idx = build_index(g)
        for scorer in (make_scorer("contextual", q, idx),
                       make_scorer("traditional", q, idx)):
            for name in listed:
                assert hasattr(scorer, name), (type(scorer).__name__, name)
