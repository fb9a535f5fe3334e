"""Edge index: MBR bounds, tree construction, summaries, persistence."""

import numpy as np
import pytest

from contextgraph.graph import CATEGORICAL_SET, NUMERIC, FeatureSchema, Graph
from contextgraph.index import (MBR, EdgeIndex, IndexFileError, TreeNode,
                                bucket_index, build_index, construct_tree,
                                load_index, mbr_of, mbr_similarity,
                                neighborhood_similarity, neighborhood_summary,
                                save_index)
from contextgraph.similarity import (association_vector, association_vectors,
                                     edge_similarity)
from contextgraph.synth import random_graph, spatial_graph
from conftest import edit_index_payload, write_index_payload


class TestMbr:
    def test_componentwise_box(self):
        box = mbr_of([(0.2, 0.9), (0.4, 0.1), (0.3, 0.5)])
        assert box == MBR((0.2, 0.1), (0.4, 0.9))
        assert all(type(x) is float for x in box.lo + box.hi)

    def test_rejects_no_vectors(self):
        with pytest.raises(ValueError, match="at least one vector"):
            mbr_of([])

    def test_similarity_inside_is_weight_sum(self):
        box = MBR((0.2, 0.2), (0.8, 0.8))
        assert mbr_similarity((0.5, 0.5), (0.6, 0.4), box) == pytest.approx(1.0)

    def test_similarity_below_uses_low_corner(self):
        box = MBR((0.5,), (0.8,))
        # s below the box: gamma(s, lo) = 0.25 / 0.5
        assert mbr_similarity((0.25,), (1.0,), box) == pytest.approx(0.5)

    def test_similarity_above_uses_high_corner(self):
        box = MBR((0.2,), (0.5,))
        assert mbr_similarity((1.0,), (1.0,), box) == pytest.approx(0.5)

    def test_dominates_contained_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            vecs = [tuple(rng.random(3)) for _ in range(5)]
            box = mbr_of(vecs)
            s_q = tuple(rng.random(3))
            w = tuple(rng.dirichlet(np.ones(3)))
            bound = mbr_similarity(s_q, w, box)
            for v in vecs:
                assert edge_similarity(s_q, v, w) <= bound + 1e-9


class TestBuckets:
    @pytest.mark.parametrize("value,expect", [
        (0.0, 0), (0.05, 0), (0.1, 0), (0.1001, 1), (0.55, 5),
        (0.8, 7), (0.9, 8), (0.91, 9), (1.0, 9),
    ])
    def test_boundaries(self, value, expect):
        assert bucket_index(value, 10) == expect

    def test_single_bucket(self):
        assert bucket_index(0.0, 1) == 0
        assert bucket_index(1.0, 1) == 0

    def test_array_matches_scalars(self):
        values = [0.0, 0.05, 0.1, 0.1001, 0.55, 0.8, 0.9, 0.91, 1.0]
        assert bucket_index(np.asarray(values), 10).tolist() == \
            [bucket_index(v, 10) for v in values]


def leaf_entries(node):
    if node.is_leaf:
        return list(node.entries)
    return [e for c in node.children for e in leaf_entries(c)]


def assert_containment(node):
    if node.is_leaf:
        return
    for c in node.children:
        assert all(cl >= pl - 1e-12 for cl, pl in zip(c.mbr.lo, node.mbr.lo))
        assert all(ch <= ph + 1e-12 for ch, ph in zip(c.mbr.hi, node.mbr.hi))
        assert_containment(c)


class TestTree:
    def test_remainder_goes_to_last_child(self):
        rng = np.random.default_rng(1)
        vecs = [tuple(rng.random(3)) for _ in range(28)]
        root = construct_tree(vecs, range(28), branching=3, leaf_threshold=4)
        sizes = [len(leaf_entries(c)) for c in root.children]
        assert sizes == [9, 9, 10]

    def test_partition_and_containment(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = int(rng.integers(1, 120))
            vecs = [tuple(rng.random(3)) for _ in range(m)]
            root = construct_tree(vecs, range(m), branching=int(rng.integers(2, 6)),
                                  leaf_threshold=int(rng.integers(1, 20)))
            assert sorted(leaf_entries(root)) == list(range(m))
            assert_containment(root)

    def test_leaf_when_below_threshold(self):
        vecs = [(0.1,), (0.9,), (0.5,)]
        root = construct_tree(vecs, range(3), branching=2, leaf_threshold=10)
        assert root.is_leaf

    def test_leaf_when_vectors_identical(self):
        vecs = [(0.5, 0.5)] * 40
        root = construct_tree(vecs, range(40), branching=4, leaf_threshold=8)
        assert root.is_leaf
        assert len(root.entries) == 40

    def test_split_dimension_is_highest_variance(self):
        # variance lives entirely in dim 1; children separate on it
        vecs = [(0.5, v / 9) for v in range(10)]
        root = construct_tree(vecs, range(10), branching=2, leaf_threshold=2)
        left, right = root.children
        assert max(vecs[e][1] for e in leaf_entries(left)) <= \
            min(vecs[e][1] for e in leaf_entries(right))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        vecs = [tuple(rng.random(2)) for _ in range(60)]
        a = construct_tree(vecs, range(60), branching=3, leaf_threshold=5)
        b = construct_tree(vecs, range(60), branching=3, leaf_threshold=5)
        assert a == b

    def test_node_count_linear_in_edges(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = int(rng.integers(1, 300))
            vecs = [tuple(rng.random(3)) for _ in range(m)]
            root = construct_tree(vecs, range(m), branching=4, leaf_threshold=4)
            assert root.count_nodes() <= 3 * m

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            construct_tree([(0.5,)], [0], branching=1)
        with pytest.raises(ValueError):
            construct_tree([(0.5,)], [0], leaf_threshold=0)

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError, match="at least one edge"):
            construct_tree([(0.5,)], [])

    @staticmethod
    def reference(assoc, edge_ids, branching=4, leaf_threshold=100):
        """The tree built with per-element Python loops and sorts."""
        def box(ids):
            lo = list(assoc[ids[0]])
            hi = list(lo)
            for e in ids[1:]:
                for i, x in enumerate(assoc[e]):
                    if x < lo[i]:
                        lo[i] = x
                    elif x > hi[i]:
                        hi[i] = x
            return MBR(tuple(lo), tuple(hi))

        def build(ids):
            mbr = box(ids)
            if len(ids) < leaf_threshold or mbr.lo == mbr.hi:
                return TreeNode(mbr, entries=tuple(ids))
            var = np.asarray([assoc[e] for e in ids]).var(axis=0)
            dim = int(np.argmax(var))
            order = sorted(ids, key=lambda e: (assoc[e][dim], e))
            fanout = min(branching, len(ids))
            chunk = len(ids) // fanout
            children = []
            for c in range(fanout):
                stop = (c + 1) * chunk if c < fanout - 1 else len(ids)
                children.append(build(order[c * chunk:stop]))
            return TreeNode(mbr, children=tuple(children))

        return build(list(edge_ids))

    @pytest.mark.parametrize("directed", [False, True])
    def test_equals_reference_on_random_graphs(self, directed):
        rng = np.random.default_rng(41 + directed)
        for _ in range(30):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, n * (n - 1) // 2 + 1))
            assoc = association_vectors(random_graph(rng, n, m, directed=directed))
            branching = int(rng.integers(2, 7))
            leaf_threshold = int(rng.integers(1, 30))
            assert construct_tree(assoc, range(m), branching, leaf_threshold) == \
                self.reference(assoc, range(m), branching, leaf_threshold)

    def test_equals_reference_on_ties_and_duplicates(self):
        # values on a coarse grid tie on the split dimension and repeat
        # whole vectors, so the (value, edge id) order and the lo == hi
        # leaf rule both decide the shape; the ids are a shuffled subset
        rng = np.random.default_rng(43)
        for _ in range(40):
            m = int(rng.integers(1, 200))
            d = int(rng.integers(1, 4))
            grid = int(rng.integers(1, 4))
            assoc = [tuple(row) for row in rng.integers(0, grid + 1, (m, d)) / grid]
            ids = rng.permutation(m)[:int(rng.integers(1, m + 1))].tolist()
            branching = int(rng.integers(2, 6))
            leaf_threshold = int(rng.integers(1, 20))
            assert construct_tree(assoc, ids, branching, leaf_threshold) == \
                self.reference(assoc, ids, branching, leaf_threshold)

    def test_equals_reference_on_spatial_graph(self):
        g = spatial_graph()
        assoc = association_vectors(g)
        root = construct_tree(assoc, range(g.n_edges))
        assert root == self.reference(assoc, range(g.n_edges))
        assert all(type(e) is int for e in leaf_entries(root))


class TestSummaries:
    def test_triangle_histograms(self, collab_query):
        s = neighborhood_summary(collab_query)[0].tolist()
        assert s[0] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
        assert s[1] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        assert s[2] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 1]

    def test_counts_total_neighbors(self):
        g = random_graph(np.random.default_rng(5), 16, 30)
        for e, s in enumerate(neighborhood_summary(g)):
            deg = len(g.neighborhood_edges(e))
            for row in s:
                assert sum(row) == deg

    def test_similarity_self_is_one(self, collab_query):
        w = (1 / 3, 1 / 3, 1 / 3)
        s = neighborhood_summary(collab_query)[0]
        assert neighborhood_similarity(s, s, w) == pytest.approx(1.0)

    @staticmethod
    def reference(g, buckets=10):
        """Histograms built edge by edge from neighborhood_edges."""
        assoc = association_vectors(g)
        out = []
        for e in range(g.n_edges):
            hist = [[0] * buckets for _ in g.schema.names]
            for other in g.neighborhood_edges(e):
                for i, x in enumerate(assoc[other]):
                    hist[i][bucket_index(x, buckets)] += 1
            out.append(hist)
        return out

    @pytest.mark.parametrize("directed", [False, True])
    def test_equals_per_edge_histograms(self, directed):
        rng = np.random.default_rng(21 + directed)
        for _ in range(30):
            n = int(rng.integers(3, 25))
            m = int(rng.integers(1, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m, directed=directed)
            if directed:
                # add the reverse of about half the edges: explicit 2-cycles
                edges = set(g.edges)
                edges |= {(v, u) for u, v in g.edges if rng.random() < 0.5}
                g = Graph(True, g.schema, g.node_features, sorted(edges))
            buckets = int(rng.integers(1, 12))
            summaries = neighborhood_summary(g, buckets)
            assert summaries.shape == (g.n_edges, len(g.schema), buckets)
            assert summaries.dtype == np.int32
            assert summaries.tolist() == self.reference(g, buckets)

    def test_values_on_bucket_boundaries(self):
        # gamma gives 1/10 == 0.1 and 9/10 == 0.9 exactly: buckets 0 and 8
        g = Graph(False, FeatureSchema(("h",), (NUMERIC,)),
                  [(10.0,), (1.0,), (9.0,), (0.0,), (10.0,)],
                  [(0, 1), (0, 2), (2, 4), (1, 3), (0, 4)])
        assert [vec[0] for vec in association_vectors(g)] == [0.1, 0.9, 0.9, 0.0, 1.0]
        summaries = neighborhood_summary(g)
        assert summaries.tolist() == self.reference(g)
        assert summaries[4].tolist() == [[1, 0, 0, 0, 0, 0, 0, 0, 2, 0]]

    def test_similarity_counts_covered_buckets(self):
        w = (1.0,)
        s_q = ((0, 2, 1),)
        full = ((0, 2, 1),)
        half = ((0, 2, 0),)
        none = ((0, 0, 0),)
        assert neighborhood_similarity(s_q, full, w) == pytest.approx(1.0)
        assert neighborhood_similarity(s_q, half, w) == pytest.approx(0.5)
        assert neighborhood_similarity(s_q, none, w) == pytest.approx(0.0)

    def test_empty_query_summary_scores_one(self):
        w = (1.0,)
        assert neighborhood_similarity(((0, 0),), ((1, 0),), w) == 1.0

    def test_target_needs_at_least_query_count(self):
        w = (1.0,)
        s_q = ((3, 0),)
        s_t = ((2, 5),)
        assert neighborhood_similarity(s_q, s_t, w) == 0.0


class TestBuildIndex:
    def test_stats_shape(self):
        g = random_graph(np.random.default_rng(6), 20, 35)
        idx = build_index(g, branching=3, leaf_threshold=8)
        st = idx.stats()
        assert st["edges"] == 35
        assert st["tree_nodes"] >= 1
        assert st["branching"] == 3
        assert st["max_leaf_size"] <= max(8, 1)

    def test_rejects_empty_target(self):
        g = Graph(False, FeatureSchema(("t",), (CATEGORICAL_SET,)),
                  [({"a"},)], [])
        with pytest.raises(ValueError):
            build_index(g)

    def test_summaries_cover_every_edge(self):
        g = random_graph(np.random.default_rng(7), 18, 30)
        idx = build_index(g)
        assert len(idx.summaries) == g.n_edges
        assert len(idx.assoc) == g.n_edges

    @pytest.mark.parametrize("directed", [False, True])
    def test_assoc_is_one_array_of_the_vectors(self, directed):
        g = random_graph(np.random.default_rng(17), 18, 30, directed=directed)
        idx = build_index(g)
        assert isinstance(idx.assoc, np.ndarray)
        assert idx.assoc.dtype == np.float64
        assert idx.assoc.shape == (g.n_edges, len(g.schema))
        for e in range(g.n_edges):
            assert tuple(idx.assoc[e].tolist()) == association_vector(g, e)


class TestPersistence:
    def test_round_trip_equal_index(self, tmp_path):
        g = random_graph(np.random.default_rng(8), 25, 45)
        idx = build_index(g, branching=3, leaf_threshold=6)
        path = tmp_path / "g.cgq"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.graph.edges == g.edges
        assert loaded.graph.node_features == g.node_features
        assert loaded.graph.node_ids == g.node_ids
        assert np.array_equal(loaded.assoc, idx.assoc)
        assert loaded.summaries.dtype == np.int32
        assert np.array_equal(loaded.summaries, idx.summaries)
        assert loaded.root == idx.root
        assert loaded.null_model.tables == idx.null_model.tables
        assert loaded.null_model.binner == idx.null_model.binner

    def test_round_trip_bytes_stable(self, tmp_path):
        g = random_graph(np.random.default_rng(9), 22, 40)
        idx = build_index(g)
        p1 = tmp_path / "a.cgq"
        p2 = tmp_path / "b.cgq"
        save_index(idx, p1)
        save_index(load_index(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_directed_flag_preserved(self, tmp_path):
        g = random_graph(np.random.default_rng(10), 15, 25, directed=True)
        idx = build_index(g)
        path = tmp_path / "d.cgq"
        save_index(idx, path)
        assert load_index(path).graph.directed is True

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.cgq"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(IndexFileError, match="magic"):
            load_index(path)

    @pytest.mark.parametrize("version", [1, 99])
    def test_rejects_future_version(self, tmp_path, version):
        g = random_graph(np.random.default_rng(11), 10, 15)
        idx = build_index(g)
        path = tmp_path / "v.cgq"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFileError, match="version"):
            load_index(path)

    def test_rejects_truncation(self, tmp_path):
        g = random_graph(np.random.default_rng(12), 10, 15)
        idx = build_index(g)
        path = tmp_path / "t.cgq"
        save_index(idx, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 5])
        with pytest.raises(IndexFileError, match="truncat"):
            load_index(path)

    def test_rejects_trailing_garbage(self, tmp_path):
        g = random_graph(np.random.default_rng(13), 10, 15)
        idx = build_index(g)
        path = tmp_path / "g.cgq"
        save_index(idx, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(IndexFileError, match="trailing"):
            load_index(path)

    def saved(self, tmp_path):
        g = random_graph(np.random.default_rng(14), 20, 36)
        path = tmp_path / "p.cgq"
        save_index(build_index(g, branching=3, leaf_threshold=6), path)
        return path

    def test_rejects_missing_key(self, tmp_path):
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc.pop("edges"))
        with pytest.raises(IndexFileError, match="missing key 'edges'"):
            load_index(path)

    def test_rejects_wrongly_typed_payload(self, tmp_path):
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc.update(edges=7))
        with pytest.raises(IndexFileError, match="malformed"):
            load_index(path)

    def test_rejects_deeply_nested_payload(self, tmp_path):
        path = tmp_path / "deep.cgq"
        write_index_payload(path, "[" * 100000 + "]" * 100000)
        with pytest.raises(IndexFileError, match="corrupt"):
            load_index(path)

    @pytest.mark.parametrize("param, value", [("buckets", 0), ("branching", 1)])
    def test_rejects_parameters_build_index_rejects(self, tmp_path, param, value):
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc["params"].update({param: value}))
        with pytest.raises(IndexFileError, match=f"{param} must be >="):
            load_index(path)

    def test_set_values_survive_round_trip(self, tmp_path):
        schema = FeatureSchema(("tags",), (CATEGORICAL_SET,))
        g = Graph(False, schema,
                  [({"b", "a"},), ({"c"},), (set(),)],
                  [(0, 1), (1, 2)])
        idx = build_index(g)
        path = tmp_path / "s.cgq"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.graph.node_features == [(("a", "b"),), (("c",),), ((),)]
