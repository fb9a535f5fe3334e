"""Edge index: MBR bounds, tree construction, summaries, persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextgraph.graph import CATEGORICAL_SET, NUMERIC, FeatureSchema, Graph
from contextgraph.index import (BUCKETS, MBR, EdgeIndex, IndexFileError,
                                TreeNode, bucket_index, build_index,
                                construct_tree,
                                load_index, mbr_of, mbr_similarity,
                                neighborhood_similarity, neighborhood_summary,
                                save_index)
from contextgraph.similarity import (association_vector, association_vectors,
                                     edge_similarity)
from contextgraph.synth import random_graph, spatial_graph
from conftest import (edit_index_payload, signed_zero_graph,
                      write_index_payload)


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
        assert bucket_index(value) == expect

    def test_array_matches_scalars(self):
        values = [0.0, 0.05, 0.1, 0.1001, 0.55, 0.8, 0.9, 0.91, 1.0]
        assert bucket_index(np.asarray(values)).tolist() == \
            [bucket_index(v) for v in values]


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
            deg = len(g.adjacent_edges(e))
            for row in s:
                assert sum(row) == deg

    def test_similarity_self_is_one(self, collab_query):
        w = (1 / 3, 1 / 3, 1 / 3)
        s = neighborhood_summary(collab_query)[0]
        assert neighborhood_similarity(s, s, w) == pytest.approx(1.0)

    @staticmethod
    def reference(g):
        """Histograms built edge by edge from adjacent_edges."""
        assoc = association_vectors(g)
        out = []
        for e in range(g.n_edges):
            hist = [[0] * BUCKETS for _ in g.schema.names]
            for other in g.adjacent_edges(e):
                for i, x in enumerate(assoc[other]):
                    hist[i][bucket_index(x)] += 1
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
            summaries = neighborhood_summary(g)
            assert summaries.shape == (g.n_edges, len(g.schema), BUCKETS)
            assert summaries.dtype == np.int32
            assert summaries.tolist() == self.reference(g)

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
        st = build_index(g).stats()
        assert st["edges"] == 35
        # fewer edges than the leaf threshold: the root is the one leaf
        assert (st["tree_nodes"], st["leaves"], st["max_leaf_size"]) == (1, 1, 35)
        for key in ("buckets", "bins", "branching", "leaf_threshold"):
            assert key not in st

    @pytest.mark.parametrize("param", ["branching", "leaf_threshold"])
    def test_tree_shape_is_no_parameter(self, param):
        # the tree's shape is a pair of constants of the index module
        g = random_graph(np.random.default_rng(6), 20, 35)
        with pytest.raises(TypeError):
            build_index(g, **{param: 3})

    def test_benchmark_graph_tree_shape(self):
        # the tree the benchmark searches, under the index's constant shape
        st = build_index(spatial_graph()).stats()
        assert (st["tree_nodes"], st["leaves"], st["tree_height"]) == \
            (341, 256, 5)

    def test_bucket_count_is_no_parameter(self):
        g = random_graph(np.random.default_rng(6), 20, 35)
        with pytest.raises(TypeError):
            build_index(g, buckets=5)

    def test_bin_count_is_no_parameter(self):
        # the null model's bin count is a constant of the context module
        g = random_graph(np.random.default_rng(6), 20, 35)
        with pytest.raises(TypeError):
            build_index(g, bins=5)

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


def assert_classes_hold(idx, g):
    """The distinct vectors and node rows, widened by class, give every
    edge's vector and every node's row, and no two distinct ones are
    equal."""
    assert idx.edge_class.dtype == np.intp
    assert idx.node_class.dtype == np.intp
    assert np.array_equal(idx.vectors[idx.edge_class],
                          np.asarray(association_vectors(g), dtype=float))
    assert np.array_equal(idx.assoc, idx.vectors[idx.edge_class])
    rows = idx.vectors.tolist()
    assert len({tuple(row) for row in rows}) == len(rows)
    assert [idx.node_rows[c] for c in idx.node_class] == g.node_features
    assert len(set(idx.node_rows)) == len(idx.node_rows)


class TestDistinctRows:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), directed=st.booleans())
    def test_classes_widen_to_every_edge_and_node(self, seed, directed):
        g = signed_zero_graph(seed, directed)
        idx = build_index(g)
        assert_classes_hold(idx, g)
        assert len(idx.vectors) < g.n_edges

    def test_signed_zeros_share_a_class(self):
        # -0.0 == 0.0, so vectors that differ only in the sign of a zero
        # are one distinct vector
        schema = FeatureSchema(("x",), (NUMERIC,))
        g = Graph(False, schema, [(0.0,), (2.0,), (-0.0,), (3.0,)],
                  [(0, 1), (2, 3), (0, 2)])
        idx = build_index(g)
        assert idx.edge_class.tolist() == [0, 0, 1]
        assert idx.node_class.tolist() == [0, 1, 0, 2]
        assert_classes_hold(idx, g)

    def test_benchmark_graph_distinct_rows(self):
        stats = build_index(spatial_graph()).stats()
        assert (stats["distinct_vectors"], stats["distinct_node_rows"]) == \
            (660, 84)

    def test_survive_save_and_load(self, tmp_path):
        g = signed_zero_graph(11)
        idx = build_index(g)
        path = tmp_path / "g.cgq"
        save_index(idx, path)
        loaded = load_index(path)
        assert_classes_hold(loaded, loaded.graph)
        assert np.array_equal(loaded.vectors, idx.vectors)
        assert loaded.edge_class.tolist() == idx.edge_class.tolist()
        assert loaded.node_rows == idx.node_rows
        assert loaded.node_class.tolist() == idx.node_class.tolist()


class TestPersistence:
    def test_round_trip_equal_index(self, tmp_path):
        # more edges than the leaf threshold, so the tree has inner nodes
        g = random_graph(np.random.default_rng(8), 120, 260)
        idx = build_index(g)
        assert not idx.root.is_leaf
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

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_rejects_future_version(self, tmp_path, version):
        g = random_graph(np.random.default_rng(11), 10, 15)
        idx = build_index(g)
        path = tmp_path / "v.cgq"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFileError, match=f"version {version}"):
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
        save_index(build_index(g), path)
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

    @pytest.mark.parametrize("directed", ["no", 1, 0, None])
    def test_rejects_directed_flag_that_is_no_boolean(self, tmp_path, directed):
        # "no" and 1 loaded as directed, 0 and null as undirected
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc.update(directed=directed))
        with pytest.raises(IndexFileError, match="'directed' must be true or false"):
            load_index(path)

    def test_rejects_version_3_file_with_bin_count(self, tmp_path):
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc.update(
            params={"branching": 4, "leaf_threshold": 100, "bins": 10}))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (3).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFileError, match="version 3"):
            load_index(path)

    def test_rejects_version_4_file_with_tree_shape(self, tmp_path):
        path = self.saved(tmp_path)
        edit_index_payload(path, lambda doc: doc.update(
            params={"branching": 4, "leaf_threshold": 100}))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (4).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFileError, match="version 4"):
            load_index(path)

    def test_payload_holds_only_the_graph(self, tmp_path):
        path = self.saved(tmp_path)
        keys = []
        edit_index_payload(path, keys.extend)
        assert sorted(keys) == ["directed", "edges", "node_features",
                                "node_ids", "schema"]

    def test_rejects_deeply_nested_payload(self, tmp_path):
        path = tmp_path / "deep.cgq"
        write_index_payload(path, "[" * 100000 + "]" * 100000)
        with pytest.raises(IndexFileError, match="corrupt"):
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
