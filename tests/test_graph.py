"""Graph model: schema and value validation, adjacency, file round trips."""

import json
import math

import pytest

from contextgraph.graph import (CATEGORICAL, CATEGORICAL_SET, NUMERIC,
                                FeatureSchema, Graph, GraphLoadError,
                                load_graph, load_schema, save_graph,
                                save_schema)

PLAIN = FeatureSchema(("x",), (NUMERIC,))


def path_graph(n, schema=PLAIN, directed=False):
    feats = [(float(i),) for i in range(n)]
    return Graph(directed, schema, feats, [(i, i + 1) for i in range(n - 1)])


class TestSchema:
    def test_length_is_dimension(self):
        s = FeatureSchema(("a", "b"), (NUMERIC, CATEGORICAL))
        assert len(s) == 2

    def test_rejects_duplicate_names(self):
        with pytest.raises(GraphLoadError, match="duplicate feature name"):
            FeatureSchema(("a", "a"), (NUMERIC, NUMERIC))

    def test_rejects_unknown_kind(self):
        with pytest.raises(GraphLoadError, match="unknown feature kind"):
            FeatureSchema(("a",), ("floaty",))

    def test_rejects_empty(self):
        with pytest.raises(GraphLoadError, match="at least one"):
            FeatureSchema((), ())

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphLoadError, match="differ in length"):
            FeatureSchema(("a", "b"), (NUMERIC,))


class TestGraphValidation:
    def test_counts(self):
        g = path_graph(4)
        assert g.n_nodes == 4
        assert g.n_edges == 3

    def test_rejects_self_loop(self):
        with pytest.raises(GraphLoadError, match="self-loop"):
            Graph(False, PLAIN, [(1.0,), (2.0,)], [(0, 1), (1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphLoadError, match="duplicate edge"):
            Graph(False, PLAIN, [(1.0,), (2.0,)], [(0, 1), (0, 1)])

    def test_undirected_reversed_edge_is_duplicate(self):
        with pytest.raises(GraphLoadError, match="duplicate edge"):
            Graph(False, PLAIN, [(1.0,), (2.0,)], [(0, 1), (1, 0)])

    def test_directed_keeps_both_orientations(self):
        g = Graph(True, PLAIN, [(1.0,), (2.0,)], [(0, 1), (1, 0)])
        assert g.n_edges == 2

    def test_rejects_endpoint_out_of_range(self):
        with pytest.raises(GraphLoadError, match="out of range"):
            Graph(False, PLAIN, [(1.0,), (2.0,)], [(0, 2)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(GraphLoadError, match="expected 1 features"):
            Graph(False, PLAIN, [(1.0, 2.0)], [])

    def test_rejects_negative_numeric(self):
        with pytest.raises(GraphLoadError, match="non-negative"):
            Graph(False, PLAIN, [(-1.0,)], [])

    def test_rejects_non_finite_numeric(self):
        with pytest.raises(GraphLoadError, match="finite"):
            Graph(False, PLAIN, [(math.inf,)], [])

    def test_rejects_duplicate_node_id(self):
        with pytest.raises(GraphLoadError, match="duplicate node id"):
            Graph(False, PLAIN, [(1.0,), (2.0,)], [], node_ids=("n", "n"))

    def test_rejects_string_as_set(self):
        schema = FeatureSchema(("tags",), (CATEGORICAL_SET,))
        with pytest.raises(GraphLoadError, match="collection of symbols"):
            Graph(False, schema, [("ab",)], [])

    def test_set_values_canonicalized_sorted(self):
        schema = FeatureSchema(("tags",), (CATEGORICAL_SET,))
        g = Graph(False, schema, [({"b", "a"},)], [])
        assert g.node_features[0][0] == ("a", "b")

    def test_default_ids_are_dense(self):
        g = path_graph(3)
        assert g.node_ids == ("0", "1", "2")


class TestAdjacency:
    def test_triangle_edge_sees_other_two(self, collab_query):
        assert collab_query.adjacent_edges(0) == (1, 2)

    def test_path_middle(self):
        g = path_graph(3)
        assert g.adjacent_edges(0) == (1,)
        assert g.adjacent_edges(1) == (0,)

    def test_star_edge_sees_other_three(self):
        feats = [(float(i),) for i in range(5)]
        g = Graph(False, PLAIN, feats, [(0, i) for i in range(1, 5)])
        for e in range(4):
            assert g.adjacent_edges(e) == tuple(x for x in range(4) if x != e)

    def test_adjacency_is_symmetric(self):
        import numpy as np
        from contextgraph.synth import random_graph
        g = random_graph(np.random.default_rng(1), 12, 20)
        for e in range(g.n_edges):
            for o in g.adjacent_edges(e):
                assert e in g.adjacent_edges(o)

    def test_unknown_edge_id(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.adjacent_edges(99)

    def test_neighborhood_isolated_edge(self):
        g = Graph(False, PLAIN, [(0.0,), (1.0,), (2.0,), (3.0,)],
                  [(0, 1), (2, 3)])
        assert g.adjacent_edges(0) == ()

    def test_neighborhood_four_cycle(self):
        g = Graph(False, PLAIN, [(0.0,), (1.0,), (2.0,), (3.0,)],
                  [(0, 1), (1, 2), (2, 3), (3, 0)])
        for e in range(4):
            assert len(g.adjacent_edges(e)) == 2

    def test_edge_between_both_orders_when_undirected(self):
        g = path_graph(3)
        assert g.edge_between(0, 1) == 0
        assert g.edge_between(1, 0) == 0

    def test_edge_between_respects_direction(self):
        g = Graph(True, PLAIN, [(1.0,), (2.0,)], [(0, 1)])
        assert g.edge_between(0, 1) == 0
        assert g.edge_between(1, 0) is None


MIXED = FeatureSchema(("level", "kind", "tags"),
                      (NUMERIC, CATEGORICAL, CATEGORICAL_SET))


def write_mixed_files(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text("id\tlevel\tkind\ttags\n"
                     "n1\t1.5\talpha\tx,y\n"
                     "n2\t2\tbeta\tz\n"
                     "n3\t0\talpha\t\n",
                     encoding="utf-8")
    edges.write_text("# a comment\n"
                     "n1\tn2\n"
                     "\n"
                     "n2\tn3\n",
                     encoding="utf-8")
    return nodes, edges


class TestFiles:
    def test_load_basic(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        g = load_graph(nodes, edges, MIXED)
        assert g.n_nodes == 3 and g.n_edges == 2
        assert g.node_ids == ("n1", "n2", "n3")
        assert g.node_features[0] == (1.5, "alpha", ("x", "y"))
        assert g.node_features[2] == (0.0, "alpha", ())
        assert g.edges == [(0, 1), (1, 2)]

    def test_triangle_from_files(self, tmp_path, collab_query):
        save_graph(collab_query, tmp_path / "n.tsv", tmp_path / "e.tsv")
        g = load_graph(tmp_path / "n.tsv", tmp_path / "e.tsv",
                       collab_query.schema)
        assert g.n_nodes == 3 and g.n_edges == 3
        assert len(g.schema) == 3

    def test_round_trip_exact(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        g = load_graph(nodes, edges, MIXED)
        save_graph(g, tmp_path / "n2.tsv", tmp_path / "e2.tsv")
        h = load_graph(tmp_path / "n2.tsv", tmp_path / "e2.tsv", MIXED)
        assert h.node_ids == g.node_ids
        assert h.node_features == g.node_features
        assert h.edges == g.edges

    def test_round_trip_awkward_floats(self, tmp_path):
        g = Graph(False, PLAIN, [(0.1,), (1 / 3,), (1e-17,)], [(0, 1)])
        save_graph(g, tmp_path / "n.tsv", tmp_path / "e.tsv")
        h = load_graph(tmp_path / "n.tsv", tmp_path / "e.tsv", PLAIN)
        assert h.node_features == g.node_features

    def test_unknown_endpoint_reports_line(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        edges.write_text("n1\tn99\n", encoding="utf-8")
        with pytest.raises(GraphLoadError, match=r":1: unknown node id 'n99'"):
            load_graph(nodes, edges, MIXED)

    def test_bad_numeric_reports_line(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        nodes.write_text("id\tlevel\tkind\ttags\nn1\tnan?\talpha\tx\n",
                         encoding="utf-8")
        with pytest.raises(GraphLoadError, match=":2:"):
            load_graph(nodes, edges, MIXED)

    def test_duplicate_node_reports_line(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        nodes.write_text("id\tlevel\tkind\ttags\n"
                         "n1\t1\ta\tx\n"
                         "n1\t2\tb\ty\n", encoding="utf-8")
        with pytest.raises(GraphLoadError, match=":3: duplicate node id"):
            load_graph(nodes, edges, MIXED)

    def test_header_must_match_schema(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        nodes.write_text("id\tlevel\tkind\n", encoding="utf-8")
        with pytest.raises(GraphLoadError, match="does not match schema"):
            load_graph(nodes, edges, MIXED)

    def test_column_count_reports_line(self, tmp_path):
        nodes, edges = write_mixed_files(tmp_path)
        nodes.write_text("id\tlevel\tkind\ttags\nn1\t1\ta\n", encoding="utf-8")
        with pytest.raises(GraphLoadError, match=":2: expected 4 columns"):
            load_graph(nodes, edges, MIXED)

    def test_schema_json_round_trip(self, tmp_path):
        save_schema(MIXED, True, tmp_path / "schema.json")
        schema, directed = load_schema(tmp_path / "schema.json")
        assert schema == MIXED
        assert directed is True

    def test_schema_json_rejects_garbage(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text("{", encoding="utf-8")
        with pytest.raises(GraphLoadError, match="invalid JSON"):
            load_schema(p)
        p.write_text('{"features": []}', encoding="utf-8")
        with pytest.raises(GraphLoadError, match="non-empty"):
            load_schema(p)

    @pytest.mark.parametrize("name", [["x"], "", 3, None])
    def test_schema_json_rejects_bad_feature_name(self, tmp_path, name):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"features": [{"name": name, "kind": NUMERIC}]}),
                     encoding="utf-8")
        with pytest.raises(GraphLoadError, match="feature name"):
            load_schema(p)

    @pytest.mark.parametrize("features, message", [
        ([{"name": ["x"], "kind": NUMERIC}], "feature name must be"),
        ([{"name": "x", "kind": NUMERIC}, {"name": "x", "kind": NUMERIC}],
         "duplicate feature name"),
        ([{"name": "x", "kind": "ordinal"}], "unknown feature kind")],
        ids=["bad-name", "duplicate-name", "unknown-kind"])
    def test_schema_json_errors_name_the_file(self, tmp_path, features, message):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"features": features}), encoding="utf-8")
        with pytest.raises(GraphLoadError) as info:
            load_schema(p)
        assert str(info.value).startswith(f"{p}: {message}")

    def test_schema_json_rejects_deep_nesting(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        with pytest.raises(GraphLoadError, match="invalid JSON"):
            load_schema(p)

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
    def test_schema_json_directed_must_be_boolean(self, tmp_path, flag):
        p = tmp_path / "schema.json"
        p.write_text(json.dumps({"directed": flag, "features":
                                 [{"name": "x", "kind": NUMERIC}]}),
                     encoding="utf-8")
        with pytest.raises(GraphLoadError, match="'directed' must be true or false"):
            load_schema(p)
