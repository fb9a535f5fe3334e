"""Command line interface: subcommands, formats, exit codes."""

import argparse
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import contextgraph.cli as cg_cli
import contextgraph.exemplar as cg_exemplar
import contextgraph.search as cg_search
from contextgraph.cli import main
from contextgraph.exemplar import AGG_MODES, WEIGHT_MODES, intent_topk
from contextgraph.graph import save_graph, save_schema
from contextgraph.index import MAGIC, load_index
from contextgraph.search import SCORERS, SearchParams
from contextgraph.synth import grow_query, random_graph
from conftest import edit_index_payload


def write_instance(tmp_path, seed=0, n_nodes=20, n_edges=34, query_edges=3):
    """Target + query file trio ready for the CLI."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, n_edges)
    q = grow_query(g, query_edges, rng)
    paths = {
        "schema": tmp_path / "schema.json",
        "nodes": tmp_path / "nodes.tsv",
        "edges": tmp_path / "edges.tsv",
        "query_nodes": tmp_path / "q_nodes.tsv",
        "query_edges": tmp_path / "q_edges.tsv",
        "index": tmp_path / "target.cgq",
    }
    save_schema(g.schema, g.directed, paths["schema"])
    save_graph(g, paths["nodes"], paths["edges"])
    save_graph(q, paths["query_nodes"], paths["query_edges"])
    return paths, g, q


def records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


def run(argv):
    return main([str(a) for a in argv])


class TestBuildIndex:
    def test_writes_index_and_stats(self, tmp_path, capsys):
        paths, g, _ = write_instance(tmp_path)
        code = run(["build-index", "--schema", paths["schema"],
                    "--nodes", paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"]])
        assert code == 0
        assert paths["index"].read_bytes()[:4] == MAGIC
        (stats,) = records(capsys)
        assert stats["record"] == "stats"
        assert stats["edges"] == g.n_edges
        assert stats["build_seconds"] >= 0
        assert "bins" not in stats

    def test_rebuild_is_byte_identical(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        other = tmp_path / "again.cgq"
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", other])
        assert paths["index"].read_bytes() == other.read_bytes()

    def test_dump_null_model(self, tmp_path, capsys):
        paths, g, _ = write_instance(tmp_path)
        dump = tmp_path / "null.json"
        code = run(["build-index", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"], "--dump-null-model", dump])
        assert code == 0
        doc = json.loads(dump.read_text())
        assert doc["edge_count"] == g.n_edges
        assert doc["floor"] == pytest.approx(1 / (2 * g.n_edges))
        assert len(doc["features"]) == len(g.schema)
        for feat in doc["features"]:
            assert sum(p["p"] for p in feat["pairs"]) == pytest.approx(1.0)

    def test_missing_inputs_fail(self, tmp_path, capsys):
        code = run(["build-index", "--index", tmp_path / "x.cgq"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["build-index", "query", "range", "intent", "stats"])
    def test_bucket_count_is_no_option(self, tmp_path, capsys, command):
        # the summaries' bucket count is a constant of the index module
        paths, _, _ = write_instance(tmp_path)
        required = ["--r", 1] if command == "range" else []
        code = run([command, "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"], "--buckets", 5] + required)
        assert code == 2
        assert "unrecognized arguments: --buckets" in capsys.readouterr().err
        assert not paths["index"].exists()

    @pytest.mark.parametrize("command", ["build-index", "query", "range",
                                         "oracle", "intent", "stats"])
    def test_bin_count_is_no_option(self, tmp_path, capsys, command):
        # the null model's bin count is a constant of the context module
        paths, _, _ = write_instance(tmp_path)
        required = ["--r", 1] if command == "range" else []
        code = run([command, "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"], "--bins", 5] + required)
        assert code == 2
        assert "unrecognized arguments: --bins" in capsys.readouterr().err
        assert not paths["index"].exists()

    @pytest.mark.parametrize("command",
                             ["build-index", "query", "range", "intent", "stats"])
    @pytest.mark.parametrize("option", ["--branching", "--leaf-threshold"])
    def test_tree_shape_is_no_option(self, tmp_path, capsys, command, option):
        # the tree's shape is a pair of constants of the index module
        paths, _, _ = write_instance(tmp_path)
        required = ["--r", 1] if command == "range" else []
        code = run([command, "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"], option, 3] + required)
        assert code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not paths["index"].exists()

    def test_schema_error_names_the_file(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        paths["schema"].write_text(
            '{"features": [{"name": "x", "kind": "numeric"},'
            ' {"name": "x", "kind": "categorical"}]}', encoding="utf-8")
        code = run(["build-index", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {paths['schema']}: duplicate feature "
                                f"name in schema\n")
        assert not paths["index"].exists()

    @pytest.mark.parametrize("schema", [
        '{"features": [{"name": ["x"], "kind": "numeric"}]}',
        "[" * 200000 + "]" * 200000])
    def test_bad_schema_is_an_error(self, tmp_path, capsys, schema):
        paths, _, _ = write_instance(tmp_path)
        paths["schema"].write_text(schema, encoding="utf-8")
        code = run(["build-index", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--index", paths["index"]])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not paths["index"].exists()


class TestQuery:
    def build(self, paths):
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])

    def test_from_index(self, tmp_path, capsys):
        paths, g, q = write_instance(tmp_path)
        self.build(paths)
        capsys.readouterr()
        code = run(["query", "--index", paths["index"],
                    "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"], "--k", 5])
        assert code == 0
        recs = records(capsys)
        header, matches = recs[0], recs[1:]
        assert header["record"] == "header"
        assert header["k"] == 5
        assert sum(header["weights"]) == pytest.approx(1.0)
        assert 1 <= len(matches) <= 5
        assert [m["rank"] for m in matches] == list(range(1, len(matches) + 1))
        scores = [m["score"] for m in matches]
        assert scores == sorted(scores, reverse=True)
        # node maps speak original ids
        for m in matches:
            for qid, tid in m["node_map"].items():
                assert qid in q.node_ids
                assert tid in g.node_ids

    def test_files_only_equals_index_path(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        self.build(paths)
        capsys.readouterr()
        run(["query", "--index", paths["index"],
             "--query-nodes", paths["query_nodes"],
             "--query-edges", paths["query_edges"]])
        via_index = records(capsys)
        run(["query", "--schema", paths["schema"], "--nodes", paths["nodes"],
             "--edges", paths["edges"],
             "--query-nodes", paths["query_nodes"],
             "--query-edges", paths["query_edges"]])
        via_files = records(capsys)
        strip = lambda recs: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in recs]
        assert strip(via_index) == strip(via_files)

    def test_index_and_files_conflict(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        self.build(paths)
        capsys.readouterr()
        code = run(["query", "--index", paths["index"], "--schema",
                    paths["schema"], "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"]])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_query_files(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        self.build(paths)
        capsys.readouterr()
        code = run(["query", "--index", paths["index"]])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_tsv_format(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        self.build(paths)
        capsys.readouterr()
        code = run(["query", "--index", paths["index"],
                    "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"], "--format", "tsv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# ")
        assert lines[1].startswith("# columns: ")
        columns = lines[1].split(": ", 1)[1].split("\t")
        row = dict(zip(columns, lines[2].split("\t")))
        assert float(row["score"]) > 0
        assert int(row["rank"]) == 1


class TestOracle:
    def test_agrees_with_indexed_query(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path, seed=3)
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        capsys.readouterr()
        run(["query", "--index", paths["index"], "--query-nodes",
             paths["query_nodes"], "--query-edges", paths["query_edges"]])
        fast = records(capsys)[1:]
        code = run(["oracle", "--index", paths["index"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"]])
        assert code == 0
        slow = records(capsys)[1:]
        assert [m["score"] for m in fast] == [m["score"] for m in slow]

    def test_range_mode(self, tmp_path, capsys):
        paths, _, q = write_instance(tmp_path, seed=4)
        code = run(["oracle", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--r", q.n_edges - 0.5])
        assert code == 0
        recs = records(capsys)
        assert all(m["score"] >= q.n_edges - 0.5 for m in recs[1:])

    @pytest.mark.parametrize("r", ["nan", "inf"])
    def test_rejects_non_finite_threshold(self, tmp_path, capsys, r):
        paths, _, _ = write_instance(tmp_path, seed=4)
        code = run(["oracle", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--r", r])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r must be finite\n"

    @pytest.mark.parametrize("k", [0, -1])
    def test_range_mode_rejects_k_below_one(self, tmp_path, capsys, k):
        # range mode ignores k, but a k the top-k mode rejects is an error
        paths, _, _ = write_instance(tmp_path, seed=4)
        code = run(["oracle", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--r", 1, "--k", k])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be >= 1\n"

    def test_refuses_large_target(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path, seed=5, n_nodes=150,
                                     n_edges=5001, query_edges=1)
        code = run(["oracle", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"]])
        assert code == 1
        assert "refuses" in capsys.readouterr().err

    def test_force_overrides_refusal(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path, seed=5, n_nodes=150,
                                     n_edges=5001, query_edges=1)
        code = run(["oracle", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--force", "--k", 3])
        assert code == 0
        assert len(records(capsys)) == 4


def count_weight_calls(monkeypatch):
    """Record every weight_vector call the CLI and the engine make."""
    calls = []
    for module in (cg_cli, cg_search):
        def counted(*args, _fn=module.weight_vector, _where=module.__name__):
            calls.append(_where)
            return _fn(*args)
        monkeypatch.setattr(module, "weight_vector", counted)
    return calls


@pytest.mark.parametrize("command, extra", [("query", []), ("range", ["--r", 1.5])])
def test_weights_computed_once(tmp_path, capsys, monkeypatch, command, extra):
    paths, _, _ = write_instance(tmp_path, seed=5)
    calls = count_weight_calls(monkeypatch)
    code = run([command, "--schema", paths["schema"], "--nodes", paths["nodes"],
                "--edges", paths["edges"], "--query-nodes", paths["query_nodes"],
                "--query-edges", paths["query_edges"], *extra])
    assert code == 0
    assert len(calls) == 1, calls


@pytest.mark.parametrize("command, extra", [("query", []), ("range", ["--r", 1.5])])
def test_traditional_learns_no_weights(tmp_path, capsys, monkeypatch, command,
                                       extra):
    paths, _, _ = write_instance(tmp_path, seed=5)
    calls = count_weight_calls(monkeypatch)
    code = run([command, "--schema", paths["schema"], "--nodes", paths["nodes"],
                "--edges", paths["edges"], "--query-nodes", paths["query_nodes"],
                "--query-edges", paths["query_edges"], "--scorer", "traditional",
                *extra])
    assert code == 0
    assert calls == []
    header = records(capsys)[0]
    assert header["scorer"] == "traditional"
    assert header["weights"] is None


class TestRange:
    def test_threshold_filter(self, tmp_path, capsys):
        paths, _, q = write_instance(tmp_path, seed=6)
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        capsys.readouterr()
        code = run(["range", "--index", paths["index"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--r", q.n_edges - 0.25])
        assert code == 0
        recs = records(capsys)
        assert recs[0]["r"] == pytest.approx(q.n_edges - 0.25)
        assert recs[0]["matches"] == len(recs) - 1
        assert all(m["score"] >= q.n_edges - 0.25 for m in recs[1:])

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, tmp_path, capsys, k):
        # range search ignores k, but a k top-k search rejects is an error
        paths, _, _ = write_instance(tmp_path, seed=6)
        code = run(["range", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"],
                    "--r", 1, "--k", k])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be >= 1\n"

    def test_r_is_required(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        code = run(["range", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"], "--query-nodes",
                    paths["query_nodes"], "--query-edges", paths["query_edges"]])
        assert code == 2


class TestIntent:
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one_before_loading(self, tmp_path, capsys, k):
        # no file exists: k is checked before the index or exemplars are read
        missing = tmp_path / "missing"
        code = run(["intent", "--index", missing, "--k", k, "--bijection",
                    missing, "--query-nodes", missing, "--query-edges", missing,
                    "--query-nodes", missing, "--query-edges", missing])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: k must be >= 1\n"

    def test_two_exemplars(self, tmp_path, capsys):
        paths, g, q = write_instance(tmp_path, seed=7)
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        # second exemplar: the same query under renamed ids
        qn2 = tmp_path / "q2_nodes.tsv"
        qe2 = tmp_path / "q2_edges.tsv"
        renamed = q.node_ids
        text = (paths["query_nodes"].read_text())
        for nid in renamed:
            text = text.replace(f"\n{nid}\t", f"\nx{nid}\t")
        qn2.write_text(text, encoding="utf-8")
        qe2.write_text("\n".join("\t".join(f"x{p}" for p in line.split("\t"))
                                 for line in paths["query_edges"].read_text().splitlines())
                       + "\n", encoding="utf-8")
        bij = tmp_path / "bij.tsv"
        bij.write_text("".join(f"2\t{nid}\tx{nid}\n" for nid in renamed),
                       encoding="utf-8")
        capsys.readouterr()
        code = run(["intent", "--index", paths["index"],
                    "--query-nodes", paths["query_nodes"], "--query-edges",
                    paths["query_edges"], "--query-nodes", qn2,
                    "--query-edges", qe2, "--bijection", bij, "--k", 4,
                    "--agg-mode", "mean"])
        assert code == 0
        recs = records(capsys)
        header = recs[0]
        assert header["exemplars"] == 2
        assert header["agg_mode"] == "mean"
        assert set(header["exact_match"]) == set(g.schema.names)
        assert len(recs) > 1
        assert recs[1]["score"] == pytest.approx(q.n_edges)

    def test_weights_learned_once(self, tmp_path, capsys, monkeypatch):
        paths, _, q = write_instance(tmp_path, seed=7)
        bij = tmp_path / "bij.tsv"
        bij.write_text("".join(f"2\t{nid}\t{nid}\n" for nid in q.node_ids),
                       encoding="utf-8")
        calls = []

        def counted(*args, _fn=cg_exemplar.weight_vector):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(cg_exemplar, "weight_vector", counted)
        code = run(["intent", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"],
                    "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"], "--bijection", bij])
        assert code == 0
        assert len(calls) == 2

    def test_needs_two_exemplars(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        code = run(["intent", "--schema", paths["schema"], "--nodes",
                    paths["nodes"], "--edges", paths["edges"],
                    "--query-nodes", paths["query_nodes"],
                    "--query-edges", paths["query_edges"]])
        assert code == 1
        assert "two" in capsys.readouterr().err


class TestStats:
    def test_from_index(self, tmp_path, capsys):
        paths, g, _ = write_instance(tmp_path, seed=9)
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        capsys.readouterr()
        code = run(["stats", "--index", paths["index"]])
        assert code == 0
        (stats,) = records(capsys)
        assert stats["edges"] == g.n_edges
        assert stats["tree_height"] >= 1

    def test_unknown_command_exits_two(self, capsys):
        assert run(["transmogrify"]) == 2

    def test_malformed_index_payload(self, tmp_path, capsys):
        paths, _, _ = write_instance(tmp_path)
        run(["build-index", "--schema", paths["schema"], "--nodes",
             paths["nodes"], "--edges", paths["edges"], "--index", paths["index"]])
        capsys.readouterr()
        edit_index_payload(paths["index"], lambda doc: doc.pop("edges"))
        code = run(["stats", "--index", paths["index"]])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unreadable_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.cgq"
        bad.write_bytes(b"not an index")
        code = run(["stats", "--index", bad])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def test_documented_subcommands_match_parser():
    parser = cg_cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    docstring = re.search(r"Subcommands: ([^.]+)\.", cg_cli.__doc__).group(1)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    bullet = re.search(r"- \*\*CLI\.\*\* (.+?) subcommands;", readme, re.S).group(1)
    assert set(docstring.split(", ")) == set(sub.choices)
    assert set(re.findall(r"`([^`]+)`", bullet)) - {"contextgraph"} == \
        set(sub.choices)


def test_documented_flags_match_parser():
    # every --flag the README's command line section names is an option of
    # some subcommand, so a flag removed from the parser cannot stay documented
    parser = cg_cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in sub.choices.values() for a in p._actions
               for o in a.option_strings}
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = re.search(r"^## Command line$(.+?)^## ", readme,
                        re.S | re.M).group(1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert documented
    assert documented <= options, documented - options


def test_search_settings_come_from_the_library():
    parser = cg_cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]

    def option(command, flag):
        (action,) = [a for a in sub.choices[command]._actions
                     if flag in a.option_strings]
        return action

    for command in ("query", "range", "oracle", "intent"):
        assert option(command, "--k").default == SearchParams().k
    for command in ("query", "range", "oracle"):
        assert tuple(option(command, "--scorer").choices) == SCORERS
        assert option(command, "--scorer").default == SearchParams().scorer
    defaults = inspect.signature(intent_topk).parameters
    for flag, modes in (("--weight-mode", WEIGHT_MODES),
                        ("--agg-mode", AGG_MODES)):
        assert tuple(option("intent", flag).choices) == modes
        name = flag[2:].replace("-", "_")
        assert option("intent", flag).default == defaults[name].default
