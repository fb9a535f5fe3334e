"""Command line interface.

Subcommands: build-index, query, range, oracle, intent, stats.
Results go to stdout as JSON-lines (default) or TSV; diagnostics go to
stderr; the exit status is 0 exactly when the command succeeded. The index
takes no build options: a target given by --schema, --nodes and --edges is
built in memory into the same index that an --index file of it holds.
Search settings take their defaults and choices from the library, and each
search subcommand checks them in its SearchParams before loading anything.
"""

import argparse
import json
import sys
import time

from .context import weight_vector
from .exemplar import (AGG_MODES, WEIGHT_MODES, ExemplarSet, hybrid_context,
                       intent_topk, load_bijections)
from .graph import load_graph, load_schema
from .index import build_index, load_index, save_index
from .search import (SCORERS, SearchParams, naive_range, naive_topk,
                     range_search, topk_search)

ORACLE_EDGE_CAP = 5000


class CliError(Exception):
    """User-facing failure with a clean message and exit status 1."""


class _Writer:
    """Serializes result records as JSON-lines or TSV rows."""

    def __init__(self, fmt, out=None):
        self.fmt = fmt
        self.out = out or sys.stdout
        self._columns = None

    def emit(self, record):
        if self.fmt == "jsonl":
            print(json.dumps(record, sort_keys=True), file=self.out)
            return
        kind = record.get("record")
        if kind in ("header", "stats"):
            print("# " + json.dumps(record, sort_keys=True), file=self.out)
            self._columns = None
            return
        body = {k: v for k, v in record.items() if k != "record"}
        if self._columns is None:
            self._columns = sorted(body)
            print("# columns: " + "\t".join(self._columns), file=self.out)
        cells = []
        for col in self._columns:
            val = body.get(col)
            if isinstance(val, float):
                cells.append(repr(val))
            elif isinstance(val, (dict, list)):
                cells.append(json.dumps(val, sort_keys=True))
            else:
                cells.append(str(val))
        print("\t".join(cells), file=self.out)


def _add_target_args(p):
    """The target and output options every subcommand takes."""
    p.add_argument("--schema", help="schema JSON for the target graph")
    p.add_argument("--nodes", help="target nodes TSV")
    p.add_argument("--edges", help="target edges TSV")
    p.add_argument("--index", help="prebuilt index file")
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")


def _add_search_args(p):
    p.add_argument("--k", type=int, default=SearchParams().k)
    p.add_argument("--scorer", choices=SCORERS, default=SearchParams().scorer)
    p.add_argument("--query-nodes")
    p.add_argument("--query-edges")


def _load_target(args, missing):
    """The target graph of --schema/--nodes/--edges; CliError(missing) without them."""
    if not (args.schema and args.nodes and args.edges):
        raise CliError(missing)
    schema, directed = load_schema(args.schema)
    return load_graph(args.nodes, args.edges, schema, directed)


def _load_query(nodes_path, edges_path, schema, directed):
    if not nodes_path or not edges_path:
        raise CliError("a query needs --query-nodes and --query-edges")
    return load_graph(nodes_path, edges_path, schema, directed)


def _resolve_index(args):
    """Load a prebuilt index, or build one in memory from target files."""
    has_files = args.schema or args.nodes or args.edges
    if args.index and has_files:
        raise CliError("give either --index or --schema/--nodes/--edges, not both")
    if args.index:
        return load_index(args.index)
    g = _load_target(args, "need --index or all of --schema, --nodes, --edges")
    return build_index(g)


def _null_model_doc(index):
    nm = index.null_model
    schema = index.graph.schema
    feats = []
    for i, (name, kind) in enumerate(zip(schema.names, schema.kinds)):
        pairs = [{"value": [list(p) if isinstance(p, tuple) else p for p in key],
                  "p": nm.tables[i][key]} for key in sorted(nm.tables[i])]
        cuts = nm.binner.cuts[i]
        feats.append({"name": name, "kind": kind,
                      "cuts": list(cuts) if cuts is not None else None,
                      "pairs": pairs})
    return {"floor": nm.floor, "edge_count": nm.edge_count, "features": feats}


def _dump_null_model(index, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_null_model_doc(index), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"null model written to {path}", file=sys.stderr)


def _emit_matches(args, header, matches, g, q):
    """The header record, then one record per match of q in g, ranked from 1."""
    writer = _Writer(args.format)
    writer.emit(header)
    for rank, match in enumerate(matches, start=1):
        node_map = {q.node_ids[qn]: g.node_ids[tn]
                    for qn, tn in sorted(match.mapping.node_map.items())}
        writer.emit({"record": "match", "rank": rank, "score": match.score,
                     "edges_matched": len(match.mapping.edge_pairs),
                     "node_map": node_map,
                     "edge_pairs": [list(p) for p in match.mapping.signature()]})


def cmd_build_index(args):
    if not args.index:
        raise CliError("build-index needs --index for the output path")
    t0 = time.perf_counter()
    g = _load_target(args, "build-index needs --schema, --nodes, and --edges")
    index = build_index(g)
    built = time.perf_counter() - t0
    save_index(index, args.index)
    if args.dump_null_model:
        _dump_null_model(index, args.dump_null_model)
    writer = _Writer(args.format)
    record = {"record": "stats", "build_seconds": built, "path": args.index}
    record.update(index.stats())
    writer.emit(record)
    return 0


def cmd_search(args):
    """query (top-k) and range: one indexed search, weights learned once."""
    params = SearchParams(k=args.k, scorer=args.scorer)
    index = _resolve_index(args)
    g = index.graph
    q = _load_query(args.query_nodes, args.query_edges, g.schema, g.directed)
    # the traditional scorer uses no context weights
    weights = (weight_vector(q, index.null_model)
               if args.scorer == "contextual" else None)
    t0 = time.perf_counter()
    if args.command == "query":
        matches = topk_search(q, index, params, weights)
        header = {"k": args.k}
    else:
        matches = range_search(q, index, args.r, params, weights)
        header = {"r": args.r, "matches": len(matches)}
    elapsed = time.perf_counter() - t0
    header.update({"record": "header", "command": args.command,
                   "scorer": args.scorer,
                   "weights": None if weights is None else list(weights),
                   "query_nodes": q.n_nodes, "query_edges": q.n_edges,
                   "seconds": elapsed})
    _emit_matches(args, header, matches, g, q)
    return 0


def cmd_oracle(args):
    params = SearchParams(k=args.k, scorer=args.scorer)
    null_model = None
    if args.index:
        index = _resolve_index(args)
        g, null_model = index.graph, index.null_model
    else:
        g = _load_target(args, "oracle needs --index or target files")
    if g.n_edges > ORACLE_EDGE_CAP and not args.force:
        raise CliError(f"target has {g.n_edges} edges; the exhaustive oracle "
                       f"refuses more than {ORACLE_EDGE_CAP} without --force")
    q = _load_query(args.query_nodes, args.query_edges, g.schema, g.directed)
    t0 = time.perf_counter()
    if args.r is not None:
        matches = naive_range(q, g, args.r, scorer=params.scorer,
                              null_model=null_model)
    else:
        matches = naive_topk(q, g, params.k, scorer=params.scorer,
                             null_model=null_model)
    elapsed = time.perf_counter() - t0
    header = {"record": "header", "command": "oracle", "k": args.k,
              "r": args.r, "scorer": args.scorer, "matches": len(matches),
              "query_nodes": q.n_nodes, "query_edges": q.n_edges,
              "seconds": elapsed}
    _emit_matches(args, header, matches, g, q)
    return 0


def cmd_intent(args):
    params = SearchParams(k=args.k)
    index = _resolve_index(args)
    g = index.graph
    if len(args.query_nodes or ()) < 2 or len(args.query_edges or ()) < 2:
        raise CliError("intent needs at least two --query-nodes/--query-edges pairs")
    if len(args.query_nodes) != len(args.query_edges):
        raise CliError("--query-nodes and --query-edges counts differ")
    if not args.bijection:
        raise CliError("intent needs --bijection")
    exemplars = [load_graph(n, e, g.schema, g.directed)
                 for n, e in zip(args.query_nodes, args.query_edges)]
    bijections = load_bijections(args.bijection, exemplars)
    es = ExemplarSet(exemplars, bijections)
    use_filters = not args.no_filters
    hc = hybrid_context(es, index.null_model)
    t0 = time.perf_counter()
    matches = intent_topk(es, index, params, args.weight_mode, args.agg_mode,
                          use_filters, context=hc)
    elapsed = time.perf_counter() - t0
    names = g.schema.names
    header = {"record": "header", "command": "intent", "k": args.k,
              "exemplars": len(es), "weight_mode": args.weight_mode,
              "agg_mode": args.agg_mode, "filters": use_filters,
              "exact_match": [names[f] for f in hc.exact_match],
              "exact_relation": [names[f] for f in hc.exact_relation],
              "hybrid_weights": list(hc.weights),
              "seconds": elapsed}
    _emit_matches(args, header, matches, g, es.graphs[0])
    return 0


def cmd_stats(args):
    index = _resolve_index(args)
    if args.dump_null_model:
        _dump_null_model(index, args.dump_null_model)
    writer = _Writer(args.format)
    record = {"record": "stats"}
    record.update(index.stats())
    writer.emit(record)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contextgraph",
        description="Context-aware top-k common subgraph search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build and save a target index")
    _add_target_args(p)
    p.add_argument("--dump-null-model", metavar="PATH",
                   help="also write the null model as JSON")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("query", help="top-k search against an indexed target")
    _add_target_args(p)
    _add_search_args(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("range", help="all matches scoring at least --r")
    _add_target_args(p)
    _add_search_args(p)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="exhaustive reference search (slow)")
    _add_target_args(p)
    _add_search_args(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--force", action="store_true",
                   help="run even on large targets")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("intent", help="search with multiple query exemplars")
    _add_target_args(p)
    p.add_argument("--k", type=int, default=SearchParams().k)
    p.add_argument("--query-nodes", action="append")
    p.add_argument("--query-edges", action="append")
    p.add_argument("--bijection")
    p.add_argument("--weight-mode", choices=WEIGHT_MODES,
                   default=WEIGHT_MODES[0])
    p.add_argument("--agg-mode", choices=AGG_MODES, default=AGG_MODES[0])
    p.add_argument("--no-filters", action="store_true",
                   help="drop the exact-match/exact-relation filters, which "
                        "otherwise every matched node and edge must keep")
    p.set_defaults(func=cmd_intent)

    p = sub.add_parser("stats", help="describe an index")
    _add_target_args(p)
    p.add_argument("--dump-null-model", metavar="PATH")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    # GraphLoadError, IndexFileError and ExemplarError are ValueErrors
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
