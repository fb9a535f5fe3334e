"""Labeled graph model and TSV/JSON ingestion.

Nodes carry a fixed-width tuple of feature values described by a FeatureSchema.
Node ids from input files are remapped to dense integers 0..n-1 at load time;
the original ids are retained for output. Edges are identified by their dense
position in the edge list.
"""

import json
import math
from dataclasses import dataclass

NUMERIC = "numeric"
CATEGORICAL = "categorical"
CATEGORICAL_SET = "categorical-set"
KINDS = (NUMERIC, CATEGORICAL, CATEGORICAL_SET)


class GraphLoadError(ValueError):
    """Raised for malformed graph files or values violating the data contract."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names and kinds shared by a query and its target."""

    names: tuple
    kinds: tuple

    def __post_init__(self):
        if len(self.names) != len(self.kinds):
            raise GraphLoadError("schema names and kinds differ in length")
        if len(self.names) == 0:
            raise GraphLoadError("schema needs at least one feature")
        for name in self.names:
            if not isinstance(name, str) or name == "":
                raise GraphLoadError(f"feature name must be a non-empty string, got {name!r}")
        if len(set(self.names)) != len(self.names):
            raise GraphLoadError("duplicate feature name in schema")
        for kind in self.kinds:
            if kind not in KINDS:
                raise GraphLoadError(f"unknown feature kind {kind!r}")

    def __len__(self):
        return len(self.names)


def _check_value(value, kind, where):
    """Validate and canonicalize one feature value; returns the stored form."""
    if kind == NUMERIC:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise GraphLoadError(f"{where}: numeric feature needs a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise GraphLoadError(f"{where}: numeric feature must be finite")
        if value < 0:
            raise GraphLoadError(f"{where}: numeric feature must be non-negative")
        return value
    if kind == CATEGORICAL:
        if not isinstance(value, str) or value == "":
            raise GraphLoadError(f"{where}: categorical feature needs a non-empty symbol")
        return value
    # categorical-set: any iterable of symbols, stored sorted for determinism
    if isinstance(value, str):
        raise GraphLoadError(f"{where}: categorical-set feature needs a collection of symbols")
    symbols = tuple(sorted(set(value)))
    for sym in symbols:
        if not isinstance(sym, str) or sym == "":
            raise GraphLoadError(f"{where}: categorical-set members must be non-empty symbols")
    return symbols


class Graph:
    """Immutable labeled graph with dense node and edge ids.

    node_features[u] is the feature tuple of node u, edges[e] the (src, dst)
    pair of edge e. Undirected graphs store each edge once; (u, v) and (v, u)
    are the same edge. incident[u] lists the ids of the edges at node u once
    each, in ascending order; search relies on that order.
    """

    def __init__(self, directed, schema, node_features, edges, node_ids=None):
        self.directed = bool(directed)
        self.schema = schema
        if node_ids is None:
            node_ids = [str(u) for u in range(len(node_features))]
        if len(node_ids) != len(node_features):
            raise GraphLoadError("node_ids and node_features differ in length")
        if len(set(node_ids)) != len(node_ids):
            raise GraphLoadError("duplicate node id")
        self.node_ids = tuple(node_ids)

        d = len(schema)
        feats = []
        for u, row in enumerate(node_features):
            row = tuple(row)
            if len(row) != d:
                raise GraphLoadError(f"node {node_ids[u]!r}: expected {d} features, got {len(row)}")
            feats.append(tuple(_check_value(v, k, f"node {node_ids[u]!r}")
                               for v, k in zip(row, schema.kinds)))
        self.node_features = feats

        n = len(feats)
        seen = set()
        checked = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphLoadError(f"edge ({u}, {v}): endpoint out of range")
            if u == v:
                raise GraphLoadError(f"edge ({u}, {v}): self-loops are not allowed")
            key = (u, v) if self.directed else (min(u, v), max(u, v))
            if key in seen:
                raise GraphLoadError(f"edge ({u}, {v}): duplicate edge")
            seen.add(key)
            checked.append((u, v))
        self.edges = checked

        incident = [[] for _ in range(n)]
        lookup = {}
        for eid, (u, v) in enumerate(checked):
            incident[u].append(eid)
            incident[v].append(eid)
            lookup[(u, v)] = eid
            if not self.directed:
                lookup[(v, u)] = eid
        self.incident = [tuple(lst) for lst in incident]
        self._edge_lookup = lookup

    @property
    def n_nodes(self):
        return len(self.node_features)

    @property
    def n_edges(self):
        return len(self.edges)

    def edge_between(self, u, v):
        """Edge id connecting u and v (respecting direction), or None."""
        return self._edge_lookup.get((u, v))

    def adjacent_edges(self, e):
        """Edge ids sharing at least one endpoint with e, excluding e itself."""
        if not 0 <= e < len(self.edges):
            raise ValueError(f"unknown edge id {e}")
        u, v = self.edges[e]
        out = set(self.incident[u])
        out.update(self.incident[v])
        out.discard(e)
        return tuple(sorted(out))


def load_schema(path):
    """Read a schema JSON file; returns (FeatureSchema, directed flag)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphLoadError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or "features" not in doc:
        raise GraphLoadError(f"{path}: schema must be an object with a 'features' list")
    feats = doc["features"]
    if not isinstance(feats, list) or not feats:
        raise GraphLoadError(f"{path}: 'features' must be a non-empty list")
    names, kinds = [], []
    for item in feats:
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            raise GraphLoadError(f"{path}: each feature needs 'name' and 'kind'")
        names.append(item["name"])
        kinds.append(item["kind"])
    directed = doc.get("directed", False)
    if not isinstance(directed, bool):
        raise GraphLoadError(f"{path}: 'directed' must be true or false, got {directed!r}")
    try:
        return FeatureSchema(tuple(names), tuple(kinds)), directed
    except GraphLoadError as exc:
        raise GraphLoadError(f"{path}: {exc}") from None


def _parse_cell(cell, kind, where):
    if kind == NUMERIC:
        try:
            return float(cell)
        except ValueError:
            raise GraphLoadError(f"{where}: bad numeric literal {cell!r}") from None
    if kind == CATEGORICAL:
        return cell
    if cell == "":
        return ()
    return tuple(part for part in cell.split(","))


def load_graph(nodes_path, edges_path, schema, directed=False):
    """Load a graph from a nodes TSV and an edges TSV.

    Nodes file: header row `id<TAB><feature names...>` matching the schema,
    then one row per node; categorical-set cells are comma-separated. Edges
    file: `src<TAB>dst` per line, `#` comments and blank lines ignored.
    """
    d = len(schema)
    with open(nodes_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise GraphLoadError(f"{nodes_path}: empty nodes file")
    header = lines[0].split("\t")
    if header != ["id"] + list(schema.names):
        raise GraphLoadError(f"{nodes_path}: header {header!r} does not match schema "
                             f"{['id'] + list(schema.names)!r}")
    node_ids = []
    rows = []
    index = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        cells = line.split("\t")
        if len(cells) != d + 1:
            raise GraphLoadError(f"{nodes_path}:{lineno}: expected {d + 1} columns, got {len(cells)}")
        nid = cells[0]
        if nid in index:
            raise GraphLoadError(f"{nodes_path}:{lineno}: duplicate node id {nid!r}")
        index[nid] = len(node_ids)
        node_ids.append(nid)
        rows.append(tuple(_parse_cell(c, k, f"{nodes_path}:{lineno}")
                          for c, k in zip(cells[1:], schema.kinds)))

    edges = []
    with open(edges_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            line = line.strip()
            if line == "" or line.startswith("#"):
                continue
            cells = line.split("\t")
            if len(cells) != 2:
                raise GraphLoadError(f"{edges_path}:{lineno}: expected 'src<TAB>dst'")
            try:
                u, v = index[cells[0]], index[cells[1]]
            except KeyError as exc:
                raise GraphLoadError(f"{edges_path}:{lineno}: unknown node id {exc.args[0]!r}") from None
            edges.append((u, v))
    try:
        return Graph(directed, schema, rows, edges, node_ids)
    except GraphLoadError as exc:
        raise GraphLoadError(f"{edges_path}: {exc}") from None


def _format_cell(value, kind):
    if kind == NUMERIC:
        return repr(value)
    if kind == CATEGORICAL:
        return value
    return ",".join(value)


def save_graph(g, nodes_path, edges_path):
    """Write a graph back to the TSV pair accepted by load_graph."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id"] + list(g.schema.names)) + "\n")
        for nid, row in zip(g.node_ids, g.node_features):
            cells = [nid] + [_format_cell(v, k) for v, k in zip(row, g.schema.kinds)]
            fh.write("\t".join(cells) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{g.node_ids[u]}\t{g.node_ids[v]}\n")


def save_schema(schema, directed, path):
    """Write a schema JSON file accepted by load_schema."""
    doc = {"directed": bool(directed),
           "features": [{"name": n, "kind": k} for n, k in zip(schema.names, schema.kinds)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
