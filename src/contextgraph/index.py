"""Hierarchical bounding-box index over edge association vectors.

The tree recursively partitions the target's edges on the highest-variance
association dimension; every node keeps the minimum bounding rectangle (MBR)
of its edges' association vectors, so the best edge similarity under a node
can be bounded without visiting it. The association vectors are kept only as
the array of the distinct vectors plus each edge's class, a row of that
array; the (m, d) float64 array they make, row e being edge e's vector, is
built when it is read (EdgeIndex.assoc) and by build_index. The c10
benchmark graph has 660 distinct vectors among its 15,069 edges and 84
distinct node-feature rows among its 1,434 nodes, which the index keeps the
same way; the searches compare the query against each distinct vector or row
once and widen the result to every edge or node by class. The index also
keeps per-edge neighborhood summaries, histograms of the association values
on the adjacent edges in BUCKETS buckets, as one int32 array of shape (m, d,
BUCKETS), row e being edge e's summary; no search reads them, since a
leaf's seed candidates are taken in edge-id order.

The tree's shape is fixed: BRANCHING children per inner node, and a node
holding fewer than LEAF_THRESHOLD edges becomes a leaf.

Index files start with the magic bytes CGQ1, a format version, and a length
prefix; the payload is a compressed JSON document holding only the target
graph. Everything else is derived from it, so load_index rebuilds the
index, which yields the same null model, vectors, classes, summaries and
tree as the saved one. Files of an older format version are rejected:
version 1 also stored the derived data, version 2 also stored a bucket
count, version 3 a bin count, and version 4 the tree's branching and leaf
threshold.
"""

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .context import estimate_null_model
from .graph import CATEGORICAL_SET, FeatureSchema, Graph
from .similarity import association_vectors

MAGIC = b"CGQ1"
FORMAT_VERSION = 5
# histogram buckets of a neighborhood summary
BUCKETS = 10
# the index tree's shape: children per inner node, and the edge count below
# which a node is a leaf
BRANCHING = 4
LEAF_THRESHOLD = 100


class IndexFileError(ValueError):
    """Raised for unreadable, truncated, or mismatched index files."""


@dataclass(frozen=True)
class MBR:
    """Componentwise bounds of a set of association vectors."""

    lo: tuple
    hi: tuple


def mbr_of(vectors):
    """Tight componentwise min/max box of one or more vectors.

    Takes a sequence of equal-length vectors or an (n, d) array; the faces are
    tuples of Python floats. Raises ValueError when there is no vector.
    """
    arr = np.asarray(vectors, dtype=float)
    if len(arr) == 0:
        raise ValueError("mbr_of needs at least one vector")
    return MBR(tuple(arr.min(axis=0).tolist()), tuple(arr.max(axis=0).tolist()))


def mbr_similarity(s_q, weights, mbr):
    """Upper bound on edge_similarity(s_q, s, weights) over all s in the box.

    Componentwise: 1 if s_q[i] falls inside [lo, hi], otherwise the Gamma
    ratio against the nearer box face. Dominates every contained vector's
    edge similarity.
    """
    lo = mbr.lo
    hi = mbr.hi
    total = 0.0
    for i, w in enumerate(weights):
        x = s_q[i]
        if x < lo[i]:
            total += w * (x / lo[i])
        elif x > hi[i]:
            total += w * (hi[i] / x)
        else:
            total += w
    if total > 1.0:
        return 1.0
    if total < 0.0:
        return 0.0
    return total


class TreeNode:
    """One tree node: an MBR plus either children or a tuple of edge ids."""

    __slots__ = ("mbr", "children", "entries")

    def __init__(self, mbr, children=None, entries=None):
        self.mbr = mbr
        self.children = children
        self.entries = entries

    @property
    def is_leaf(self):
        return self.children is None

    def height(self):
        if self.is_leaf:
            return 1
        return 1 + max(child.height() for child in self.children)

    def count_nodes(self):
        if self.is_leaf:
            return 1
        return 1 + sum(child.count_nodes() for child in self.children)

    def __eq__(self, other):
        if not isinstance(other, TreeNode):
            return NotImplemented
        return (self.mbr == other.mbr and self.entries == other.entries
                and self.children == other.children)


def construct_tree(assoc, edge_ids, branching=BRANCHING,
                   leaf_threshold=LEAF_THRESHOLD):
    """Build the hierarchy over the given edges.

    Splits on the dimension of maximum association variance (lowest index on
    ties), orders edges by (value, edge id), and hands floor(m/children) edges
    to each child with the remainder on the last. A node becomes a leaf when
    it holds fewer than leaf_threshold edges or a single distinct vector.
    Every pass works on index arrays into one (m, d) array of the vectors.
    build_index uses the defaults, the index's one shape. Raises ValueError
    when edge_ids is empty.
    """
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if leaf_threshold < 1:
        raise ValueError("leaf_threshold must be >= 1")

    ids = np.asarray(edge_ids, dtype=np.intp)
    if len(ids) == 0:
        raise ValueError("construct_tree needs at least one edge")
    vecs = np.asarray(assoc, dtype=float)

    def build(ids):
        rows = vecs[ids]
        box = mbr_of(rows)
        if len(ids) < leaf_threshold or box.lo == box.hi:
            return TreeNode(box, entries=tuple(ids.tolist()))
        dim = int(np.argmax(rows.var(axis=0)))
        order = ids[np.lexsort((ids, rows[:, dim]))]
        fanout = min(branching, len(ids))
        chunk = len(ids) // fanout
        children = []
        for c in range(fanout):
            start = c * chunk
            stop = (c + 1) * chunk if c < fanout - 1 else len(ids)
            children.append(build(order[start:stop]))
        return TreeNode(box, children=tuple(children))

    return build(ids)


def bucket_index(values):
    """0-based histogram bucket of association values in [0, 1].

    Works on a scalar or an array. Bucket j covers (j/BUCKETS, (j+1)/BUCKETS];
    zero lands in bucket 0. Comparison against exact bucket boundaries avoids
    multiply-then-ceil rounding surprises at values like 0.9.
    """
    bounds = np.arange(1, BUCKETS + 1) / BUCKETS
    return np.minimum(np.searchsorted(bounds, values), BUCKETS - 1)


def neighborhood_summary(g, assoc=None):
    """Per-edge, per-feature histograms of association values on the adjacent edges.

    Returns an int32 array of shape (m, d, BUCKETS): row e holds edge e's d
    rows of bucket counts over the edges sharing an endpoint with it. All
    edges come from one pass: each node sums the one-hot buckets of its
    incident edges, and an edge's histogram is the sum of its two endpoints'
    minus itself twice. Only a directed graph's reverse edge also shares both
    endpoints, so it is subtracted once.
    """
    if assoc is None:
        assoc = association_vectors(g)
    m, d = g.n_edges, len(g.schema)
    ends = np.asarray(g.edges, dtype=np.intp).reshape(m, 2)
    ids = bucket_index(np.asarray(assoc, dtype=float).reshape(m, d))
    onehot = np.zeros((m, d, BUCKETS), dtype=np.int32)
    onehot[np.arange(m)[:, None], np.arange(d), ids] = 1
    per_node = np.zeros((g.n_nodes, d, BUCKETS), dtype=np.int32)
    np.add.at(per_node, ends, onehot[:, None])
    hist = per_node[ends[:, 0]] + per_node[ends[:, 1]] - 2 * onehot
    if g.directed:
        pairs = [(e, r) for e, (u, v) in enumerate(g.edges)
                 if (r := g.edge_between(v, u)) is not None]
        if pairs:
            fwd, rev = np.asarray(pairs).T
            hist[fwd] -= onehot[rev]
    return hist


def neighborhood_similarity(summary_q, summary_t, weights):
    """Weighted fraction of the query's occupied buckets the target covers.

    Per feature: among buckets where the query count is positive, the share
    whose target count is at least the query count; 1 when the query has no
    occupied bucket. No search calls it: a leaf's seed candidates are taken
    in edge-id order, not by neighborhood similarity.
    """
    total = 0.0
    for i, w in enumerate(weights):
        occupied = 0
        covered = 0
        t_row = summary_t[i]
        for j, qc in enumerate(summary_q[i]):
            if qc > 0:
                occupied += 1
                if t_row[j] >= qc:
                    covered += 1
        total += w if occupied == 0 else w * (covered / occupied)
    if total > 1.0:
        return 1.0
    if total < 0.0:
        return 0.0
    return total


class EdgeIndex:
    """Searchable bundle: target graph, null model, association data, tree.

    vectors is the (c, d) float64 array of the target's c distinct
    association vectors and edge_class the intp array mapping each edge id
    to its row there; the assoc property builds vectors[edge_class], the
    (m, d) array of every edge's vector, row e being edge e's, on each
    read, since no search needs it. node_rows lists the distinct
    node-feature rows and node_class maps each node id to its position
    there. Rows that compare equal share a class (0.0 and -0.0 among
    them), so a per-query pass over the target can compute one value per
    class and widen it with take. summaries is the int32 (m, d, BUCKETS)
    array of the edges' neighborhood summaries.
    """

    def __init__(self, graph, null_model, vectors, edge_class, node_rows,
                 node_class, summaries, root):
        self.graph = graph
        self.null_model = null_model
        self.vectors = vectors
        self.edge_class = edge_class
        self.node_rows = node_rows
        self.node_class = node_class
        self.summaries = summaries
        self.root = root

    @property
    def assoc(self):
        return self.vectors[self.edge_class]

    def stats(self):
        leaves = []

        def walk(node, depth):
            if node.is_leaf:
                leaves.append((depth, len(node.entries)))
            else:
                for child in node.children:
                    walk(child, depth + 1)

        walk(self.root, 1)
        return {
            "nodes": self.graph.n_nodes,
            "edges": self.graph.n_edges,
            "directed": self.graph.directed,
            "features": len(self.graph.schema),
            "distinct_vectors": len(self.vectors),
            "distinct_node_rows": len(self.node_rows),
            "tree_nodes": self.root.count_nodes(),
            "tree_height": self.root.height(),
            "leaves": len(leaves),
            "max_leaf_size": max(size for _, size in leaves),
        }


def _classes(rows):
    """The distinct rows of a sequence of tuples, in order of first
    appearance, and an intp array giving each row's position among them."""
    codes = {}
    cls = np.fromiter((codes.setdefault(row, len(codes)) for row in rows),
                      dtype=np.intp, count=len(rows))
    return list(codes), cls


def build_index(g):
    """Build the full index of a target graph."""
    if g.n_edges == 0:
        raise ValueError("cannot index a graph without edges")
    null_model = estimate_null_model(g)
    distinct, edge_class = _classes(association_vectors(g))
    vectors = np.array(distinct, dtype=float)
    node_rows, node_class = _classes(g.node_features)
    assoc = vectors[edge_class]
    summaries = neighborhood_summary(g, assoc)
    root = construct_tree(assoc, range(g.n_edges))
    return EdgeIndex(g, null_model, vectors, edge_class, node_rows,
                     node_class, summaries, root)


def _encode_feature_value(value, kind):
    return list(value) if kind == CATEGORICAL_SET else value


def _decode_feature_value(value, kind):
    return tuple(value) if kind == CATEGORICAL_SET else value


def save_index(index, path):
    """Write the target graph as a magic/version/length-prefixed compressed
    document."""
    g = index.graph
    kinds = g.schema.kinds
    payload = {
        "directed": g.directed,
        "schema": {"names": list(g.schema.names), "kinds": list(kinds)},
        "node_ids": list(g.node_ids),
        "node_features": [[_encode_feature_value(v, k) for v, k in zip(row, kinds)]
                          for row in g.node_features],
        "edges": [list(e) for e in g.edges],
    }
    blob = zlib.compress(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")).encode("utf-8"), 6)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, len(blob)))
        fh.write(blob)


def load_index(path):
    """Read an index file written by save_index and rebuild the index.

    Raises IndexFileError for a file that is not a whole index: a bad header,
    another format version, a corrupt or malformed payload, or a graph that
    build_index rejects.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 12)
        if len(head) < len(MAGIC) + 12 or head[: len(MAGIC)] != MAGIC:
            raise IndexFileError(f"{path}: not an index file")
        version, length = struct.unpack("<IQ", head[len(MAGIC):])
        if version != FORMAT_VERSION:
            raise IndexFileError(f"{path}: unsupported format version {version}")
        blob = fh.read(length)
        if len(blob) != length or fh.read(1):
            raise IndexFileError(f"{path}: truncated or trailing data")
    try:
        payload = json.loads(zlib.decompress(blob).decode("utf-8"))
    except (zlib.error, json.JSONDecodeError, RecursionError) as exc:
        raise IndexFileError(f"{path}: corrupt payload ({exc})") from None

    try:
        kinds = payload["schema"]["kinds"]
        schema = FeatureSchema(tuple(payload["schema"]["names"]), tuple(kinds))
        feats = [tuple(_decode_feature_value(v, k) for v, k in zip(row, kinds))
                 for row in payload["node_features"]]
        if not isinstance(payload["directed"], bool):
            raise TypeError(f"'directed' must be true or false, got {payload['directed']!r}")
        g = Graph(payload["directed"], schema, feats,
                  [tuple(e) for e in payload["edges"]], payload["node_ids"])
        return build_index(g)
    except KeyError as exc:
        raise IndexFileError(f"{path}: malformed payload (missing key {exc})") from None
    except (TypeError, ValueError, IndexError, RecursionError) as exc:
        raise IndexFileError(f"{path}: malformed payload ({exc})") from None
