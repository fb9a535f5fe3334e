"""
Feature graphs on disk and in memory
====================================

Two collaboration triangles: three researchers from one lab with close
citation counts, and a second lab where one pair shares a research area.
Round-trips them through the TSV format and pokes at adjacency.
"""

import tempfile
from pathlib import Path

from contextgraph import (CATEGORICAL, NUMERIC, FeatureSchema, Graph,
                          GraphLoadError, load_graph, load_schema,
                          save_graph, save_schema)

schema = FeatureSchema(("organization", "area", "h_index"),
                       (CATEGORICAL, CATEGORICAL, NUMERIC))

west = Graph(False, schema,
             [("org_w", "ai", 112.0),
              ("org_w", "ml", 125.0),
              ("org_w", "db", 133.0)],
             [(0, 1), (0, 2), (2, 1)],
             node_ids=("a1", "a2", "a3"))

print("west lab:", west.n_nodes, "nodes,", west.n_edges, "edges,",
      "directed" if west.directed else "undirected")
for e, (u, v) in enumerate(west.edges):
    print(f"  edge {e}: {west.node_ids[u]} -- {west.node_ids[v]}")

# adjacency is precomputed per node and per edge
print("edges at node a1:", west.incident[0])
print("edges sharing an endpoint with edge 0:", west.adjacent_edges(0))

# the same graph through the file format: a schema file plus nodes/edges TSVs
tmp = Path(tempfile.mkdtemp())
save_schema(schema, west.directed, tmp / "collab.schema.json")
save_graph(west, tmp / "west.nodes.tsv", tmp / "west.edges.tsv")
print("\nwrote", sorted(p.name for p in tmp.iterdir()))

schema2, directed = load_schema(tmp / "collab.schema.json")
again = load_graph(tmp / "west.nodes.tsv", tmp / "west.edges.tsv",
                   schema2, directed)
print("round trip equal:", again.node_features == west.node_features
      and again.edges == west.edges)

# loader errors carry file positions
bad = tmp / "bad.edges.tsv"
bad.write_text((tmp / "west.edges.tsv").read_text() + "a1\tnope\n")
try:
    load_graph(tmp / "west.nodes.tsv", bad, schema2, directed)
except GraphLoadError as err:
    print("loader said:", err)
