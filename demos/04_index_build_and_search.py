"""
Indexed top-k and range search vs the exhaustive oracle
=======================================================

Builds the edge hierarchy over a random target, runs the bounded search,
and checks it against brute-force enumeration of every maximal common
subgraph. The audit object shows how much work the bounds saved.
"""

import time

import numpy as np

from contextgraph import (SearchAudit, SearchParams, build_index,
                          construct_tree, load_index, naive_topk,
                          range_search, save_index, topk_search)
from contextgraph.synth import grow_query, random_graph

rng = np.random.default_rng(7)
target = random_graph(rng, 60, 140)
query = grow_query(target, 3, rng)
print("target:", target.n_nodes, "nodes /", target.n_edges, "edges;",
      "query:", query.n_edges, "edges")

t0 = time.perf_counter()
index = build_index(target)
stats = index.stats()
print(f"index built in {time.perf_counter() - t0:.3f}s: "
      f"{stats['tree_nodes']} tree nodes, height {stats['tree_height']}, "
      f"{stats['leaves']} leaves")

# the index's tree has one constant shape: 4 children per inner node, a leaf
# below 100 edges. construct_tree builds others, and the search answers the
# same on them
deep = build_index(target)
deep.root = construct_tree(deep.assoc, range(target.n_edges), leaf_threshold=16)
print(f"leaves below 16 edges instead: {deep.root.count_nodes()} tree nodes, "
      f"height {deep.root.height()}; same top-5 scores:",
      [m.score for m in topk_search(query, deep, SearchParams(k=5))]
      == [m.score for m in naive_topk(query, target, 5)])

audit = SearchAudit()
t0 = time.perf_counter()
hits = topk_search(query, index, SearchParams(k=5), audit=audit)
dt = time.perf_counter() - t0
print(f"\ntop-5 in {dt:.3f}s, {audit.expanded} states expanded, "
      f"{len(audit.prunes)} prunes, {audit.offers} maximal mappings offered")
for rank, m in enumerate(hits, start=1):
    print(f"  #{rank} score {m.score:.5f}  pairs {m.mapping.signature()}")

# the oracle enumerates everything; scores must agree exactly
oracle = naive_topk(query, target, 5)
print("oracle scores equal:",
      [m.score for m in hits] == [m.score for m in oracle])

# range query: everything at or above a threshold, boundary included
r = hits[-1].score
in_range = range_search(query, index, r)
print(f"\nrange at r={r:.5f}: {len(in_range)} mappings, "
      f"worst {in_range[-1].score:.5f}")

# the index round-trips through its binary file byte for byte
import tempfile
from pathlib import Path

path = Path(tempfile.mkdtemp()) / "target.cgq"
save_index(index, path)
print("\nindex file:", path.stat().st_size, "bytes")
reloaded = load_index(path)
again = topk_search(query, reloaded, SearchParams(k=5))
print("reloaded index answers identically:",
      [(m.score, m.mapping.signature()) for m in again]
      == [(m.score, m.mapping.signature()) for m in hits])
