"""Shared fixtures: a pair of collaboration triangles and random instances.

The two triangles are the running example used across the similarity and
index tests: three researchers from one lab with close citation counts,
queried against a second lab where one pair shares a research area.
"""

import json
import struct
import zlib

import numpy as np
import pytest

import contextgraph.exemplar as cg_exemplar
from contextgraph.exemplar import ExemplarSet, intent_topk
from contextgraph.graph import CATEGORICAL, NUMERIC, FeatureSchema, Graph
from contextgraph.index import (BRANCHING, FORMAT_VERSION, LEAF_THRESHOLD,
                                MAGIC, build_index, construct_tree)
from contextgraph.synth import grow_query, random_graph

COLLAB_SCHEMA = FeatureSchema(("organization", "area", "h_index"),
                              (CATEGORICAL, CATEGORICAL, NUMERIC))


@pytest.fixture
def collab_schema():
    return COLLAB_SCHEMA


@pytest.fixture
def collab_query():
    """Triangle: same organization, three areas, h-index 112/125/133."""
    return Graph(False, COLLAB_SCHEMA,
                 [("org_w", "ai", 112.0),
                  ("org_w", "ml", 125.0),
                  ("org_w", "db", 133.0)],
                 [(0, 1), (0, 2), (2, 1)],
                 node_ids=("a1", "a2", "a3"))


@pytest.fixture
def collab_target():
    """Triangle: same organization, one shared area, h-index 48/50/43."""
    return Graph(False, COLLAB_SCHEMA,
                 [("org_e", "db", 48.0),
                  ("org_e", "dm", 50.0),
                  ("org_e", "dm", 43.0)],
                 [(0, 1), (0, 2), (2, 1)],
                 node_ids=("b1", "b2", "b3"))


def make_instance(rng, min_nodes=8, max_nodes=28, directed=None,
                  query_edges=3):
    """One random target graph plus a query grown out of it."""
    if directed is None:
        directed = bool(rng.integers(0, 2))
    n = int(rng.integers(min_nodes, max_nodes + 1))
    cap = n * (n - 1) // 2
    m = int(min(rng.integers(n, 2 * n + 1), cap))
    g = random_graph(rng, n, m, directed=directed)
    q = grow_query(g, query_edges, rng)
    return g, q


def signed_zero_graph(seed, directed=False):
    """A random graph of 16 nodes and 40 edges whose numeric values repeat
    and include both 0.0 and -0.0, so edges share association vectors and
    nodes share feature rows."""
    return random_graph(np.random.default_rng(seed), 16, 40,
                        directed=directed,
                        numeric_values=(0.0, -0.0, 1.0, 2.0),
                        symbols=("a", "b"))


def index_with_tree(g, branching=BRANCHING, leaf_threshold=LEAF_THRESHOLD):
    """build_index(g) with its tree rebuilt in another shape, so searches
    are checked on layouts other than the index's constant one."""
    index = build_index(g)
    index.root = construct_tree(index.assoc, range(g.n_edges), branching,
                                leaf_threshold)
    return index


def shifted_exemplars(q):
    """Exemplar set of q and a copy whose numeric first feature is one
    higher on every node, linked by the identity bijection."""
    feats = [(row[0] + 1.0,) + tuple(row[1:]) for row in q.node_features]
    twin = Graph(q.directed, q.schema, feats, q.edges, q.node_ids)
    return ExemplarSet([q, twin], [{u: u for u in range(q.n_nodes)}])


def filtered_exemplars(q):
    """Exemplar set of q and a copy linked by the identity bijection, on
    MIXED_SCHEMA: the copy's numeric level is one higher on every node and
    its categorical kind is renamed by one injective map, so its tags match
    node for node (an exact-match filter) while kind agrees only edgewise
    (an exact-relation filter)."""
    feats = [(row[0] + 1.0, row[1] + "2") + tuple(row[2:])
             for row in q.node_features]
    twin = Graph(q.directed, q.schema, feats, q.edges, q.node_ids)
    return ExemplarSet([q, twin], [{u: u for u in range(q.n_nodes)}])


def intent_scorer(es, index, **modes):
    """The scorer intent_topk hands to the search engine for es, index and
    the given keyword arguments; the search itself is not run."""
    seen = []

    def capture(q, index, scorer, **kwargs):
        seen.append(scorer)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg_exemplar, "_search", capture)
        intent_topk(es, index, **modes)
    (scorer,) = seen
    return scorer


def write_index_payload(path, text):
    """Write JSON text as an index file under a valid header, so only the
    payload can be at fault."""
    blob = zlib.compress(text.encode("utf-8"))
    path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob)


def edit_index_payload(path, edit):
    """Rewrite an index file after edit(payload) changed its JSON document."""
    payload = json.loads(zlib.decompress(path.read_bytes()[len(MAGIC) + 12:]))
    edit(payload)
    write_index_payload(path, json.dumps(payload))
