"""Differential tests: the indexed engine against the exhaustive oracle.

Tiny targets on random tree shapes, under both scorers, on the shapes where
a bound or a tie is most likely to slip: k above the number of maximal
mappings, a range threshold exactly at each oracle score, boxes with
lo == hi, a schema of one categorical-set feature, and directed targets
holding both (u, v) and (v, u). Top-k is compared by score list and range
by (score, signature) set; which of several tied mappings top-k returns is
not compared.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextgraph.graph import CATEGORICAL_SET, FeatureSchema, Graph
from contextgraph.search import (SCORERS, SearchParams, naive_range,
                                 naive_topk, range_search, topk_search)
from contextgraph.synth import MIXED_SCHEMA, grow_query, random_graph
from conftest import index_with_tree

SET_ONLY = FeatureSchema(("tags",), (CATEGORICAL_SET,))
SHAPES = ("mixed", "equal-features", "set-only", "two-cycles")


def tiny_instance(rng, shape):
    """Target of 3-7 nodes in the given shape, a query of 1-3 edges grown
    out of it, and an index on a random tree shape."""
    n = int(rng.integers(3, 8))
    m = int(rng.integers(2, min(9, n * (n - 1) // 2) + 1))
    if shape == "two-cycles":
        base = random_graph(rng, n, m)
        # the first edge always gets its reverse, the others at random
        back = [(v, u) for i, (u, v) in enumerate(base.edges)
                if i == 0 or rng.random() < 0.5]
        g = Graph(True, base.schema, base.node_features, list(base.edges) + back)
    else:
        schema = SET_ONLY if shape == "set-only" else MIXED_SCHEMA
        g = random_graph(rng, n, m, schema=schema,
                         directed=bool(rng.integers(0, 2)))
        if shape == "equal-features":
            g = Graph(g.directed, g.schema, [g.node_features[0]] * n, g.edges)
    q = grow_query(g, int(rng.integers(1, min(3, g.n_edges) + 1)), rng)
    idx = index_with_tree(g, int(rng.integers(2, 5)), int(rng.integers(1, 7)))
    if shape == "equal-features":
        assert idx.root.mbr.lo == idx.root.mbr.hi
    return g, q, idx


def answers(matches):
    return {(m.score, m.mapping.signature()) for m in matches}


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scorer=st.sampled_from(SCORERS))
def test_topk_with_k_above_the_answer_count(shape, seed, scorer):
    rng = np.random.default_rng(seed)
    g, q, idx = tiny_instance(rng, shape)
    everything = naive_topk(q, g, 10 ** 9, scorer=scorer)
    k = len(everything) + int(rng.integers(1, 4))
    got = topk_search(q, idx, SearchParams(k=k, scorer=scorer))
    assert [m.score for m in got] == [m.score for m in everything]
    assert [m.score for m in naive_topk(q, g, k, scorer=scorer)] == \
        [m.score for m in everything]


def assert_range_agrees_at_every_score(shape, seed, scorer):
    rng = np.random.default_rng(seed)
    g, q, idx = tiny_instance(rng, shape)
    params = SearchParams(scorer=scorer)
    for r in sorted({m.score for m in naive_topk(q, g, 10 ** 9, scorer=scorer)}):
        want = answers(naive_range(q, g, r, scorer=scorer))
        assert r in {score for score, _ in want}
        assert answers(range_search(q, idx, r, params)) == want


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scorer=st.sampled_from(SCORERS))
def test_range_at_every_oracle_score(shape, seed, scorer):
    assert_range_agrees_at_every_score(shape, seed, scorer)


@pytest.mark.parametrize("shape, seed, scorer", [("mixed", 1293, "traditional"),
                                                 ("two-cycles", 804, "contextual")])
def test_range_keeps_answers_scored_exactly_r(shape, seed, scorer):
    # a state's bound rounded one step below the score, exactly r, of a
    # mapping grown from it, and the state was pruned: range search must
    # allow for rounding before it prunes
    assert_range_agrees_at_every_score(shape, seed, scorer)
