"""
Search by exemplars: show the pattern twice, let the engine infer intent
========================================================================

Give two (or more) isomorphic example patterns instead of one query. What
the exemplars have in common is what the user means: features with equal
values everywhere become hard value filters, features whose association
structure repeats become relation filters, and everything else is weighted
as usual.
"""

import numpy as np

from contextgraph import (ExemplarSet, Graph, SearchParams, build_index,
                          detect_exact_match_features,
                          detect_exact_relation_features, estimate_null_model,
                          exemplar_similarity, exemplar_weights,
                          averaged_weights, hybrid_context, intent_topk)
from contextgraph.synth import grow_query, random_graph

rng = np.random.default_rng(21)
target = random_graph(rng, 50, 110)
index = build_index(target)

# exemplar 1 is grown out of the target; exemplar 2 is the same pattern
# with one numeric feature shifted, as a second user sketch would be
ex1 = grow_query(target, 3, rng)
feats = [list(f) for f in ex1.node_features]
for row in feats:
    row[0] = row[0] + 2.0
ex2 = Graph(ex1.directed, ex1.schema, [tuple(f) for f in feats],
            list(ex1.edges))
identity = {u: u for u in range(ex1.n_nodes)}
es = ExemplarSet([ex1, ex2], [identity])

names = target.schema.names
f_em = detect_exact_match_features(es)
f_er = detect_exact_relation_features(es)
print("value-identical features: ", [names[i] for i in f_em])
print("relation-preserving features:", [names[i] for i in f_er])

nm = estimate_null_model(target)
per = exemplar_weights(es, nm)
print("\nper-exemplar weights:", [tuple(round(x, 3) for x in w) for w in per])
print("averaged:            ", tuple(round(x, 3) for x in averaged_weights(per)))
hc = hybrid_context(es, nm)
print("hybrid (filtered features zeroed, rest renormalized):",
      tuple(round(x, 3) for x in hc.weights))

hits = intent_topk(es, index, SearchParams(k=3))
print("\ntop-3 by intent (min aggregation, individual weights):")
for rank, m in enumerate(hits, start=1):
    print(f"  #{rank} score {m.score:.5f}  pairs {m.mapping.signature()}")

# the reported score is exactly the aggregate similarity across exemplars
m = hits[0]
check = exemplar_similarity(m.mapping, es, target, nm)
print("recomputed aggregate of #1:", round(check, 5),
      "(matches)" if abs(check - m.score) < 1e-12 else "(MISMATCH)")

# mean aggregation is never below min aggregation
relaxed = intent_topk(es, index, SearchParams(k=3), agg_mode="mean")
print("mean-aggregated #1 score:", round(relaxed[0].score, 5),
      ">= min-aggregated:", relaxed[0].score >= m.score - 1e-12)
