"""Acceptance sweep: every deliverable guarantee, one printed line each.

Each test prints `[criterion NN] PASS/FAIL  <what was checked>` and asserts
it; run `pytest tests/test_acceptance.py -v -s` to watch the report live.
The whole sweep takes a few minutes, dominated by the oracle-equivalence
corpus and the budget-capped naive baseline of the large-graph benchmark.
"""

import time

import numpy as np
import pytest

from contextgraph import (MBR, Binner, ExemplarSet, Mapping, NullModel,
                          SearchParams, SearchTimeout, association_vector,
                          association_vectors, averaged_weights, build_index,
                          chi_square, construct_tree,
                          contextual_graph_similarity,
                          detect_exact_match_features,
                          detect_exact_relation_features, edge_similarity,
                          estimate_null_model, exemplar_weights, intent_topk,
                          load_index, mbr_similarity, mcs_upper_bound,
                          naive_topk, neighborhood_summary, normalize_weights,
                          range_search, save_index, topk_search, weight_vector)
from contextgraph.graph import CATEGORICAL, NUMERIC, FeatureSchema, Graph
from contextgraph.search import _extensions, _seed_orientations
from contextgraph.synth import grow_query, random_graph, spatial_graph

from conftest import index_with_tree, make_instance


def report(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


COLLAB = FeatureSchema(("organization", "area", "h_index"),
                       (CATEGORICAL, CATEGORICAL, NUMERIC))


def collab_query():
    return Graph(False, COLLAB,
                 [("org_w", "ai", 112.0),
                  ("org_w", "ml", 125.0),
                  ("org_w", "db", 133.0)],
                 [(0, 1), (0, 2), (2, 1)],
                 node_ids=("a1", "a2", "a3"))


def collab_target():
    return Graph(False, COLLAB,
                 [("org_e", "db", 48.0),
                  ("org_e", "dm", 50.0),
                  ("org_e", "dm", 43.0)],
                 [(0, 1), (0, 2), (2, 1)],
                 node_ids=("b1", "b2", "b3"))


def test_c01_chi_square_rare_pairs():
    schema = FeatureSchema(("area",), (CATEGORICAL,))
    q = Graph(False, schema, [("a",), ("b",), ("c",)],
              [(0, 1), (0, 2), (1, 2)])
    nm = NullModel(Binner((None,)),
                   ({("a", "b"): 0.01, ("a", "c"): 0.03, ("b", "c"): 0.02},),
                   0.005, 100)
    value = chi_square(q, 0, nm)
    report(1, f"chi-square of three once-seen pairs at null ps "
              f".01/.03/.02 on a 3-edge query = {value:.2f} (want 55.29 "
              f"+/- 0.01)", abs(value - 55.29) <= 0.01)


def test_c02_association_vector_regression():
    sq = association_vector(collab_query(), 0)
    st = association_vector(collab_target(), 0)
    got_q = tuple(round(x, 2) for x in sq)
    got_t = tuple(round(x, 2) for x in st)
    ok = got_q == (1.0, 0.0, 0.90) and got_t == (1.0, 0.0, 0.96)
    report(2, f"association vectors round to {got_q} / {got_t} "
              f"(want (1, 0, 0.9) / (1, 0, 0.96))", ok)


def test_c03_edge_similarity_semantics():
    w = (0.40, 0.02, 0.58)
    sq = (1.0, 0.0, 0.90)
    st = (1.0, 0.0, 0.96)
    normative = edge_similarity(sq, st, w)
    strict = edge_similarity(sq, st, w, strict_zero=True)
    ok = (abs(normative - 0.96375) <= 1e-6 and abs(strict - 0.94375) <= 1e-6)
    report(3, f"edge similarity {normative:.6f} with 0-vs-0 counted, "
              f"{strict:.6f} under strict zero (want 0.96375 / 0.94375)", ok)


def _min_nodes(m):
    n = 2
    while n * (n - 1) // 2 < m:
        n += 1
    return n


@pytest.fixture(scope="module")
def corpus():
    """200 randomized instances with full oracle rankings, 20-200 edges."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    instances = []
    for t in range(200):
        m = int(rng.integers(20, 201))
        dens = float(rng.uniform(2.0, 4.0 if m > 60 else 6.0))
        n = max(_min_nodes(m), int(round(2 * m / dens)))
        g = random_graph(rng, n, m, directed=bool(t % 2))
        q = grow_query(g, int(rng.integers(2, 5)), rng)
        idx = index_with_tree(g, branching=int(rng.integers(2, 6)),
                              leaf_threshold=int(rng.integers(1, 33)))
        full = naive_topk(q, g, 10 ** 9)
        instances.append((g, q, idx, full))
    return {"instances": instances, "seconds": time.perf_counter() - t0}


def test_c04_topk_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for g, q, idx, full in corpus["instances"]:
        want_scores = [m.score for m in full]
        for k in (1, 3, 10):
            got = topk_search(q, idx, SearchParams(k=k))
            want = want_scores[:k]
            if len(got) != len(want) or any(abs(a.score - b) > 1e-9
                                            for a, b in zip(got, want)):
                mismatches += 1
    seconds = corpus["seconds"] + (time.perf_counter() - t0)
    ok = mismatches == 0 and seconds < 300.0
    report(4, f"top-k score multisets equal the naive oracle on 200 "
              f"instances x k in (1,3,10), {mismatches} mismatches, "
              f"{seconds:.0f}s of 300", ok)


def test_c05_range_oracle_equivalence(corpus):
    bad = 0
    checked = 0
    for g, q, idx, full in corpus["instances"]:
        if not full:
            continue
        scores = [m.score for m in full]
        n = len(scores)
        for r in sorted({scores[0], scores[n // 2], scores[(9 * n) // 10],
                         scores[-1]}):
            got = [(m.score, m.mapping.signature())
                   for m in range_search(q, idx, r)]
            want = [(m.score, m.mapping.signature())
                    for m in full if m.score >= r]
            checked += 1
            if got != want:
                bad += 1
    report(5, f"range results equal the oracle-filtered set at "
              f"{checked} quantile thresholds, {bad} mismatches", bad == 0)


def test_c06_bound_soundness():
    rng = np.random.default_rng(6)
    # part 1: box similarity dominates every contained vector's similarity
    box_bad = 0
    box_trials = 0
    for d in (1, 2, 3, 4, 5):
        n_tr = 20000
        raw = rng.random((n_tr, 3, d))
        raw[rng.random((n_tr, 3, d)) < 0.15] = 0.0
        wraw = rng.random((n_tr, d)) + 1e-9
        u = rng.random((n_tr, d))
        for t in range(n_tr):
            a, b, s_q = raw[t]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            box = MBR(tuple(lo), tuple(hi))
            w = tuple(wraw[t] / wraw[t].sum())
            sq = tuple(s_q)
            bound = mbr_similarity(sq, w, box)
            box_trials += 1
            for s in (lo, hi, lo + u[t] * (hi - lo)):
                if edge_similarity(sq, tuple(s), w) > bound + 1e-12:
                    box_bad += 1

    # part 2: a growth state's bound dominates every maximal mapping that
    # can be reached from it, checked by exhaustive extension
    state_bad = 0
    states = 0
    while states < 10000:
        g, q = make_instance(rng, min_nodes=8, max_nodes=14,
                             query_edges=int(rng.integers(2, 5)))
        aq = association_vectors(q)
        ag = association_vectors(g)
        w = weight_vector(q, estimate_null_model(g))
        m_q = q.n_edges

        def score_of(sig):
            return sum(edge_similarity(aq[qe], ag[te], w) for qe, te in sig)

        seeds = [(qe, te, ori) for qe in range(m_q)
                 for te in range(g.n_edges)
                 for ori in _seed_orientations(q, g, qe, te)]
        for _ in range(min(250, 10000 - states)):
            qe, te, ori = seeds[int(rng.integers(len(seeds)))]
            nmap = dict(ori)
            pairs = {(qe, te)}
            for _ in range(int(rng.integers(0, m_q))):
                exts = _extensions(q, g, nmap, pairs)
                if not exts:
                    break
                qe2, te2, new = exts[int(rng.integers(len(exts)))]
                nmap = dict(nmap)
                nmap.update(new)
                pairs = pairs | {(qe2, te2)}
            bound = mcs_upper_bound(score_of(tuple(sorted(pairs))),
                                    len(pairs), m_q)
            stack = [(nmap, frozenset(pairs))]
            seen = set()
            while stack:
                nm2, ps = stack.pop()
                sig = tuple(sorted(ps))
                key = (tuple(sorted(nm2.items())), sig)
                if key in seen:
                    continue
                seen.add(key)
                exts = _extensions(q, g, nm2, ps)
                if not exts:
                    if score_of(sig) > bound + 1e-12:
                        state_bad += 1
                    continue
                for qe2, te2, new in exts:
                    nm3 = dict(nm2)
                    nm3.update(new)
                    stack.append((nm3, ps | {(qe2, te2)}))
            states += 1
    ok = box_bad == 0 and state_bad == 0
    report(6, f"{box_trials} box-domination trials ({box_bad} violations); "
              f"{states} growth states dominate all completed descendants "
              f"({state_bad} violations)", ok)


def test_c07_similarity_properties():
    rng = np.random.default_rng(77)
    # edge similarity stays in [0, 1] under both zero conventions
    in_range = True
    for _ in range(20000):
        d = int(rng.integers(1, 6))
        sq = tuple(0.0 if rng.random() < 0.2 else float(rng.random())
                   for _ in range(d))
        st = tuple(0.0 if rng.random() < 0.2 else float(rng.random())
                   for _ in range(d))
        w = normalize_weights(tuple(float(rng.random()) + 1e-9
                                    for _ in range(d)))
        for strict in (False, True):
            v = edge_similarity(sq, st, w, strict_zero=strict)
            in_range = in_range and 0.0 <= v <= 1.0

    # graph similarity never drops when a pair is added
    monotone = True
    for _ in range(30):
        g, q = make_instance(rng, query_edges=int(rng.integers(2, 5)))
        w = weight_vector(q, estimate_null_model(g))
        for qe in range(q.n_edges):
            te = int(rng.integers(g.n_edges))
            for ori in _seed_orientations(q, g, qe, te):
                nmap = dict(ori)
                pairs = {(qe, te)}
                prev = contextual_graph_similarity(Mapping(nmap, pairs),
                                                   q, g, w)
                while True:
                    exts = _extensions(q, g, nmap, pairs)
                    if not exts:
                        break
                    qe2, te2, new = exts[int(rng.integers(len(exts)))]
                    nmap = dict(nmap)
                    nmap.update(new)
                    pairs = pairs | {(qe2, te2)}
                    cur = contextual_graph_similarity(Mapping(nmap, pairs),
                                                      q, g, w)
                    monotone = monotone and cur >= prev - 1e-12
                    prev = cur

    # context weights normalize, and their argmax ignores uniform scaling
    normalized = True
    for _ in range(30):
        g, q = make_instance(rng)
        w = weight_vector(q, estimate_null_model(g))
        normalized = (normalized and abs(sum(w) - 1.0) <= 1e-9
                      and all(x >= 0.0 for x in w))
    scale_ok = True
    for _ in range(200):
        d = int(rng.integers(2, 6))
        vals = tuple(float(v) for v in rng.random(d) * 50 + 1e-6)
        base = normalize_weights(vals)
        top = max(range(d), key=base.__getitem__)
        for c in (1e-6, 0.37, 42.0, 1e6):
            scaled = normalize_weights(tuple(c * v for v in vals))
            scale_ok = scale_ok and max(range(d),
                                        key=scaled.__getitem__) == top
    ok = in_range and monotone and normalized and scale_ok
    report(7, "similarity in [0,1]; graph score monotone under growth; "
              "weights sum to 1; weight argmax scale-invariant", ok)


def test_c08_tree_invariants():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(50):
        n = int(rng.integers(8, 40))
        cap = n * (n - 1) // 2
        m = int(min(rng.integers(10, 121), cap))
        g = random_graph(rng, n, m)
        assoc = association_vectors(g)
        branching = int(rng.integers(2, 7))
        leaf_threshold = int(rng.integers(1, 41))
        tree = construct_tree(assoc, range(g.n_edges), branching,
                              leaf_threshold)
        ok = ok and tree == construct_tree(assoc, range(g.n_edges),
                                           branching, leaf_threshold)
        ok = ok and tree.count_nodes() <= 3 * g.n_edges

        collected = []

        def walk(node, boxes, count_below):
            good = True
            boxes = boxes + [node.mbr]
            if node.is_leaf:
                good = (len(node.entries) < leaf_threshold
                        or node.mbr.lo == node.mbr.hi)
                collected.extend(node.entries)
                for e in node.entries:
                    v = assoc[e]
                    for box in boxes:
                        good = good and all(
                            box.lo[i] <= v[i] <= box.hi[i]
                            for i in range(len(v)))
                return good, len(node.entries)
            good = 2 <= len(node.children) <= branching
            total = 0
            for child in node.children:
                g2, c2 = walk(child, boxes, 0)
                good = good and g2
                total += c2
            good = good and total >= leaf_threshold
            good = good and node.mbr.lo != node.mbr.hi
            return good, total

        good, _ = walk(tree, [], 0)
        ok = ok and good and sorted(collected) == list(range(g.n_edges))
    report(8, "50 tree builds: partition, containment, leaf rule, "
              "determinism, node count <= 3|E|", ok)


def test_c09_summary_regression():
    q = collab_query()
    summaries = neighborhood_summary(q)
    s = summaries[0].tolist()
    ok = (summaries.shape == (q.n_edges, len(q.schema), 10)
          and summaries.dtype == np.int32
          and s[0][9] == 2 and s[2][8] == 1 and s[2][9] == 1
          and s[0] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]
          and s[1] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0]
          and s[2] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 1])
    report(9, "neighborhood summary of the triangle fixture: feature-1 "
              "top bucket holds 2, feature-3 buckets 9/10 hold 1/1", ok)


def test_c10_large_graph_speedup():
    t_start = time.perf_counter()
    g = spatial_graph()
    idx = build_index(g)
    rng = np.random.default_rng(42)
    queries = [grow_query(g, 6, rng) for _ in range(30)]

    indexed = []
    for q in queries:
        t0 = time.perf_counter()
        res = topk_search(q, idx, SearchParams(k=10))
        indexed.append(time.perf_counter() - t0)
        assert len(res) == 10

    # the naive oracle cannot finish at this scale; running it under a
    # wall-clock budget yields a conservative LOWER bound on its time, so
    # the speedup below is itself a lower bound
    budget = 5.0
    naive = []
    capped = 0
    for q in queries:
        t0 = time.perf_counter()
        try:
            naive_topk(q, g, 10, deadline=time.monotonic() + budget)
        except SearchTimeout:
            capped += 1
        naive.append(time.perf_counter() - t0)

    mean_idx = sum(indexed) / len(indexed)
    mean_naive = sum(naive) / len(naive)
    speedup = mean_naive / mean_idx
    total = time.perf_counter() - t_start
    ok = speedup >= 5.0 and total < 600.0
    report(10, f"1434-node/15069-edge graph, 30 queries of size 6, k=10: "
               f"indexed mean {mean_idx:.3f}s vs naive lower bound "
               f"{mean_naive:.1f}s ({capped}/30 budget-capped) = "
               f">= {speedup:.0f}x, total {total:.0f}s of 600", ok)


def test_c11_index_persistence(tmp_path):
    rng = np.random.default_rng(11)
    g = random_graph(rng, 60, 150)
    idx = build_index(g)
    path = tmp_path / "target.cgq"
    save_index(idx, path)
    idx2 = load_index(path)

    identical = True
    for _ in range(20):
        q = grow_query(g, int(rng.integers(2, 6)), rng)
        a = topk_search(q, idx, SearchParams(k=8))
        b = topk_search(q, idx2, SearchParams(k=8))
        key = lambda rs: [(m.score, m.mapping.signature(),
                           tuple(sorted(m.mapping.node_map.items())))
                          for m in rs]
        identical = identical and key(a) == key(b)
    report(11, "saved and reloaded index reproduces 20 query outputs "
               "exactly", identical)


def test_c12_exemplar_properties():
    rng = np.random.default_rng(12)

    # value-identical features are always a subset of relation-preserving ones
    subset_ok = True
    for _ in range(25):
        n = int(rng.integers(5, 9))
        m = int(min(rng.integers(n, 2 * n), n * (n - 1) // 2))
        g1 = random_graph(rng, n, m)
        feats = [list(f) for f in g1.node_features]
        for i, kind in enumerate(g1.schema.kinds):
            roll = rng.random()
            if roll < 0.4:
                continue
            for u in range(n):
                if rng.random() < 0.5:
                    continue
                if kind == NUMERIC:
                    feats[u][i] = float(feats[u][i]) + float(rng.integers(1, 4))
                elif kind == CATEGORICAL:
                    feats[u][i] = "zz"
                else:
                    feats[u][i] = ("zz",)
        g2 = Graph(g1.directed, g1.schema, [tuple(f) for f in feats],
                   list(g1.edges))
        es = ExemplarSet([g1, g2], [{u: u for u in range(n)}])
        f_em = set(detect_exact_match_features(es))
        f_er = set(detect_exact_relation_features(es))
        subset_ok = subset_ok and f_em <= f_er

    # on identical exemplars every weight/aggregation variant coincides
    q1 = random_graph(rng, 6, 9)
    q2 = Graph(q1.directed, q1.schema, list(q1.node_features), list(q1.edges))
    es = ExemplarSet([q1, q2], [{u: u for u in range(q1.n_nodes)}])
    target = random_graph(rng, 40, 90)
    idx = index_with_tree(target, leaf_threshold=12)
    runs = [[(m.score, m.mapping.signature())
             for m in intent_topk(es, idx, SearchParams(k=6),
                                  weight_mode=wm, agg_mode=am)]
            for wm in ("individual", "averaged") for am in ("min", "mean")]
    coincide = all(r == runs[0] for r in runs[1:])

    # shared weights are the componentwise mean of per-exemplar weights
    es2 = ExemplarSet([q1, Graph(q1.directed, q1.schema,
                                 [tuple(f) for f in
                                  [list(f) for f in q1.node_features]],
                                 list(q1.edges))],
                      [{u: u for u in range(q1.n_nodes)}])
    nm = estimate_null_model(target)
    per = exemplar_weights(es2, nm)
    avg = averaged_weights(per)
    formula = all(avg[i] == (per[0][i] + per[1][i]) / 2
                  for i in range(len(avg)))

    ok = subset_ok and coincide and formula
    report(12, "value-identical features subset relation-preserving ones; "
               "4 intent variants coincide on identical exemplars; averaged "
               "weights equal the componentwise mean", ok)
