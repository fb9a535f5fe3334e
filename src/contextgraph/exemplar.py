"""Intent refinement from multiple isomorphic query exemplars.

Giving several example subgraphs instead of one narrows what the user means:
features whose node values repeat identically across the exemplars (exact
match) or whose association components repeat edgewise (exact relation)
become hard requirements, while the remaining features keep renormalized
chi-square weights. Scoring aggregates the per-exemplar contextual
similarities by min or mean, with weights learned per exemplar or averaged,
in the same pair-table scorer that serves a single query.
"""

from dataclasses import dataclass

from .context import weight_vector
from .graph import GraphLoadError
from .search import SearchParams, _PairTableScorer, _search
from .similarity import (association_vectors, contextual_graph_similarity,
                         Mapping)
# not called here since the pair-table scorer of search.py computes every
# pair value and box bound, but the benchmark's traced run (perfbench/spans.py)
# wraps and counts these names on this module, and fails if one is missing
from .index import mbr_similarity  # noqa: F401
from .similarity import edge_similarity  # noqa: F401


# the values intent search accepts for its two modes, the default first
WEIGHT_MODES = ("individual", "averaged")
AGG_MODES = ("min", "mean")


class ExemplarError(ValueError):
    """Raised when exemplars are not isomorphic under the given bijections."""


class ExemplarSet:
    """Two or more isomorphic exemplars linked by node bijections.

    bijections[i] maps node ids of the first exemplar onto exemplar i+1;
    every edge of the first exemplar must land on an edge of each other
    exemplar (respecting direction), and edge counts must agree, so the
    correspondence is a full isomorphism. Correspondences between any two
    exemplars follow by composition.
    """

    def __init__(self, graphs, bijections):
        if len(graphs) < 2:
            raise ExemplarError("need at least two exemplars")
        if len(bijections) != len(graphs) - 1:
            raise ExemplarError("need one bijection per exemplar after the first")
        first = graphs[0]
        for g in graphs[1:]:
            if g.schema != first.schema:
                raise ExemplarError("exemplars must share one feature schema")
            if g.directed != first.directed:
                raise ExemplarError("exemplars must agree on directedness")
            if g.n_nodes != first.n_nodes or g.n_edges != first.n_edges:
                raise ExemplarError("exemplars must have equal node and edge counts")

        node_maps = [{u: u for u in range(first.n_nodes)}]
        edge_maps = [list(range(first.n_edges))]
        for i, bij in enumerate(bijections, start=1):
            g = graphs[i]
            if sorted(bij) != list(range(first.n_nodes)):
                raise ExemplarError(f"exemplar {i + 1}: bijection domain must cover "
                                    "the first exemplar's nodes")
            if sorted(bij.values()) != list(range(g.n_nodes)):
                raise ExemplarError(f"exemplar {i + 1}: bijection image must cover "
                                    "its nodes exactly once")
            emap = []
            for u, v in first.edges:
                te = g.edge_between(bij[u], bij[v])
                if te is None:
                    raise ExemplarError(f"exemplar {i + 1}: edge ({u}, {v}) of the "
                                        "first exemplar has no image")
                emap.append(te)
            node_maps.append(dict(bij))
            edge_maps.append(emap)
        self.graphs = list(graphs)
        self.node_maps = node_maps
        self.edge_maps = edge_maps

    def __len__(self):
        return len(self.graphs)

    def pairwise(self, i, j):
        """Node bijection from exemplar i to exemplar j by composition."""
        inv = {v: u for u, v in self.node_maps[i].items()}
        return {v: self.node_maps[j][inv[v]] for v in self.node_maps[i].values()}

    def translate(self, m, i):
        """Re-express a mapping of the first exemplar in exemplar i's ids."""
        nmap = self.node_maps[i]
        emap = self.edge_maps[i]
        return Mapping({nmap[qn]: tn for qn, tn in m.node_map.items()},
                       {(emap[qe], te) for qe, te in m.edge_pairs})


def exemplar_weights(es, nm):
    """Per-exemplar context weight vectors under one target null model."""
    return [weight_vector(g, nm) for g in es.graphs]


def averaged_weights(weight_list):
    """Componentwise mean of weight vectors; stays normalized."""
    u = len(weight_list)
    return tuple(sum(w[i] for w in weight_list) / u
                 for i in range(len(weight_list[0])))


def _check_modes(weight_mode, agg_mode):
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    if agg_mode not in AGG_MODES:
        raise ValueError(f"unknown agg_mode {agg_mode!r}")


def exemplar_similarity(m, es, g_t, nm, weight_mode=WEIGHT_MODES[0],
                        agg_mode=AGG_MODES[0]):
    """Aggregate contextual similarity of one mapping across all exemplars.

    weight_mode selects per-exemplar weights or their average; agg_mode
    selects min (every exemplar must be matched well) or mean. A mode not in
    WEIGHT_MODES / AGG_MODES raises ValueError before weights are learned.
    """
    _check_modes(weight_mode, agg_mode)
    per = exemplar_weights(es, nm)
    if weight_mode == "averaged":
        per = [averaged_weights(per)] * len(es)
    scores = [contextual_graph_similarity(es.translate(m, i), es.graphs[i],
                                          g_t, per[i])
              for i in range(len(es))]
    if agg_mode == "min":
        return min(scores)
    # in exemplar order, as the engine adds them (sum() may not, 3.12 on)
    total = 0.0
    for s in scores:
        total += s
    return total / len(scores)


def detect_exact_match_features(es):
    """Features whose node values are identical across exemplars under the
    bijections."""
    first = es.graphs[0]
    out = []
    for f in range(len(first.schema)):
        ok = True
        for i in range(1, len(es)):
            g = es.graphs[i]
            nmap = es.node_maps[i]
            for v in range(first.n_nodes):
                if first.node_features[v][f] != g.node_features[nmap[v]][f]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(f)
    return tuple(out)


def _aligned_vectors(es):
    """Each exemplar's association vectors, in the first exemplar's edge ids."""
    return [[assoc[e] for e in emap] for assoc, emap in
            zip(map(association_vectors, es.graphs), es.edge_maps)]


def _exact_relation(es, aligned):
    first = aligned[0]
    return tuple(f for f in range(len(es.graphs[0].schema))
                 if all(vecs[e][f] == first[e][f]
                        for vecs in aligned[1:] for e in range(len(first))))


def detect_exact_relation_features(es):
    """Features whose association components agree edgewise across exemplars."""
    return _exact_relation(es, _aligned_vectors(es))


@dataclass
class HybridContext:
    """Split of the feature set into hard filters and weighted context.

    weights spans all features with zeros on the filtered ones; the rest
    carry the renormalized mean of the per-exemplar chi-square weights,
    which per_weights holds, one vector per exemplar. aligned holds each
    exemplar's association vectors in the first exemplar's edge ids: they
    decide the exact-relation features and are what intent search scores.
    """

    exact_match: tuple
    exact_relation: tuple
    weights: tuple
    per_weights: list
    aligned: list


def hybrid_context(es, nm):
    """Detect filter features and reweight the remaining context features."""
    aligned = _aligned_vectors(es)
    em = detect_exact_match_features(es)
    er = _exact_relation(es, aligned)
    excluded = set(em) | set(er)
    per = exemplar_weights(es, nm)
    d = len(es.graphs[0].schema)
    sums = [sum(w[f] for w in per) for f in range(d)]
    total = sum(s for f, s in enumerate(sums) if f not in excluded)
    free = [f for f in range(d) if f not in excluded]
    if not free:
        weights = tuple(0.0 for _ in range(d))
    elif total == 0.0:
        weights = tuple(0.0 if f in excluded else 1.0 / len(free) for f in range(d))
    else:
        weights = tuple(0.0 if f in excluded else sums[f] / total for f in range(d))
    return HybridContext(em, er, weights, per, aligned)


def intent_topk(es, index, params=SearchParams(), weight_mode=WEIGHT_MODES[0],
                agg_mode=AGG_MODES[0], use_filters=True, audit=None,
                context=None):
    """Top-k matches of an exemplar set against an indexed target.

    The first exemplar drives the growth; scores aggregate all exemplars
    under the modes of exemplar_similarity. params.scorer must be
    "contextual"; it and the modes are checked before weights are learned.
    With use_filters the exact-match / exact-relation features are hard
    requirements on every answer: each matched pair keeps the query edge's
    association components on the exact-relation features, each mapped node
    keeps the query node's values on the exact-match features, and an answer
    is maximal when no pair that keeps both extends it. context is the
    exemplar set's HybridContext under the index's null model when the
    caller already has it; otherwise it is learned here.
    """
    if params.scorer != "contextual":
        raise ValueError(f"intent search scores contextually, not with "
                         f"scorer {params.scorer!r}")
    _check_modes(weight_mode, agg_mode)
    hc = context if context is not None else hybrid_context(es, index.null_model)
    per = hc.per_weights
    if weight_mode == "averaged":
        per = [averaged_weights(per)] * len(es)
    scorer = _PairTableScorer(hc.aligned, index, per, agg_mode == "min")
    em, er = (hc.exact_match, hc.exact_relation) if use_filters else ((), ())
    return _search(es.graphs[0], index, scorer, k=params.k, audit=audit,
                   exact_match=em, exact_relation=er)


def load_bijections(path, graphs):
    """Parse a bijection file into dense node maps.

    Each non-comment line reads `<exemplar><TAB><id-in-first><TAB><id-there>`
    with 1-based exemplar numbers starting at 2; node ids are the original
    ids from the exemplars' node files.
    """
    per = [{} for _ in graphs]
    first_ids = {nid: u for u, nid in enumerate(graphs[0].node_ids)}
    other_ids = [{nid: u for u, nid in enumerate(g.node_ids)} for g in graphs]
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            line = line.strip()
            if line == "" or line.startswith("#"):
                continue
            cells = line.split("\t")
            if len(cells) != 3:
                raise GraphLoadError(f"{path}:{lineno}: expected "
                                     "'exemplar<TAB>first-id<TAB>exemplar-id'")
            try:
                which = int(cells[0])
            except ValueError:
                raise GraphLoadError(f"{path}:{lineno}: bad exemplar number "
                                     f"{cells[0]!r}") from None
            if not 2 <= which <= len(graphs):
                raise GraphLoadError(f"{path}:{lineno}: exemplar number {which} "
                                     f"out of range 2..{len(graphs)}")
            if cells[1] not in first_ids:
                raise GraphLoadError(f"{path}:{lineno}: unknown node id {cells[1]!r} "
                                     "in the first exemplar")
            if cells[2] not in other_ids[which - 1]:
                raise GraphLoadError(f"{path}:{lineno}: unknown node id {cells[2]!r} "
                                     f"in exemplar {which}")
            src = first_ids[cells[1]]
            dst = other_ids[which - 1][cells[2]]
            if src in per[which - 1]:
                raise GraphLoadError(f"{path}:{lineno}: node {cells[1]!r} mapped twice "
                                     f"for exemplar {which}")
            per[which - 1][src] = dst
    return per[1:]
