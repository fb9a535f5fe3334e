"""Context-aware top-k common subgraph search over labeled graphs.

The public surface groups into five layers: the graph model (schema,
loading, validation), context learning (binning, null model, chi-square
feature weights), similarity (association vectors, weighted edge and
subgraph scores, bounds), the edge index (variance-split tree over
association vectors, with persistence; it also keeps neighborhood
summaries, which no search reads), and the search engines (exhaustive
oracle and the index-accelerated top-k / range engine, plus multi-exemplar
intent search).
"""

from .context import (Binner, NullModel, chi_square, edge_feature_counts,
                      edge_feature_value, estimate_null_model, fit_binner,
                      normalize_weights, weight_vector)
from .exemplar import (ExemplarError, ExemplarSet, HybridContext,
                       averaged_weights, detect_exact_match_features,
                       detect_exact_relation_features, exemplar_similarity,
                       exemplar_weights, hybrid_context, intent_topk,
                       load_bijections)
from .graph import (CATEGORICAL, CATEGORICAL_SET, NUMERIC, FeatureSchema,
                    Graph, GraphLoadError, load_graph, load_schema,
                    save_graph, save_schema)
from .index import (MBR, EdgeIndex, IndexFileError, TreeNode, bucket_index,
                    build_index, construct_tree, load_index, mbr_of,
                    mbr_similarity, neighborhood_similarity,
                    neighborhood_summary, save_index)
from .search import (SearchAudit, SearchParams, SearchTimeout, enumerate_mcs,
                     naive_range, naive_topk, range_search, topk_search)
from .similarity import (Mapping, ScoredMatch, association_vector,
                         association_vectors, contextual_graph_similarity,
                         edge_similarity, gamma, mcs_upper_bound,
                         seed_upper_bound, traditional_graph_similarity,
                         traditional_node_similarity)

__version__ = "0.1.0"

__all__ = [
    "Binner", "NullModel", "chi_square", "edge_feature_counts",
    "edge_feature_value", "estimate_null_model", "fit_binner",
    "normalize_weights", "weight_vector",
    "ExemplarError", "ExemplarSet", "HybridContext", "averaged_weights",
    "detect_exact_match_features", "detect_exact_relation_features",
    "exemplar_similarity", "exemplar_weights", "hybrid_context",
    "intent_topk", "load_bijections",
    "CATEGORICAL", "CATEGORICAL_SET", "NUMERIC", "FeatureSchema", "Graph",
    "GraphLoadError", "load_graph", "load_schema", "save_graph",
    "save_schema",
    "MBR", "EdgeIndex", "IndexFileError", "TreeNode",
    "bucket_index", "build_index", "construct_tree", "load_index", "mbr_of",
    "mbr_similarity", "neighborhood_similarity", "neighborhood_summary",
    "save_index",
    "SearchAudit", "SearchParams", "SearchTimeout", "enumerate_mcs",
    "naive_range", "naive_topk", "range_search", "topk_search",
    "Mapping", "ScoredMatch", "association_vector", "association_vectors",
    "contextual_graph_similarity", "edge_similarity", "gamma",
    "mcs_upper_bound", "seed_upper_bound", "traditional_graph_similarity",
    "traditional_node_similarity",
    "__version__",
]
