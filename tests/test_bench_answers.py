"""The benchmark's own answer checks pass on a few of its slowest ops.

perfbench/workloads.py is imported read-only and its corpus, ops and
`check` are used as the benchmark run uses them, so a search change that
breaks a benchmark answer fails here too.
"""

import importlib.util
from pathlib import Path

import pytest

from contextgraph.index import build_index
from contextgraph.synth import spatial_graph

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# the slowest 6-8-edge c10-topk queries, and the c10-range-intent queries
# whose range ops an allocation-heavy growth queue once slowed (0, 2, 11)
# plus the one whose intent op was the slowest when the benchmark was made
OPS = ([("c10-topk", i, "topk") for i in (41, 101, 64, 70)] +
       [("c10-range-intent", i, kind) for i in (0, 2, 11, 14)
        for kind in ("range", "intent")])


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    index = build_index(spatial_graph())
    corpora = {name: wl.make_corpus(name, index.graph) for name in wl.WORKLOADS}
    return wl, index, corpora, wl.load_digests()


@pytest.mark.parametrize("workload, idx, kind", OPS)
def test_benchmark_check_passes(bench, workload, idx, kind):
    wl, index, corpora, digests = bench
    query = corpora[workload][idx]
    assert query.idx == idx
    matches = wl.call(kind, query, index)
    assert wl.check(kind, query, index, matches, digests) is None
