"""Replay ops of a traced run in a fresh process and print their counts.

    python3 perfbench/recount.py --workload W --index FILE --ops '[[3, "topk"]]'

The traced run starts this with another PYTHONHASHSEED and compares the
counts it prints (calls into the index and similarity layers, states
expanded, offers, prunes by kind) with its own: they must be identical.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--ops", required=True, help="JSON list of [query, kind]")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import contextgraph.index as cg_index
    import workloads as wl
    from contextgraph.search import SearchAudit
    from spans import Tracer, audit_counts, op_counts

    index = cg_index.load_index(args.index)
    corpus = wl.make_corpus(args.workload, index.graph)
    tracer = Tracer()
    audited = {}
    for idx, kind in json.loads(args.ops):
        audit = SearchAudit()
        with tracer.installed():
            tracer.call((idx, kind), kind, wl.call, kind, corpus[idx], index, audit)
        audited[(idx, kind)] = audit_counts(audit)
    figs = tracer.figures()
    print(json.dumps({f"{idx}:{kind}": op_counts(figs[(idx, kind)], counts)
                      for (idx, kind), counts in audited.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
