"""Record the digest of every range answer in the c10-range-intent corpus.

    python3 perfbench/record_digests.py

Writes perfbench/range_digests.json, which every run checks its range
answers against, so that an answer set that changes between runs or between
commits fails the benchmark. The range answer is exact, so the digest must
not change; run this again only when the corpus itself changes. It sends
the queries without a time limit.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from contextgraph.index import build_index
    from contextgraph.synth import spatial_graph

    index = build_index(spatial_graph())
    digests = {}
    for query in wl.make_corpus("c10-range-intent", index.graph):
        matches = wl.call("range", query, index)
        err = wl.check("range", query, index, matches, {})
        if err:
            print(f"query {query.idx}: {err}", file=sys.stderr)
            return 1
        digests[str(query.idx)] = wl.range_digest(matches)
        print(f"query {query.idx}: {len(matches)} answers {digests[str(query.idx)]}")
    wl.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
