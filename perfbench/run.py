"""Benchmark of contextgraph on the c10 spatial graph.

    python3 perfbench/run.py --workload c10-topk --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
One client sends one op at a time (closed loop, no threads), in this process,
so the process's memory high-water mark belongs to the workload.

Set-up is what a user of the CLI pays for `build-index` and then
`query --index`: load the target from schema/TSV, build the index, save it
and load it back. The files are written before timing starts, and set-up
runs SETUP_REPS times; queries go to the last loaded index.

The query phase sends the workload's corpus PASSES times, each pass in an
order drawn from --seed, and then keeps sending it until --seconds have
passed. An op is one call of a search function (on c10-range-intent each
query makes a range op and an intent op), and its latency is the least of
its first PASSES sends. Throughput, failures and memory come from every
pass. An op fails when it raises, runs past its fuse, runs out of memory,
gives a wrong answer, or is left unsent at SEND_LIMIT_S.

--trace 0 prints the end-to-end metrics. --trace 1 runs with the program's
layers wrapped in spans and prints the per-layer metrics, the tracing
overhead, and whether the counts repeated in a second traced process. The
last line of output is one JSON object; the exit status is 0 exactly when
every answer was right.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

T0 = perf_counter()  # the start of the run, near enough
# No op is sent later than SEND_LIMIT_S after the start (an op of the first
# passes left unsent fails), and a traced run's replay must end by
# RUN_LIMIT_S: with the fuse, a run of a much slower program ends in 180 s.
SEND_LIMIT_S = 130.0
RUN_LIMIT_S = 170.0

SETUP_REPS = 3
# The process may map at most this much; a runaway query then raises
# MemoryError instead of taking the machine's memory.
ADDRESS_CAP = 2 << 30
# Completed ops replayed in a second traced process to check the counts.
REPLAY_OPS = 6

# name, unit; the JSON line of --trace 0 carries exactly these
END_TO_END = (
    ("setup_s", "s"),
    ("index_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("completed_frac", "ratio"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("queries_per_s", "1/s"),
)

# name, unit, the end-to-end metric it should move; the JSON line of
# --trace 1 carries exactly these. Per op unless it is a set-up stage.
GROWTH = "query_tail_ms (large_tail_ms), completed_frac on c10-topk"
PER_LAYER = (
    ("graph.load_s", "s", "setup_s, all workloads"),
    ("context.null_model_s", "s", "setup_s"),
    ("context.weights_ms", "ms", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("similarity.assoc_s", "s", "setup_s"),
    ("similarity.edge_sim_calls", "count", "query_tail_ms (large_tail_ms) on c10-topk"),
    ("index.summaries_s", "s", "setup_s, index_bytes"),
    ("index.tree_s", "s", "setup_s, index_bytes"),
    ("index.save_s", "s", "setup_s, index_bytes"),
    ("index.load_s", "s", "setup_s, index_bytes"),
    ("index.query_summary_ms", "ms", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("index.mbr_calls", "count", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("index.mbr_ms", "ms", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("index.nsim_calls", "count", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("index.nsim_ms", "ms", "query_p50_ms (small_p50_ms) on c10-topk"),
    ("search.self_ms", "ms", GROWTH + "; range_p50_ms"),
    ("search.expanded", "count", GROWTH),
    ("search.offers", "count", GROWTH),
    ("search.offer_ratio", "ratio", GROWTH),
) + tuple(
    ("search.prunes." + kind, "count", GROWTH)
    for kind in ("query-edge", "tree-node", "leaf-remainder", "seed", "growth",
                 "growth-queue")
) + (
    ("search.matches", "count", "range_p50_ms"),
    ("exemplar.context_ms", "ms", "intent_p50_ms"),
    ("trace.overhead_ms", "ms", "none: traced minus untraced time per op"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("c10-topk", "c10-range-intent"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(work, tracer=None):
    """Write the target files, then time SETUP_REPS set-ups.

    Returns (index, seconds per set-up, index file size, error or None).
    """
    import contextgraph.graph as cg_graph
    import contextgraph.index as cg_index
    from contextgraph.synth import spatial_graph

    g = spatial_graph()
    schema_p, nodes_p, edges_p, index_p = (work / name for name in (
        "schema.json", "nodes.tsv", "edges.tsv", "target.cgi"))
    cg_graph.save_schema(g.schema, g.directed, schema_p)
    cg_graph.save_graph(g, nodes_p, edges_p)

    def chain():
        schema, directed = cg_graph.load_schema(schema_p)
        target = cg_graph.load_graph(nodes_p, edges_p, schema, directed)
        cg_index.save_index(cg_index.build_index(target), index_p)
        return cg_index.load_index(index_p)

    times = []
    for rep in range(SETUP_REPS):
        index = None  # let the previous index go before building the next
        t0 = perf_counter()
        index = chain() if tracer is None else tracer.call(("setup", rep), "setup", chain)
        times.append(perf_counter() - t0)
    t = index.graph
    err = None
    if (t.edges, t.node_features, t.node_ids) != (g.edges, g.node_features, g.node_ids):
        err = "the loaded index holds another graph than the one written"
    return index, times, index_p.stat().st_size, err


def latency(samples):
    """Median and tail of (seconds, ok) samples; failed ones rank last.

    The tail is the highest percentile with at least ten samples beyond it;
    with too few samples for that to lie above the median, it is the maximum.
    Returns (p50 ms, tail ms, tail note).
    """
    vals = [v for _, v in sorted((not ok, v) for v, ok in samples)]
    n = len(vals)
    beyond = 10 if n - 11 > (n - 1) / 2 else 0
    note = f"p{100.0 * (n - beyond) / n:.1f}, {beyond} of {n} beyond"
    return 1000 * statistics.median(vals), 1000 * vals[n - 1 - beyond], note


class Tally:
    """Attempted and failed ops, and why the failures failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []      # answers that failed a check
        self.reasons = {}

    def add(self, query, kind, err, wrong=False):
        self.attempted += 1
        if err is None:
            return
        self.failed += 1
        reason = err.split(":")[0] if not wrong else "wrong answer"
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if wrong:
            self.wrong.append(f"query {query.idx} {kind}: {err}")


def send(wl, fuse, tally, kind, query, index, digests, fn):
    """Send one op under the fuse and check its answer: (seconds, result, ok)."""
    dt, res, err = fuse.attempt(fn)
    wrong = False
    if err is None:
        err = wl.check(kind, query, index, res, digests)
        wrong = err is not None
    tally.add(query, kind, err, wrong)
    return dt, res, err is None


def timed_run(args, work):
    import workloads as wl

    index, setup_times, index_bytes, setup_err = set_up(work)
    corpus = wl.make_corpus(args.workload, index.graph)
    kinds = wl.WORKLOADS[args.workload][0]
    digests = wl.load_digests()
    fuse = wl.Fuse(wl.OP_LIMIT_S)
    tally = Tally()
    rng = random.Random(args.seed)
    order = list(range(len(corpus)))
    log = []        # (pass, query, kind, seconds, ok) of the first PASSES passes
    busy = 0.0
    passes = 0
    deadline = perf_counter() + args.seconds
    budget_end = T0 + SEND_LIMIT_S
    while passes < wl.PASSES or perf_counter() < deadline:
        rng.shuffle(order)
        for query, kind in wl.ops_of(args.workload, corpus, order):
            now = perf_counter()
            if passes >= wl.PASSES and (now >= deadline or now >= budget_end):
                break
            if now >= budget_end:
                tally.add(query, kind, "send limit: the run had no time left to send it")
                log.append((passes, query.idx, kind, wl.OP_LIMIT_S, False))
                continue
            dt, _, ok = send(wl, fuse, tally, kind, query, index, digests,
                             lambda: wl.call(kind, query, index))
            busy += dt
            if passes < wl.PASSES:
                log.append((passes, query.idx, kind, dt, ok))
        passes += 1
    (OUT / f"ops-{args.workload}-seed{args.seed}.json").write_text(json.dumps(log))

    # an op's latency is the least of its sends: other work on the machine
    # only ever adds time. A failed send ranks above every success, so an op
    # ranks as failed only when all of its sends failed.
    sends = {}
    for _, idx, kind, dt, ok in log:
        value = dt if ok else max(dt, wl.OP_LIMIT_S)
        sends.setdefault((idx, kind), []).append((not ok, value))
    op = {key: min(v) for key, v in sends.items()}
    p50, tail, tail_note = latency((dt, not failed) for failed, dt in op.values())
    values = {
        "setup_s": statistics.median(setup_times),
        "index_bytes": index_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "completed_frac": (tally.attempted - tally.failed) / tally.attempted,
        "query_p50_ms": p50,
        "query_tail_ms": tail,
        "queries_per_s": (tally.attempted - tally.failed) / busy if busy else 0.0,
    }
    units = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  corpus {len(corpus)} queries"
          f"  passes {passes}  op limit {wl.OP_LIMIT_S} s")
    print(f"  set-up runs (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    rows = [(name, values[name], units[name], "") for name in
            ("setup_s", "index_bytes", "peak_rss_mb")]
    rows.append(("failed_frac", tally.failed / tally.attempted, "ratio",
                 f"{tally.failed} of {tally.attempted} ops {tally.reasons or ''}"))
    rows.append(("completed_frac", values["completed_frac"], "ratio", ""))
    rows.append(("query_p50_ms", p50, "ms", f"per op, least of its {wl.PASSES} sends"))
    rows.append(("query_tail_ms", tail, "ms", tail_note))
    rows.append(("queries_per_s", values["queries_per_s"], "1/s",
                 f"completed ops / {busy:.2f} s spent in ops"))
    if kinds == ("topk",):
        # the two size classes of top-k queries: 2-4 and 6-8 edges
        group = {key: "small" if corpus[key[0]].q.n_edges <= 4 else "large" for key in op}
    else:
        group = {key: key[1] for key in op}
    for name in dict.fromkeys(group.values()):
        gp50, gtail, gnote = latency((dt, not failed) for key, (failed, dt) in op.items()
                                     if group[key] == name)
        rows.append((f"{name}_p50_ms", gp50, "ms", ""))
        rows.append((f"{name}_tail_ms", gtail, "ms", gnote))
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {note}")

    problems = tally.wrong + ([setup_err] if setup_err else [])
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def replay_counts(args, index_path, keys):
    """Counts of the given ops from a second traced process, or an error."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    cmd = [sys.executable, str(HERE / "recount.py"), "--workload", args.workload,
           "--index", str(index_path), "--ops", json.dumps(keys)]
    limit = max(5.0, T0 + RUN_LIMIT_S - perf_counter())
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return None, f"the replay process ran past its {limit:.0f} s"
    if proc.returncode != 0:
        return None, f"the replay process failed: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def traced_run(args, work):
    import workloads as wl
    from contextgraph.search import SearchAudit
    from spans import PRUNE_KINDS, Tracer, audit_counts, op_counts

    tracer = Tracer()
    with tracer.installed():
        index, _, _, setup_err = set_up(work, tracer)
    corpus = wl.make_corpus(args.workload, index.graph)
    digests = wl.load_digests()
    fuse = wl.Fuse(wl.OP_LIMIT_S)
    tally = Tally()
    order = list(range(len(corpus)))
    random.Random(args.seed).shuffle(order)
    ops = wl.ops_of(args.workload, corpus, order)
    problems = [setup_err] if setup_err else []

    def traced_op(key, kind, query):
        audit = SearchAudit()
        with tracer.installed():
            dt, res, ok = send(wl, fuse, tally, kind, query, index, digests,
                               lambda: tracer.call(key, kind, wl.call, kind, query,
                                                   index, audit))
        # keep the counts, not the audit: its prune log would grow the heap
        # and slow the garbage collector for every later op
        return dt, ok, audit_counts(audit), len(res) if ok else 0

    # Every op runs traced and, right before or after it (alternately),
    # untraced; the difference is the overhead. The per-layer figures come
    # from the first pass, where every op runs once; later passes fill the
    # rest of --seconds and add to the overhead sample only.
    deadline = perf_counter() + args.seconds
    budget_end = T0 + SEND_LIMIT_S
    traced = {}
    paired = []
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for pos, (query, kind) in enumerate(ops):
            now = perf_counter()
            if passes and (now >= deadline or now >= budget_end):
                break
            if now >= budget_end:
                tally.add(query, kind, "send limit: the run had no time left to send it")
                continue
            if pos % 2:
                u_dt, _, u_ok = send(wl, fuse, tally, kind, query, index, digests,
                                     lambda: wl.call(kind, query, index))
            dt, ok, counts, n_answers = traced_op((passes, query.idx, kind), kind, query)
            if not pos % 2:
                u_dt, _, u_ok = send(wl, fuse, tally, kind, query, index, digests,
                                     lambda: wl.call(kind, query, index))
            if ok and u_ok:
                paired.append((dt, u_dt))
            if ok and counts["unsound"]:
                problems.append(f"query {query.idx} {kind}: a prune cut a state "
                                "whose bound beat the threshold")
            if ok and passes == 0:
                traced[(query.idx, kind)] = (counts, n_answers)
        passes += 1

    figs = tracer.figures()
    counts = {key: op_counts(figs[(0,) + key], audited)
              for key, (audited, _) in traced.items()}
    keys = list(traced)[:REPLAY_OPS]
    replayed, err = replay_counts(args, work / "target.cgi", keys)
    differ = [err] if err else [
        f"query {idx} {kind}: {name} was {mine}, {theirs} in the replay"
        for idx, kind in keys for name, mine in counts[(idx, kind)].items()
        if (theirs := replayed[f"{idx}:{kind}"][name]) != mine]
    problems += differ

    values = {}
    setup = [figs[("setup", rep)] for rep in range(SETUP_REPS)]
    for metric, span in (("graph.load_s", "graph.load"),
                         ("context.null_model_s", "context.null_model"),
                         ("similarity.assoc_s", "similarity.assoc"),
                         ("index.summaries_s", "index.summary"),
                         ("index.tree_s", "index.tree"),
                         ("index.save_s", "index.save"),
                         ("index.load_s", "index.load")):
        values[metric] = statistics.median(f[span][1] for f in setup)

    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    done = [figs[(0,) + key] for key in traced]
    for metric, span, field, scale in (
            ("context.weights_ms", "context.weights", 1, 1000),
            ("similarity.edge_sim_calls", "similarity.edge_sim", 0, 1),
            ("index.query_summary_ms", "index.query_summary", 1, 1000),
            ("index.mbr_calls", "index.mbr", 0, 1),
            ("index.mbr_ms", "index.mbr", 1, 1000),
            ("index.nsim_calls", "index.nsim", 0, 1),
            ("index.nsim_ms", "index.nsim", 1, 1000),
            ("search.self_ms", "op.self", 1, 1000)):
        values[metric] = mean(f.get(span, (0, 0.0))[field] * scale for f in done)
    for name in ["search.expanded", "search.offers"] + [
            "search.prunes." + kind for kind in PRUNE_KINDS]:
        values[name] = mean(c[name] for c in counts.values())
    expanded = sum(c["search.expanded"] for c in counts.values())
    values["search.offer_ratio"] = (
        sum(c["search.offers"] for c in counts.values()) / expanded if expanded else 0.0)
    answers = [(key[1], n) for key, (_, n) in traced.items()]
    ranged = [n for kind, n in answers if kind == "range"]
    values["search.matches"] = mean(ranged or [n for _, n in answers])
    values["exemplar.context_ms"] = mean(
        1000 * figs[(0,) + key].get("exemplar.context", (0, 0.0))[1]
        for key in traced if key[1] == "intent")
    values["trace.overhead_ms"] = mean(1000 * (t - u) for t, u in paired)
    untraced = sum(u for _, u in paired)
    overhead_pct = 100 * (sum(t for t, _ in paired) / untraced - 1) if untraced else 0.0

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {args.workload}  seed {args.seed}  traced ops {len(traced)} of "
          f"{len(ops)} completed  spans in {spans_path.relative_to(ROOT)}")
    print(f"  {'metric':<30} {'value':>14} {'unit':<6} should move")
    for name, unit, moves in PER_LAYER:
        print(f"  {name:<30} {values[name]:>14.6g} {unit:<6} {moves}")
    print(f"  tracing overhead: {values['trace.overhead_ms']:+.3f} ms per op "
          f"({overhead_pct:+.2f} %), over {len(paired)} ops run traced and untraced")
    print(f"  counts of {len(keys)} ops replayed in a second process: "
          f"{'DIFFERENT' if differ else 'identical'}")
    problems += tally.wrong
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in PER_LAYER}}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "contextgraph" / "__init__.py").is_file():
        print(f"error: no contextgraph package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one client and no threads: keep the BLAS pool from starting any
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path.insert(0, str(ROOT / "src"))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = (traced_run if args.trace else timed_run)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
