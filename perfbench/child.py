"""One measured process: set up, run and (optionally) check one workload.

Started by ``run.py`` in a fresh interpreter per measurement, so memoized
datasets and op streams never make a repeat cheaper than a user's first
point.  Prints one JSON object on stdout.  With ``--trace`` the layers
are wrapped by :class:`tracer.Tracer` after import and before the
cluster is built, and unwrapped before the untimed checks.

Usage: ``python3 perfbench/child.py --workload NAME --seed N [--check]
[--trace] [--spans PATH]``
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spec import CLIENTS, DEPTH, WARMUP_FRACTION, WORKLOADS  # noqa: E402

#: Keys read back through an index client after the run.
READBACK_KEYS = 256


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--check", action="store_true",
                        help="check invariants and read keys back after the run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the traced run's spans to PATH.{bin,json}")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    from repro.bench.perf import PERF_SCALE
    from repro.bench.runner import load_index, run_workload
    from repro.cluster.cluster import Cluster
    from repro.config import KNOWN_ENV_VARS
    from repro.registry import build_index, get_family
    from repro.workloads.ycsb import WORKLOADS as MIXES
    from repro.workloads.ycsb import WorkloadContext, dataset
    t_import = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        run_workload = tracer.wrap(run_workload, "perfbench.run", "other")
    t_build0 = time.perf_counter()

    scale = PERF_SCALE
    config = scale.cluster_config(clients=CLIENTS, seed=args.seed)
    cluster = Cluster(config)
    family = get_family(workload.index)
    index = build_index(workload.index, cluster,
                        chime_overrides=scale.chime_overrides()
                        if family.accepts_overrides else None)
    t_build = time.perf_counter()

    load_first = len(tracer.buf) if tracer else 0
    pairs = dataset(scale.num_keys, key_space=scale.key_space,
                    seed=config.seed)
    context = WorkloadContext(MIXES[workload.mix], [k for k, _ in pairs],
                              seed=config.seed, theta=workload.theta)
    context.expected_insert_budget = 64
    load_index(index, pairs, workload.mix, context)
    t_load = time.perf_counter()
    load_last = len(tracer.buf) if tracer else 0

    before = counters(cluster, index)
    run_first = len(tracer.buf) if tracer else 0
    calls_before = list(tracer.calls) if tracer else []
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    result = run_workload(cluster, index, workload.mix,
                          workload.ops_per_client, context,
                          warmup_fraction=WARMUP_FRACTION, depth=DEPTH)
    wall1 = time.perf_counter()
    cpu1 = time.process_time()
    run_last = len(tracer.buf) if tracer else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    after = counters(cluster, index)
    delta = {key: after[key] - before[key] for key in after}
    ops = result.ops_completed
    per_op = 1.0 / max(1, ops)
    traffic = result.traffic
    spec_tried = delta["spec_correct"] + delta["spec_wrong"]
    # The busiest direction of any MN NIC.
    mn_nic_busy = max(v for k, v in delta.items()
                      if k.startswith("mn_nic_busy."))
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(tracer),
        "env": {name: os.environ.get(name) for name in sorted(KNOWN_ENV_VARS)},
        "fingerprint": {
            "events": delta["events"],
            "ops": ops,
            "latency_samples": len(result.latencies_us),
            "sim_mops": result.throughput_mops,
            "sim_p50_us": result.p50_us,
            "sim_p999_us": result.p999_us,
        },
        "attempted": workload.ops,
        "timing": {
            "import_s": t_import - T_START,
            "build_s": t_build - t_build0,
            "load_s": t_load - t_build,
            "setup_s": (t_import - T_START) + (t_load - t_build0),
            "run_wall_s": wall1 - wall0,
            "run_cpu_s": cpu1 - cpu0,
            "peak_rss_mb": peak_rss_mb,
        },
        "counters": {
            "sim.events_per_op": delta["events"] * per_op,
            "rdma.rtts_per_op": traffic.rtts * per_op,
            "rdma.read_bytes_per_op": traffic.bytes_read * per_op,
            "rdma.write_bytes_per_op": traffic.bytes_written * per_op,
            "rdma.retries_per_op": traffic.retries * per_op,
            "rdma.mn_nic_busy_frac": mn_nic_busy
            / result.elapsed_seconds if result.elapsed_seconds > 0 else 0.0,
            "core.hotspot_hit_ratio": delta["hotspot_hits"]
            / delta["hotspot_lookups"] if delta["hotspot_lookups"] else 0.0,
            "core.spec_correct_ratio": delta["spec_correct"] / spec_tried
            if spec_tried else 0.0,
            "cluster.cache_hit_ratio": result.cache_hit_ratio,
            "cluster.rdwc_saved_frac": delta["rdwc_saved"] * per_op,
        },
    }
    if tracer:
        out["trace"] = trace_summary(tracer, ops, load_first, load_last,
                                     run_first, run_last, calls_before,
                                     wall1 - wall0)
        if args.spans:
            tracer.dump(args.spans)
    if args.check:
        out["checks"] = check(cluster, index, pairs, context, workload,
                              args.seed)
    print(json.dumps(out))


def counters(cluster, index):
    """Cumulative simulated counters read around the run phase."""
    engine = cluster.engine
    lookups, hits, correct, wrong = (
        index.hotspot_stats() if hasattr(index, "hotspot_stats")
        else (0, 0, 0, 0))
    return {
        "events": engine.events_processed,
        **{f"mn_nic_busy.{mn_id}.{name}": queue.busy_time_until(engine.now)
           for mn_id, mn in cluster.mns.items()
           for name, queue in (("rx", mn.nic.rx), ("tx", mn.nic.tx))},
        "hotspot_lookups": lookups,
        "hotspot_hits": hits,
        "spec_correct": correct,
        "spec_wrong": wrong,
        "rdwc_saved": sum(cn.combiner.delegated_reads
                          + cn.combiner.combined_writes for cn in cluster.cns),
    }


def check(cluster, index, pairs, context, workload, seed):
    """Untimed checks after the run.

    The index's structure invariants must hold, and each key of a seeded
    sample, read back through an index client, must hold its loaded
    value or a value its op stream wrote.
    """
    from repro.faults.invariants import check_index_invariants
    from repro.workloads.ycsb import UPDATE

    report = check_index_invariants(index, expected_keys=[k for k, _ in pairs])
    written = {key: {value} for key, value in pairs}
    for client_index in range(cluster.total_clients):
        for op in context.stream(client_index, workload.ops_per_client):
            if op.kind == UPDATE:
                written[op.key].add(op.value)
    sample = random.Random(seed).sample([k for k, _ in pairs], READBACK_KEYS)
    reader = index.client(next(cluster.clients()))
    got = {}

    def read_back():
        for key in sample:
            got[key] = yield from reader.search(key)
    cluster.engine.process(read_back())
    cluster.run()
    return {
        "invariant_violations": report.violations[:10],
        "readback_keys": len(sample),
        "readback_mismatches": sum(1 for key in sample
                                   if got.get(key) not in written[key]),
    }


def trace_summary(tracer, ops, load_first, load_last, run_first, run_last,
                  calls_before, run_wall):
    """Per-layer self times and call counts of one traced run."""
    from tracer import END, START
    per_op = 1e6 / max(1, ops)
    run_self = tracer.self_times(run_first, run_last)
    load_self = tracer.self_times(load_first, load_last)
    calls = {}
    for nid, count in enumerate(tracer.calls):
        before = calls_before[nid] if nid < len(calls_before) else 0
        layer = tracer.layers[nid]
        calls[layer] = calls.get(layer, 0) + count - before
    root_s = (tracer.buf[run_first + END] - tracer.buf[run_first + START]) / 1e9
    return {
        "run_wall_s": run_wall,
        "root_span_s": root_s,
        "self_s": run_self,
        "self_us_per_op": {k: v * per_op for k, v in run_self.items()},
        "hashing_load_s": load_self.get("hashing", 0.0),
        "calls_per_op": {k: v / max(1, ops) for k, v in calls.items()},
        "mn_queue_wait_us_per_op": tracer.mn_queue_wait[0] * per_op,
        "spans": tracer.span_count,
    }


if __name__ == "__main__":
    main()
