"""What the benchmark runs and what it reports.

Shared by the runner (``run.py``) and the measured process
(``child.py``); neither the workload table nor the metric table lives
anywhere else.  ``BENCHMARK.json`` at the repository root repeats the
workload names and metric names for the tools that read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Seed used when ``--seed`` is not given: ``PERF_SCALE.seed`` of the
#: pinned perf suite, so the benchmark's default points are the suite's.
DEFAULT_SEED = 1234

#: Closed-loop simulated clients (8 per CN on 2 CNs), one op in flight
#: each (pipeline depth 1).  At ``nic_scale`` 32 the MN NIC is saturated
#: at this count, the paper's regime for its YCSB comparison (Fig. 12).
CLIENTS = 16
DEPTH = 1

#: The runner drops the first 10% of each client's ops from the latency
#: samples (``run_workload``'s default); the benchmark does not change it.
WARMUP_FRACTION = 0.1

#: Latency percentiles need this many post-warm-up samples so that the
#: p99.9 has at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 10_000


@dataclass(frozen=True)
class Workload:
    """One pinned simulator point."""

    name: str
    index: str
    mix: str
    theta: float
    ops_per_client: int
    why: str

    @property
    def ops(self) -> int:
        return self.ops_per_client * CLIENTS

    @property
    def latency_samples(self) -> int:
        warmup = int(self.ops_per_client * WARMUP_FRACTION)
        return (self.ops_per_client - warmup) * CLIENTS


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "chime-read", "chime", "C", 0.99, 1400,
        "CHIME's read path (cached traversal, hotspot speculative read, "
        "neighborhood decode): index and codec work shows here"),
    Workload(
        "chime-write", "chime", "A", 0.99, 1400,
        "the same code under 50% updates: masked-CAS locks, torn-write "
        "chunked WRITEs, version bumps and retries"),
    Workload(
        "outback-uniform", "outback", "C", 0.0, 4200,
        "one-RTT hash routing with an MPH bulk load: engine and MPH work "
        "shows, tree and codec work should not"),
)}

for _w in WORKLOADS.values():
    if _w.latency_samples < MIN_LATENCY_SAMPLES:
        raise ValueError(f"{_w.name}: {_w.latency_samples} latency samples "
                         f"< {MIN_LATENCY_SAMPLES}")


@dataclass(frozen=True)
class Metric:
    """A reported metric.  Units of simulated quantities start with
    ``sim_``; every other time is host time."""

    name: str
    unit: str
    better: str  # "lower" or "higher"


#: End-to-end metrics, from untraced runs (``--trace 0``).
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("host_ops_per_s", "ops/s", "higher"),
    Metric("host_cpu_us_per_op", "us", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("sim_mops", "sim_Mops", "higher"),
    Metric("sim_p50_us", "sim_us", "lower"),
    Metric("sim_p999_us", "sim_us", "lower"),
)

#: Printed with the end-to-end metrics but carried in the result line by
#: its ``attempted`` / ``failed`` counts: it is 0 on a correct
#: program, and a zero median has no relative spread.
FAILED_OP_FRAC = Metric("failed_op_frac", "fraction", "lower")

#: Layers whose run-phase self time is reported.  Each is a package (or
#: top-level module) under ``src/repro``; ``other`` is the run span's own
#: time (the ``bench`` runner around ``Engine.run``) plus ``retry``.
SELF_TIME_LAYERS = ("sim", "rdma", "layout", "core", "cluster", "memory",
                    "baselines", "hashing", "workloads", "sched", "obs",
                    "other")

#: Per-layer metrics, from a traced run plus untraced counters
#: (``--trace 1``).
PER_LAYER: Tuple[Metric, ...] = (
    Metric("setup.import_s", "s", "lower"),
    Metric("setup.build_s", "s", "lower"),
    Metric("setup.load_s", "s", "lower"),
    Metric("hashing.load_s", "s", "lower"),
    *(Metric(f"{layer}.self_us_per_op", "us", "lower")
      for layer in SELF_TIME_LAYERS),
    Metric("sim.events_per_op", "count", "lower"),
    Metric("rdma.calls_per_op", "count", "lower"),
    Metric("rdma.rtts_per_op", "count", "lower"),
    Metric("rdma.read_bytes_per_op", "B", "lower"),
    Metric("rdma.write_bytes_per_op", "B", "lower"),
    Metric("rdma.retries_per_op", "count", "lower"),
    Metric("rdma.mn_nic_busy_frac", "fraction", "higher"),
    Metric("rdma.mn_queue_wait_us_per_op", "sim_us", "lower"),
    Metric("layout.calls_per_op", "count", "lower"),
    Metric("core.calls_per_op", "count", "lower"),
    Metric("core.hotspot_hit_ratio", "fraction", "higher"),
    Metric("core.spec_correct_ratio", "fraction", "higher"),
    Metric("cluster.cache_hit_ratio", "fraction", "higher"),
    Metric("cluster.rdwc_saved_frac", "fraction", "higher"),
    Metric("trace.overhead_frac", "fraction", "lower"),
)

METRICS: Dict[str, Metric] = {
    m.name: m for m in (*END_TO_END, FAILED_OP_FRAC, *PER_LAYER)}

#: Simulated quantities that must repeat exactly between runs of one
#: commit with one seed, and between a traced and an untraced run.
FINGERPRINT_KEYS = ("events", "ops", "latency_samples", "sim_mops",
                    "sim_p50_us", "sim_p999_us")
