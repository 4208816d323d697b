"""Golden event-log digests for the single-heap event loop.

The engine pops one ``(time, seq, event)`` binary heap, so two events
at the same timestamp fire in scheduling order.  These tests pin that
order end to end: for one seeded run per registry family they compare
the sha256 of the engine's full ``(time, type)`` event log, plus the
event count, final clock, completed ops and latency samples, against
values recorded before the engine was reduced to one heap.  Any change
to tie-breaking, scheduling or dispatch order moves a digest.
"""

import hashlib

import pytest

from repro.bench.runner import build_index, load_index
from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.sched import launch_clients
from repro.sim import Engine, Interrupted
from repro.workloads.ycsb import WORKLOADS, WorkloadContext, dataset

NUM_KEYS = 300
OPS = 30
SEED = 11


def _golden_run(index_name: str, workload: str):
    """One fully seeded run; returns its observables."""
    config = ClusterConfig(num_cns=2, clients_per_cn=2, seed=SEED)
    cluster = Cluster(config)
    index = build_index(index_name, cluster)
    pairs = dataset(NUM_KEYS, key_space=0, seed=SEED)
    spec = WORKLOADS[workload]
    context = WorkloadContext(spec, [k for k, _ in pairs], seed=SEED,
                              theta=0.99)
    context.expected_insert_budget = 64
    load_index(index, pairs, workload, context)
    cluster.engine.event_log = log = []
    run = launch_clients(cluster, index, context, OPS, OPS // 10)
    cluster.run()
    return {
        "log": log,
        "events": cluster.engine.events_processed,
        "now": cluster.engine.now,
        "ops": run.ops_completed,
        "latencies": run.latencies,
    }


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: (family, workload) -> pinned observables of :func:`_golden_run`:
#: sha256 of ``repr(event_log)``, event count, final clock (as
#: ``float.hex``), completed ops, and sha256 of ``repr(latencies)``.
GOLDEN = {
    ("chime", "A"): (
        "c92efd5e778406e73d91eedbd1e75247577c2594a2f753a7f3fbfc9d6e60187f",
        2014, "0x1.d8dd913d1720cp-13", 120,
        "97bc9cf4d373559c0fff8edefc5a73af6a1543a38016febe4153285df8d45e48"),
    ("sherman", "A"): (
        "9cba0d1b4cf745dd970012baefb5cdb3a6051609153ca105da3175daa38730c6",
        1972, "0x1.d04ae574fdaa8p-13", 120,
        "3354e2e0f1802f8f15a4b05e7cf5ddb417b40159b26cc3a156eed269738801ce"),
    ("rolex", "A"): (
        "84456f051d409ee7244df44281c31d14da4bc6bf8cf7f6cfcf0f5868ff6c90f7",
        3431, "0x1.1e9d29ccb2d2ep-12", 120,
        "01aec19d7944fa3ab8e7d4232b46b9c1f57510f4d5ecae163ebb52398c3097d8"),
    ("smart", "A"): (
        "00280b511d7d8eb39ac3f955b883aa9b9cdf29fdc55cbe43d091007134cd7c5e",
        2612, "0x1.553cc0eb7f74bp-12", 120,
        "c3c4a8488a6b2be3f826c0a6289d5cb3623e864a7c57c769048ab092acbf1090"),
    ("outback", "C"): (
        "2e53933503fcf6d1c658d617137f1a0dc9517cfb95bb5ff5f8dff5e70a5b32df",
        968, "0x1.7bb07a86aedb7p-14", 120,
        "c6aa0aec4ca76e37cccc89262310996ba44eed9718b025e5276e2e6d44088234"),
}


class TestGoldenEventLog:
    @pytest.mark.parametrize("index_name,workload", sorted(GOLDEN))
    def test_event_log_digest(self, index_name, workload):
        log_sha, events, now_hex, ops, latencies_sha = \
            GOLDEN[(index_name, workload)]
        run = _golden_run(index_name, workload)
        assert run["events"] == events
        assert len(run["log"]) == events
        assert run["now"] == float.fromhex(now_hex)
        assert run["ops"] == ops
        assert _sha256(run["latencies"]) == latencies_sha
        assert _sha256(run["log"]) == log_sha


class TestTimeoutCancel:
    def test_cancelled_timeout_never_fires_nor_counts(self):
        engine = Engine()
        fired = []
        timer = engine.timeout(5e-6)
        timer.callbacks.append(lambda event: fired.append(event))
        keeper = engine.timeout(9e-6)
        timer.cancel()
        assert timer.cancelled
        engine.run()
        assert not fired
        assert keeper.triggered
        # The tombstone is discarded without being counted as an event.
        assert engine.events_processed == 1

    def test_cancel_after_trigger_is_refused(self):
        engine = Engine()
        timer = engine.timeout(1e-6)
        engine.run()
        timer.cancel()
        assert not timer.cancelled


class TestInterruptDetaches:
    def test_interrupt_clears_stale_wait_target(self):
        engine = Engine()
        gate = engine.event()
        resumed = []

        def waiter():
            try:
                yield gate
                resumed.append("normal")
            except Interrupted:
                yield engine.timeout(5e-6)
                resumed.append("after-interrupt")

        process = engine.process(waiter())
        engine.timeout(1e-6).callbacks.append(
            lambda event: process.interrupt("test"))
        # The interrupted process must be detached: firing the stale
        # target later cannot resume it a second time.
        engine.timeout(2e-6).callbacks.append(
            lambda event: gate.succeed())
        engine.run()
        assert resumed == ["after-interrupt"]
