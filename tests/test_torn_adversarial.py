"""Adversarial torn-write campaigns: a deliberately slow NIC stretches
every WRITE's landing window so lock-free readers race half-written
nodes constantly.  The three-level synchronization must (a) never let a
wrong value escape and (b) actually fire — the retry counters prove the
detection path ran, not that the race never happened."""

import random

import pytest

from repro.baselines import ShermanIndex
from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core import ChimeIndex
from repro.rdma.nic import NicSpec

#: Slow + fat-window NIC: multi-microsecond transfer windows per node.
SLOW_NIC = NicSpec(bandwidth=5e7, iops=2e6, latency=0.5e-6)


def slow_cluster(clients=8, seed=11):
    return Cluster(ClusterConfig(
        num_cns=1, num_mns=1, clients_per_cn=clients,
        cache_bytes=1 << 22, region_bytes=1 << 25,
        mn_nic=SLOW_NIC, seed=seed, rdwc=False))


def drive(cluster, *gens):
    for gen in gens:
        def runner(g=gen):
            yield from g
        cluster.engine.process(runner())
    cluster.run()


class TestChimeUnderTearing:
    def test_readers_vs_hop_writers(self):
        cluster = slow_cluster()
        index = ChimeIndex(cluster, ChimeConfig(bulk_load_factor=0.85))
        # Sparse loaded keys (multiples of 10): writers insert the keys
        # in between, hitting the very leaves the readers are reading —
        # constant hops and splits landing over wide torn windows.
        pairs = [(k, k * 10) for k in range(10, 4001, 10)]
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        wrong = []

        def writer(client, lane):
            for i in range(150):
                key = 10 * (i * 4 + lane) + lane % 9 + 1  # never % 10 == 0
                yield from client.insert(key, key)

        def reader(client, seed):
            rng = random.Random(seed)
            for _ in range(250):
                key = rng.randrange(1, 401) * 10
                value = yield from client.search(key)
                if value != key * 10:
                    wrong.append((key, value))

        gens = [writer(c, i) if i % 2 == 0 else reader(c, i)
                for i, c in enumerate(clients)]
        drive(cluster, *gens)
        assert not wrong, wrong[:5]

    def test_fat_entry_updates_force_detected_tearing(self):
        """A surgically timed reader samples a 512-byte entry while its
        update is mid-landing (engine paused between cache-line chunks),
        so the EV check *must* fire — the retry counter proves the
        detector ran — and the returned value must still be committed.

        (Free-running reader/writer loops phase-lock through the shared
        NIC queue and rarely collide mid-chunk; pausing the engine pins
        the race deterministically.)
        """
        cluster = slow_cluster(clients=2, seed=23)
        index = ChimeIndex(cluster, ChimeConfig(value_size=512))
        index.bulk_load([(k, 7) for k in range(1, 33)])
        writer_client = index.client(cluster.cns[0].clients[0])
        reader_client = index.client(cluster.cns[0].clients[1])
        engine = cluster.engine
        mn = cluster.mns[0]

        # Count the update's chunk landings as they happen.
        landings = []
        original_write = mn.mem_write

        def counting_write(addr, data):
            landings.append((engine.now, len(data)))
            return original_write(addr, data)

        mn.mem_write = counting_write

        # Warm the reader's hotspot buffer (speculative path) first.
        warm = []

        def warm_reader():
            value = yield from reader_client.search(5)
            warm.append(value)

        engine.process(warm_reader())
        engine.run()
        assert warm == [7]

        def updater():
            yield from writer_client.update(5, 1000)

        engine.process(updater())
        # Advance the clock until a few (but not all) of the entry's
        # ~9 chunks have landed, then freeze.
        deadline = engine.now
        while len([l for l in landings if l[1] >= 28]) < 3:
            deadline += 0.2e-6
            engine.run(until=deadline)
        results = []

        def reader():
            value = yield from reader_client.search(5)
            results.append(value)

        engine.process(reader())
        engine.run()  # run everything to completion
        assert results and results[0] in (7, 1000), results
        # The mid-chain sample must have tripped a consistency check.
        assert cluster.traffic_totals().retries > 0

    def test_update_storm_values_always_committed(self):
        """Concurrent updates of one neighborhood: a reader may see the
        old or the new value of a key, never a torn hybrid."""
        cluster = slow_cluster(clients=8, seed=3)
        index = ChimeIndex(cluster)
        valid = {1_000_000 + i for i in range(8)}
        pairs = sorted((k, 1_000_000) for k in range(1, 65))
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        bad = []

        def updater(client, lane):
            for i in range(100):
                yield from client.update((lane * 7) % 64 + 1,
                                         1_000_000 + lane)

        def reader(client, seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.randrange(1, 65)
                value = yield from client.search(key)
                if value != 1_000_000 and value not in valid:
                    bad.append((key, value))

        gens = [updater(c, i) if i % 2 == 0 else reader(c, i)
                for i, c in enumerate(clients)]
        drive(cluster, *gens)
        assert not bad, bad[:5]


class TestShermanUnderTearing:
    def test_node_rewrites_never_leak_torn_leaves(self):
        cluster = slow_cluster(clients=6, seed=17)
        index = ShermanIndex(cluster)
        pairs = [(k, k * 10) for k in range(1, 301)]
        index.bulk_load(pairs)
        clients = [index.client(ctx) for ctx in cluster.clients()]
        wrong = []

        def writer(client, lane):
            for i in range(80):
                yield from client.insert(10_000 + lane * 500 + i, i)

        def reader(client, seed):
            rng = random.Random(seed)
            for _ in range(200):
                key = rng.randrange(1, 301)
                value = yield from client.search(key)
                if value != key * 10:
                    wrong.append((key, value))

        gens = [writer(c, i) if i % 2 == 0 else reader(c, i)
                for i, c in enumerate(clients)]
        drive(cluster, *gens)
        assert not wrong, wrong[:5]


class TestDetectionIsLoadBearing:
    def test_disabling_checks_would_corrupt(self):
        """Sanity for the test harness itself: with this NIC, torn
        states are genuinely observable at the raw verb level (so the
        index-level cleanliness above is earned, not vacuous)."""
        from repro.memory import MemoryNode, make_addr
        from repro.rdma import RdmaQp
        from repro.sim import Engine

        engine = Engine()
        mn = MemoryNode(engine, 0, 1 << 20, nic_spec=SLOW_NIC)
        mns = {0: mn}
        writer_qp = RdmaQp(engine, mns)
        reader_qp = RdmaQp(engine, mns)
        addr = make_addr(0, 4096)
        size = 64 * 20
        torn_seen = [0]

        def writer():
            for round_no in range(30):
                fill = bytes([round_no % 251 + 1]) * size
                yield from writer_qp.write(addr, fill)

        def reader():
            for _ in range(300):
                data = yield from reader_qp.read(addr, size)
                if len(set(data)) > 1:
                    torn_seen[0] += 1

        engine.process(writer())
        engine.process(reader())
        engine.run()
        assert torn_seen[0] > 0


class TestTornDetectionGolden:
    """Pins what the reader-side checks see in two seeded races.

    Writers on one CN insert and update while readers on the other CN
    search, with a random think time between ops so the two sides do
    not phase-lock in the NIC queues.  Which level caught each torn
    read, how many retries that cost, and every value the readers got
    back must stay exactly the same unless the reader checks are meant
    to change.
    """

    # (speculative reads, value size, loaded keys, think time, writer
    #  seed) -> (torn reads caught at levels 1/2/3, retries, reads,
    #  sha256 of repr(reads))
    CASES = {
        "speculative": ((True, 64, 100, 2e-6, 900),
                        ((2, 2, 0), 6, 1200,
                         "1b416641031de47e9cef3ab6cee63cc2"
                         "3760972cddc9d2b84b9bb69ffecb879b")),
        "neighborhood": ((False, 64, 120, 3e-6, 100),
                         ((1, 0, 1), 2, 1200,
                          "c38366591c2385defd630c6681b10faf"
                          "fdb80e0c339638d99c95a3ea86388133")),
    }

    @staticmethod
    def race(speculative, value_size, num_keys, think, writer_seed):
        import hashlib

        from repro.obs import BUS, MetricsCollector

        cluster = Cluster(ClusterConfig(
            num_cns=2, num_mns=1, clients_per_cn=4,
            cache_bytes=1 << 22, region_bytes=1 << 25,
            mn_nic=SLOW_NIC, seed=5, rdwc=False))
        index = ChimeIndex(cluster, ChimeConfig(
            value_size=value_size, speculative_read=speculative,
            bulk_load_factor=0.95))
        index.bulk_load([(k, k * 10) for k in range(10, 10 * num_keys + 1,
                                                    10)])
        clients = [index.client(ctx) for ctx in cluster.clients()]
        reads = []

        def writer(client, lane):
            rng = random.Random(writer_seed + lane)
            for _ in range(100):
                key = 10 * rng.randrange(1, num_keys + 1) + 1 + lane
                yield from client.insert(key, key)
                yield cluster.engine.timeout(rng.random() * think)
                key = 10 * rng.randrange(1, num_keys + 1)
                yield from client.update(key, key * 10)

        def reader(client, seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.randrange(1, num_keys + 1) * 10
                yield cluster.engine.timeout(rng.random() * think)
                value = yield from client.search(key)
                reads.append((key, value))

        collector = MetricsCollector()
        collector.attach(BUS)
        try:
            # Clients 0-3 live on CN 0 (writers), 4-7 on CN 1 (readers).
            drive(cluster, *[writer(c, i) if i < 4 else reader(c, i)
                             for i, c in enumerate(clients)])
        finally:
            collector.detach()
        torn = tuple(int(collector.registry.counter(f"sync.torn_l{level}")
                         .value) for level in (1, 2, 3))
        digest = hashlib.sha256(repr(reads).encode()).hexdigest()
        return (torn, cluster.traffic_totals().retries, len(reads),
                digest), reads

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_torn_counts_retries_and_values_pinned(self, case):
        params, expected = self.CASES[case]
        observed, reads = self.race(*params)
        assert all(value == key * 10 for key, value in reads)
        assert observed == expected
