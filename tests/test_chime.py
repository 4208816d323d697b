"""Integration tests for the CHIME index on the simulated DM cluster."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ChimeConfig, ClusterConfig
from repro.core import ChimeIndex


def make_index(num_keys=2000, chime: ChimeConfig = None,
               cluster_config: ClusterConfig = None):
    cluster = Cluster(cluster_config or ClusterConfig(
        num_cns=1, num_mns=1, clients_per_cn=4,
        cache_bytes=1 << 22, region_bytes=1 << 25))
    index = ChimeIndex(cluster, chime or ChimeConfig())
    pairs = [(k, k * 10) for k in range(1, num_keys + 1)]
    index.bulk_load(pairs)
    return cluster, index, pairs


def drive(cluster, *generators):
    """Run client coroutines to completion, returning their results."""
    results = [None] * len(generators)

    def wrap(i, gen):
        def runner():
            results[i] = yield from gen
        return runner()

    for i, gen in enumerate(generators):
        cluster.engine.process(wrap(i, gen))
    cluster.run()
    return results


def one_client(cluster, index):
    return index.client(cluster.cns[0].clients[0])


class TestBulkLoad:
    def test_roundtrip(self):
        cluster, index, pairs = make_index(2000)
        assert index.collect_items() == pairs

    def test_empty_load(self):
        cluster, index, _ = make_index(0)
        assert index.collect_items() == []
        assert index.root_level >= 1

    def test_single_key(self):
        cluster, index, pairs = make_index(1)
        assert index.collect_items() == pairs

    def test_rejects_unsorted(self):
        cluster = Cluster(ClusterConfig(region_bytes=1 << 24))
        index = ChimeIndex(cluster)
        with pytest.raises(Exception):
            index.bulk_load([(5, 1), (3, 1)])

    def test_rejects_key_zero(self):
        cluster = Cluster(ClusterConfig(region_bytes=1 << 24))
        index = ChimeIndex(cluster)
        with pytest.raises(Exception):
            index.bulk_load([(0, 1)])

    def test_leaf_load_factor_near_target(self):
        cluster, index, _ = make_index(5000)
        load = index.average_leaf_load()
        target = index.config.bulk_load_factor
        assert target * 0.75 <= load <= min(1.0, target * 1.25)

    def test_tree_height_grows_with_size(self):
        _c1, small, _ = make_index(100)
        _c2, large, _ = make_index(20_000)
        assert large.root_level >= small.root_level


class TestSearch:
    def test_search_all_loaded_keys_sampled(self):
        cluster, index, pairs = make_index(2000)
        client = one_client(cluster, index)
        sample = pairs[::97]

        def gen():
            values = []
            for key, _ in sample:
                values.append((yield from client.search(key)))
            return values

        values, = drive(cluster, gen())
        assert values == [v for _, v in sample]

    def test_search_absent(self):
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)

        def gen():
            low = yield from client.search(10_000_000)
            mid = yield from client.search(1)  # key 1 exists
            return low, mid

        (absent, present), = drive(cluster, gen())
        assert absent is None
        assert present == 10

    def test_search_rtts_warm_cache(self):
        """Table 1: best-case search is 1-2 round trips."""
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)
        rtts = []

        def gen():
            yield from client.search(500)  # warm traversal + cache
            for key in (100, 700, 1500):
                before = client.qp.stats.rtts
                yield from client.search(key)
                rtts.append(client.qp.stats.rtts - before)

        drive(cluster, gen())
        assert all(1 <= r <= 2 for r in rtts), rtts

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: a search routed by a cached parent to its last "
        "child (no next-child pointer to compare) chases at most one "
        "sibling, so keys that moved two or more splits to the right "
        "are reported absent, and the stale parent is never "
        "invalidated"))
    def test_stale_cached_parent_finds_keys_split_to_the_right(self):
        cluster = Cluster(ClusterConfig(num_cns=2, num_mns=1,
                                        clients_per_cn=1))
        index = ChimeIndex(cluster)
        index.bulk_load([(k, k) for k in range(1, 201)])
        writer, reader = (index.client(ctx) for ctx in cluster.clients())

        def gen():
            yield from reader.search(200)  # cache the right-edge parent
            for key in range(201, 1001):
                yield from writer.insert(key, key)
            missing = []
            for key in range(1, 1001):
                if (yield from reader.search(key)) != key:
                    missing.append(key)
            return missing

        missing, = drive(cluster, gen())
        assert missing == []


class TestInsert:
    def test_insert_then_search(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            yield from client.insert(999_999, 1234)
            return (yield from client.search(999_999))

        value, = drive(cluster, gen())
        assert value == 1234

    def test_insert_duplicate_overwrites(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            yield from client.insert(250, 42)  # key exists (value 2500)
            return (yield from client.search(250))

        value, = drive(cluster, gen())
        assert value == 42

    def test_inserts_force_splits(self):
        cluster, index, pairs = make_index(500)
        client = one_client(cluster, index)
        before_leaves = len(index.leaf_addrs())
        new_keys = list(range(10_000, 11_000))

        def gen():
            for key in new_keys:
                yield from client.insert(key, key)

        drive(cluster, gen())
        assert len(index.leaf_addrs()) > before_leaves
        items = dict(index.collect_items())
        for key, value in pairs:
            assert items[key] == value
        for key in new_keys:
            assert items[key] == key

    def test_insert_rtts_warm_cache(self):
        """Table 1: best-case insert is 3 round trips."""
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)
        rtts = []

        def gen():
            yield from client.search(500)
            for key in (1_000_001, 1_000_003, 1_000_005):
                before = client.qp.stats.rtts
                yield from client.insert(key, 1)
                after = client.qp.stats.rtts
                rtts.append(after - before)

        drive(cluster, gen())
        # 3 in the best case; occasionally +1 for an allocation RPC or a
        # coarse-vacancy extension read, and splits cost more.
        assert min(rtts) == 3, rtts
        assert all(r <= 6 for r in rtts), rtts

    def test_insert_rejects_key_zero(self):
        cluster, index, _ = make_index(10)
        client = one_client(cluster, index)

        def gen():
            yield from client.insert(0, 1)

        with pytest.raises(Exception):
            drive(cluster, gen())

    def test_monotonic_inserts_rightmost_leaf(self):
        """YCSB-D-style appends exercise the last-child routing path."""
        cluster, index, pairs = make_index(300)
        client = one_client(cluster, index)
        keys = list(range(1_000_000, 1_000_400))

        def gen():
            for key in keys:
                yield from client.insert(key, key)

        drive(cluster, gen())
        items = dict(index.collect_items())
        for key in keys:
            assert items[key] == key
        assert len(items) == len(pairs) + len(keys)


class TestUpdateDelete:
    def test_update_existing(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            ok = yield from client.update(100, 777)
            value = yield from client.search(100)
            return ok, value

        (ok, value), = drive(cluster, gen())
        assert ok and value == 777

    def test_update_absent_returns_false(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            return (yield from client.update(9_999_999, 1))

        ok, = drive(cluster, gen())
        assert ok is False

    def test_update_rtts_warm_cache(self):
        """Table 1: best-case update is 3-4 round trips."""
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)
        rtts = []

        def gen():
            yield from client.search(500)
            for key in (100, 700, 1500):
                before = client.qp.stats.rtts
                yield from client.update(key, 1)
                rtts.append(client.qp.stats.rtts - before)

        drive(cluster, gen())
        assert all(3 <= r <= 4 for r in rtts), rtts

    def test_delete_then_search(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            ok = yield from client.delete(100)
            gone = yield from client.search(100)
            return ok, gone

        (ok, gone), = drive(cluster, gen())
        assert ok and gone is None

    def test_delete_absent(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            return (yield from client.delete(9_999_999))

        ok, = drive(cluster, gen())
        assert ok is False

    def test_delete_then_reinsert(self):
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            yield from client.delete(100)
            yield from client.insert(100, 555)
            return (yield from client.search(100))

        value, = drive(cluster, gen())
        assert value == 555


class TestScan:
    def test_scan_returns_sorted_range(self):
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)

        def gen():
            return (yield from client.scan(100, 50))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == list(range(100, 150))
        assert all(v == k * 10 for k, v in rows)

    def test_scan_crossing_many_leaves(self):
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)

        def gen():
            return (yield from client.scan(1, 500))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == list(range(1, 501))

    def test_scan_from_absent_key(self):
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)

        def gen():
            yield from client.delete(100)
            return (yield from client.scan(100, 5))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == [101, 102, 103, 104, 105]

    def test_scan_past_end(self):
        cluster, index, _ = make_index(100)
        client = one_client(cluster, index)

        def gen():
            return (yield from client.scan(95, 100))

        rows, = drive(cluster, gen())
        assert [k for k, _ in rows] == [95, 96, 97, 98, 99, 100]


class TestSpeculativeReads:
    def test_hot_key_uses_speculation(self):
        cluster, index, _ = make_index(2000)
        client = one_client(cluster, index)

        def gen():
            for _ in range(20):
                value = yield from client.search(42)
                assert value == 420

        drive(cluster, gen())
        lookups, hits, correct, wrong = index.hotspot_stats()
        assert hits > 0
        assert correct > 0
        assert correct > wrong

    def test_speculation_disabled(self):
        config = ChimeConfig(speculative_read=False)
        cluster, index, _ = make_index(500, chime=config)
        client = one_client(cluster, index)

        def gen():
            for _ in range(10):
                yield from client.search(42)

        drive(cluster, gen())
        lookups, hits, correct, wrong = index.hotspot_stats()
        assert hits == 0

    def test_stale_speculation_falls_back(self):
        """After an update moves nothing but changes values, and after a
        delete+reinsert elsewhere, stale records must not return wrong
        data (fingerprint + key check)."""
        cluster, index, _ = make_index(500)
        client = one_client(cluster, index)

        def gen():
            for _ in range(5):
                yield from client.search(42)
            yield from client.delete(42)
            first = yield from client.search(42)
            yield from client.insert(42, 4242)
            second = yield from client.search(42)
            return first, second

        (first, second), = drive(cluster, gen())
        assert first is None
        assert second == 4242


class TestFeatureFlags:
    """Each Figure 15 ablation configuration must stay fully functional."""

    @pytest.mark.parametrize("config", [
        ChimeConfig(vacancy_bitmap=False),
        ChimeConfig(metadata_replication=False),
        ChimeConfig(speculative_read=False),
        ChimeConfig(sibling_validation=False),
        ChimeConfig(neighborhood=4),
        ChimeConfig(neighborhood=16),
        ChimeConfig(span=32, neighborhood=8),
        ChimeConfig(span=128, neighborhood=8),
    ], ids=["no-vacancy", "no-replication", "no-specread", "fence-keys",
            "H4", "H16", "span32", "span128"])
    def test_functional_battery(self, config):
        cluster, index, pairs = make_index(800, chime=config)
        client = one_client(cluster, index)

        def gen():
            hit = yield from client.search(400)
            miss = yield from client.search(5_000_000)
            yield from client.insert(900_001, 11)
            ins = yield from client.search(900_001)
            yield from client.update(400, 99)
            upd = yield from client.search(400)
            yield from client.delete(401)
            dele = yield from client.search(401)
            rows = yield from client.scan(500, 20)
            return hit, miss, ins, upd, dele, rows

        (hit, miss, ins, upd, dele, rows), = drive(cluster, gen())
        assert hit == 4000
        assert miss is None
        assert ins == 11
        assert upd == 99
        assert dele is None
        assert [k for k, _ in rows] == list(range(500, 520))

    def test_insert_heavy_battery_all_flags(self):
        for config in (ChimeConfig(vacancy_bitmap=False),
                       ChimeConfig(metadata_replication=False),
                       ChimeConfig(sibling_validation=False)):
            cluster, index, pairs = make_index(300, chime=config)
            client = one_client(cluster, index)
            keys = list(range(50_000, 50_600))

            def gen():
                for key in keys:
                    yield from client.insert(key, key)

            drive(cluster, gen())
            items = dict(index.collect_items())
            for key in keys:
                assert items[key] == key


class TestIndirectValues:
    def test_roundtrip(self):
        config = ChimeConfig(indirect_values=True, value_size=64)
        cluster, index, pairs = make_index(500, chime=config)
        client = one_client(cluster, index)

        def gen():
            hit = yield from client.search(100)
            yield from client.insert(77_777, 31337)
            ins = yield from client.search(77_777)
            yield from client.update(100, 2024)
            upd = yield from client.search(100)
            rows = yield from client.scan(200, 5)
            return hit, ins, upd, rows

        (hit, ins, upd, rows), = drive(cluster, gen())
        assert hit == 1000
        assert ins == 31337
        assert upd == 2024
        assert rows == [(k, k * 10) for k in range(200, 205)]

    def test_search_costs_extra_rtt(self):
        plain_cluster, plain_index, _ = make_index(500)
        ind_cluster, ind_index, _ = make_index(
            500, chime=ChimeConfig(indirect_values=True))

        def measure(cluster, index):
            client = one_client(cluster, index)
            rtts = []

            def gen():
                yield from client.search(250)
                before = client.qp.stats.rtts
                yield from client.search(251)
                rtts.append(client.qp.stats.rtts - before)

            drive(cluster, gen())
            return rtts[0]

        assert measure(ind_cluster, ind_index) \
            == measure(plain_cluster, plain_index) + 1


class TestConcurrency:
    def test_concurrent_inserts_disjoint_keys(self):
        cluster, index, pairs = make_index(
            1000, cluster_config=ClusterConfig(
                num_cns=2, clients_per_cn=4, cache_bytes=1 << 22,
                region_bytes=1 << 25))
        clients = [index.client(ctx) for ctx in cluster.clients()]
        all_keys = random.Random(7).sample(range(100_000, 500_000), 1600)
        per = len(all_keys) // len(clients)

        def worker(client, keys):
            for key in keys:
                yield from client.insert(key, key + 1)

        drive(cluster, *[worker(c, all_keys[i * per:(i + 1) * per])
                         for i, c in enumerate(clients)])
        items = dict(index.collect_items())
        for key in all_keys:
            assert items[key] == key + 1
        assert len(items) == len(pairs) + len(all_keys)

    def test_concurrent_updates_same_key_converge(self):
        cluster, index, _ = make_index(
            200, cluster_config=ClusterConfig(
                num_cns=2, clients_per_cn=4, cache_bytes=1 << 22,
                region_bytes=1 << 25))
        clients = [index.client(ctx) for ctx in cluster.clients()]

        def worker(client, value):
            for _ in range(10):
                ok = yield from client.update(50, value)
                assert ok

        drive(cluster, *[worker(c, 1000 + i) for i, c in enumerate(clients)])
        items = dict(index.collect_items())
        assert items[50] in range(1000, 1000 + len(clients))

    def test_readers_never_see_torn_state(self):
        """Lock-free readers racing hop-inserting writers always observe
        committed values — the three-level synchronization at work."""
        cluster, index, _ = make_index(
            400, cluster_config=ClusterConfig(
                num_cns=1, clients_per_cn=8, cache_bytes=1 << 22,
                region_bytes=1 << 25, seed=3))
        clients = [index.client(ctx) for ctx in cluster.clients()]
        bad = []

        def writer(client, base):
            for i in range(150):
                yield from client.insert(10_000 + base * 1000 + i, i)

        def reader(client, seed):
            rng = random.Random(seed)
            for _ in range(300):
                key = rng.randrange(1, 401)
                value = yield from client.search(key)
                if value != key * 10:
                    bad.append((key, value))

        gens = []
        for i, client in enumerate(clients):
            if i % 2 == 0:
                gens.append(writer(client, i))
            else:
                gens.append(reader(client, i))
        drive(cluster, *gens)
        assert not bad, bad[:5]


class TestPropertyBased:
    @given(st.lists(st.tuples(st.sampled_from(["insert", "update", "delete",
                                               "search"]),
                              st.integers(min_value=1, max_value=300)),
                    max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_matches_dict_model(self, ops):
        cluster, index, pairs = make_index(100)
        client = one_client(cluster, index)
        model = dict(pairs)
        observed = []

        def gen():
            for op, key in ops:
                if op == "insert":
                    yield from client.insert(key, key * 7)
                    model[key] = key * 7
                elif op == "update":
                    ok = yield from client.update(key, key * 9)
                    if key in model:
                        assert ok
                        model[key] = key * 9
                elif op == "delete":
                    ok = yield from client.delete(key)
                    assert ok == (key in model)
                    model.pop(key, None)
                else:
                    value = yield from client.search(key)
                    observed.append((key, value, model.get(key)))

        drive(cluster, gen())
        for key, value, expected in observed:
            assert value == expected, (key, value, expected)
        assert dict(index.collect_items()) == model
