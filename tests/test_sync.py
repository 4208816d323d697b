"""Unit and property tests for the three-level optimistic checks."""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.node_layout import LeafLayout
from repro.core.nodes import LeafNodeView
from repro.core.sync import backoff_delay, decode_entries, reconstruct_bitmap
from repro.errors import TornReadError
from repro.hashing.hopscotch import default_hash
from repro.layout import StripedSpan, pack_version, raw_span, unpack_version
from repro.layout.versions import LINE, SpanSet
from repro.obs.bus import BUS


def make_view(span=16, neighborhood=8):
    layout = LeafLayout(span=span, neighborhood=neighborhood)
    return layout, LeafNodeView.blank(layout)


def home_fn(span):
    return lambda key: default_hash(key, span)


def check_neighborhood(view, home, hash_home):
    layout = view.layout
    return decode_entries(view, layout.neighborhoods[home], 3, hash_home)


def torn_levels(fn):
    """Run *fn*; the ``sync.torn`` levels it put on the bus, and whether
    it raised :class:`TornReadError`."""
    levels = []
    sub = BUS.subscribe(lambda event: levels.append(event.data["level"]),
                        kinds=("sync.torn",))
    try:
        fn()
    except TornReadError as exc:
        return levels, str(exc)
    finally:
        sub.unsubscribe()
    return levels, None


class TestNvCheck:
    def test_uniform_passes(self):
        layout, view = make_view()
        view.set_all_nv(3)
        decode_entries(view, range(layout.span), 1)
        decode_entries(view, [0], 1)
        decode_entries(LeafNodeView.blank(layout, nv=7), [5], 1)

    def test_mismatch_raises(self):
        layout, view = make_view()
        view.set_all_nv(3)
        view.span.set_version_at_raw(LINE, pack_version(4, 0))
        levels, message = torn_levels(
            lambda: decode_entries(view, range(layout.span), 1))
        assert levels == [1]
        assert message == "node-level versions disagree: [3, 4]"

    def test_collect_leaf_nv_covers_lines_and_entries(self):
        layout, view = make_view()
        view.set_all_nv(5)
        decode_entries(view, range(layout.span), 1)
        # An entry's own version byte counts ...
        off = layout.entry_offset(9)
        view.span.write_logical(off, bytes([pack_version(6, 0)]))
        with pytest.raises(TornReadError):
            decode_entries(view, range(layout.span), 1)
        # ... and so does every line version byte, even outside entries.
        view.span.write_logical(off, bytes([pack_version(5, 0)]))
        view.span.set_version_at_raw(0, pack_version(6, 0))
        with pytest.raises(TornReadError):
            decode_entries(view, range(layout.span), 1)


class TestEvCheck:
    def test_consistent_entry_passes(self):
        layout, view = make_view()
        view.write_entry(3, 10, 20)
        entries = decode_entries(view, [3], 2)
        assert entries.entry(3) == view.entry(3)

    def test_torn_entry_detected(self):
        # An entry spanning a line boundary with mismatched EV nibbles.
        layout = LeafLayout(span=64, neighborhood=8, value_size=64)
        view = LeafNodeView.blank(layout)
        view.write_entry(1, 10, 20)  # EVs -> 1 everywhere in the entry
        # Manually desynchronize one line EV inside the entry's span.
        off = layout.entry_offset(1)
        view.span.set_entry_line_versions(off, layout.entry_size, nv=0, ev=9)
        levels, message = torn_levels(lambda: decode_entries(view, [1], 2))
        assert levels == [2]
        assert message == "entry 1 entry-level versions disagree: [1, 9]"


class TestBitmapCheck:
    def test_reconstruct_matches_placed_keys(self):
        layout, view = make_view()
        span = layout.span
        key = 12345
        home = default_hash(key, span)
        view.write_entry(home, key, 1, bitmap=0b1)
        assert reconstruct_bitmap(view, home, home_fn(span)) == 0b1
        entries = check_neighborhood(view, home, home_fn(span))
        assert entries.find(key) == home
        assert entries.value(home) == 1

    def test_missing_key_detected(self):
        """Bitmap says a key is there but the entry is empty: in-flight
        hop observed (the middle rows of Figure 7b)."""
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        view.set_entry_bitmap(home, 0b10)  # claims home+1 holds our key
        levels, _message = torn_levels(
            lambda: check_neighborhood(view, home, home_fn(span)))
        assert levels == [3]

    def test_unflagged_key_detected(self):
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        pos = (home + 2) % span
        view.write_entry(pos, key, 1)  # present but bitmap not updated
        with pytest.raises(TornReadError):
            check_neighborhood(view, home, home_fn(span))

    def test_foreign_keys_ignored(self):
        """Keys homed elsewhere inside the neighborhood don't confuse the
        reconstruction."""
        layout, view = make_view()
        span = layout.span
        key = 999
        home = default_hash(key, span)
        # Find a key homed at home+1 and place it there.
        other = next(k for k in range(1, 10_000)
                     if default_hash(k, span) == (home + 1) % span)
        view.write_entry((home + 1) % span, other, 5)
        view.set_entry_bitmap((home + 1) % span, 0b1, bump_ev=False)
        entries = check_neighborhood(view, home, home_fn(span))
        assert entries.find(other) is None  # not flagged by *home*


# -- the three-helper composition the one-pass decode replaced ----------------


def oracle_check(view, indices, levels, home=None, hash_home=None):
    """The reader checks as separate passes: collect NVs and compare,
    then per-entry EVs, then rebuild the home bitmap.  Returns the
    failing (level, message), or None when the view is accepted."""
    values = list(view.span.nv_nibbles())
    values.extend(view.entry_nv(index) for index in indices)
    if len(set(values)) > 1:
        return 1, f"node-level versions disagree: {sorted(set(values))}"
    if levels < 2:
        return None
    for index in indices:
        evs = view.entry_evs(index)
        if any(ev != evs[0] for ev in evs):
            return 2, (f"entry {index} entry-level versions disagree: "
                       f"{sorted(set(evs))}")
    if levels < 3:
        return None
    stored = view.entry(home).bitmap
    actual = reconstruct_bitmap(view, home, hash_home)
    if stored != actual:
        return 3, (f"hopscotch bitmap of home {home} is {stored:#06x}, "
                   f"keys say {actual:#06x} (in-flight hop)")
    return None


def oracle_find(view, home, key):
    layout = view.layout
    bitmap = view.entry(home).bitmap
    for offset in range(layout.neighborhood):
        if bitmap & (1 << offset):
            pos = (home + offset) % layout.span
            if view.entry(pos).key == key:
                return pos
    return None


def fetch(image, segments):
    """What a client READ of logical *segments* of *image* returns."""
    spans = []
    for off, length in segments:
        raw_off, raw_len = raw_span(off, length)
        spans.append(StripedSpan(
            bytes(image.span.data[raw_off:raw_off + raw_len]), base=raw_off))
    span = spans[0] if len(spans) == 1 else SpanSet(spans)
    return LeafNodeView(image.layout, span)


def neighborhood_segments(layout, home):
    segments = layout.neighborhood_segments(home)
    if not layout.replicated:
        segments = segments + [(0, layout.replica_size)]
    return segments


@st.composite
def leaf_images(draw):
    """A consistent full leaf image: keys homed near their position
    (``hash_home`` is ``key % span``), true home bitmaps, per-entry EVs
    advanced in lockstep and one node-wide NV."""
    neighborhood = draw(st.sampled_from([2, 4, 8]))
    replicated = draw(st.booleans())
    span = neighborhood * draw(st.integers(1, 4))
    if not replicated:
        span += draw(st.integers(0, neighborhood - 1))
    layout = LeafLayout(span=span, neighborhood=neighborhood,
                        value_size=draw(st.sampled_from([8, 64])),
                        replicated=replicated,
                        fence_keys=draw(st.booleans()))
    image = LeafNodeView.blank(layout, nv=draw(st.integers(0, 15)))
    hash_home = lambda key: key % span  # noqa: E731
    for pos in range(span):
        if draw(st.booleans()):
            back = draw(st.integers(0, neighborhood - 1))
            home = (pos - back) % span
            key = home + span * draw(st.integers(1, 1000))
            image.write_entry(pos, key, draw(st.integers(0, 2 ** 32)),
                              bitmap=0)
        for _ in range(draw(st.integers(0, 2))):
            image.bump_entry_ev(pos)
    for home in range(span):
        image.set_entry_bitmap(home,
                               reconstruct_bitmap(image, home, hash_home),
                               bump_ev=False)
    return image, hash_home


TEARS = ("none", "nv", "ev", "bitmap", "moved_key")


def tear(draw, image, positions, kind, hash_home):
    """Inject one torn state of *kind* into *image* at *positions*."""
    layout = image.layout
    span = image.span
    pos = draw(st.sampled_from(positions))
    off = layout.entry_offset(pos)
    if kind == "nv":
        if draw(st.booleans()):  # the entry's own version byte
            nv, ev = unpack_version(span.payload_byte(off))
            span.write_logical(off, bytes([pack_version(nv + 1, ev)]))
        else:  # a line version byte at or after the entry
            raw = (raw_span(off, 1)[0] // LINE + 1) * LINE
            if raw < len(span.data):
                nv, ev = unpack_version(span.data[raw])
                span.data[raw] = pack_version(nv + 1, ev)
    elif kind == "ev":
        nv, ev = unpack_version(span.payload_byte(off))
        span.write_logical(off, bytes([pack_version(nv, ev + 1)]))
    elif kind == "bitmap":
        home = positions[0]
        bit = draw(st.integers(0, layout.neighborhood - 1))
        image.set_entry_bitmap(home, image.entry(home).bitmap ^ (1 << bit),
                               bump_ev=False)
    elif kind == "moved_key":
        # A hop caught half-way: a key of this home has left its old
        # entry (or reached its new one) but the bitmap is not updated.
        home = positions[0]
        mine = [p for p in positions if image.entry(p).key
                and hash_home(image.entry(p).key) == home]
        empty = [p for p in positions if not image.entry(p).key]
        if mine and (not empty or draw(st.booleans())):
            image.write_entry(draw(st.sampled_from(mine)), 0, 0,
                              bump_ev=False)
        elif empty:
            key = home + layout.span * draw(st.integers(1001, 2000))
            image.write_entry(draw(st.sampled_from(empty)), key, 1,
                              bump_ev=False)


class TestDecodeMatchesThreeHelperOracle:
    """The one-pass decode accepts and rejects exactly what the three
    separate checks did, reports the same level and message, and
    decodes the same entries as :meth:`LeafNodeView.entry`."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), leaf=leaf_images(),
           first=st.sampled_from(TEARS), second=st.sampled_from(TEARS))
    def test_neighborhood_read(self, data, leaf, first, second):
        """Up to two tears per read, so the level priority is covered."""
        image, hash_home = leaf
        layout = image.layout
        home = data.draw(st.integers(0, layout.span - 1))
        positions = layout.neighborhoods[home]
        kinds = [kind for kind in (first, second) if kind != "none"]
        for kind in kinds:
            tear(data.draw, image, positions, kind, hash_home)
        view = fetch(image, neighborhood_segments(layout, home))
        expected = oracle_check(view, positions, 3, home, hash_home)
        event(f"{'+'.join(kinds) or 'no'} tear -> level "
              f"{expected and expected[0]}")
        levels, message = torn_levels(
            lambda: decode_entries(view, positions, 3, hash_home))
        if expected is None:
            assert (levels, message) == ([], None)
            entries = decode_entries(view, positions, 3, hash_home)
            assert [entries.entry(p) for p in positions] == \
                [view.entry(p) for p in positions]
            assert entries.keys == tuple(view.entry(p).key
                                         for p in positions)
            assert entries.bitmap == view.entry(home).bitmap
            for key in set(entries.keys) | {home + layout.span * 2000}:
                assert entries.find(key) == oracle_find(view, home, key)
        else:
            assert (levels, message) == ([expected[0]], expected[1])
        # Lock holders decode the same bytes without checks.
        unchecked = decode_entries(view, positions)
        assert [unchecked.entry(p) for p in positions] == \
            [view.entry(p) for p in positions]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), leaf=leaf_images(),
           kind=st.sampled_from(("none", "nv", "ev")))
    def test_single_entry_read(self, data, leaf, kind):
        image, hash_home = leaf
        layout = image.layout
        pos = data.draw(st.integers(0, layout.span - 1))
        if kind != "none":
            tear(data.draw, image, (pos,), kind, hash_home)
        view = fetch(image, [(layout.entry_offset(pos), layout.entry_size)])
        expected = oracle_check(view, [pos], 2)
        levels, message = torn_levels(
            lambda: decode_entries(view, (pos,), 2))
        if expected is None:
            assert (levels, message) == ([], None)
            assert decode_entries(view, (pos,), 2).entry(pos) == \
                view.entry(pos)
        else:
            assert (levels, message) == ([expected[0]], expected[1])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), leaf=leaf_images(),
           kind=st.sampled_from(("none", "nv", "ev")))
    def test_full_leaf_scan(self, data, leaf, kind):
        image, hash_home = leaf
        layout = image.layout
        positions = tuple(range(layout.span))
        if kind != "none":
            tear(data.draw, image, positions, kind, hash_home)
        view = fetch(image, [layout.full_span()])
        expected = oracle_check(view, positions, 1)
        levels, message = torn_levels(
            lambda: decode_entries(view, positions, 1))
        if expected is None:
            assert (levels, message) == ([], None)
        else:
            assert (levels, message) == ([expected[0]], expected[1])

    def test_first_failing_level_is_reported(self):
        """NV beats EV beats bitmap when one read shows several tears."""
        layout = LeafLayout(span=16, neighborhood=8, value_size=64)
        hash_home = lambda key: key % 16  # noqa: E731
        image = LeafNodeView.blank(layout)
        image.write_entry(3, 3 + 16, 1, bitmap=0)  # unflagged: level 3
        off = layout.entry_offset(4)  # straddles a line: EV copies
        image.span.set_entry_line_versions(off, layout.entry_size, 0, 5)
        view = fetch(image, neighborhood_segments(layout, 3))
        positions = layout.neighborhoods[3]
        assert torn_levels(lambda: decode_entries(
            view, positions, 3, hash_home))[0] == [2]
        view.span.write_logical(off, bytes([pack_version(9, 0)]))
        assert torn_levels(lambda: decode_entries(
            view, positions, 3, hash_home))[0] == [1]

    def test_decoded_entries_do_not_follow_later_view_edits(self):
        layout, view = make_view()
        view.write_entry(3, 10, 20)
        entries = decode_entries(view, layout.neighborhoods[3])
        view.write_entry(3, 11, 21)
        assert entries.keys[0] == 10
        assert entries.value(3) == 20


class TestBackoff:
    def test_grows_then_caps(self):
        delays = [backoff_delay(i) for i in range(32)]
        assert delays[1] > delays[0]
        assert delays[31] == delays[16]
        assert all(d > 0 for d in delays)

    def test_legacy_constants_mirror_the_default_policy(self):
        """The historical constants are aliases of the single source of
        truth in repro.retry; their values are pinned — a change there
        silently re-times every baseline index."""
        from repro.core.sync import BACKOFF_CAP_ATTEMPTS, MAX_RETRIES, \
            RETRY_BACKOFF
        from repro.retry import DEFAULT_RETRY_POLICY
        assert MAX_RETRIES == DEFAULT_RETRY_POLICY.max_attempts == 256
        assert RETRY_BACKOFF == DEFAULT_RETRY_POLICY.base_backoff == 0.2e-6
        assert BACKOFF_CAP_ATTEMPTS == DEFAULT_RETRY_POLICY.linear_cap == 16

    def test_no_rng_is_byte_identical_to_historical(self):
        assert backoff_delay(5) == backoff_delay(5, rng=None, jitter=0.5)

    def test_jitter_is_bounded_and_reproducible(self):
        import random
        base = backoff_delay(5)
        first = [backoff_delay(5, rng=random.Random(7), jitter=0.25)
                 for _ in range(1)]
        second = [backoff_delay(5, rng=random.Random(7), jitter=0.25)
                  for _ in range(1)]
        assert first == second  # seeded rng -> reproducible
        rng = random.Random(3)
        for _ in range(100):
            delay = backoff_delay(5, rng=rng, jitter=0.25)
            assert 0.75 * base <= delay <= 1.25 * base

    def test_retry_policy_jitter_matches(self):
        import random
        from repro.retry import RetryPolicy
        policy = RetryPolicy(jitter=0.25)
        assert policy.delay(5, rng=random.Random(7)) == \
            backoff_delay(5, rng=random.Random(7), jitter=0.25)
