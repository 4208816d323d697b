"""Shared hopscotch-leaf I/O for index clients.

Both CHIME (B+-tree routing) and CHIME-Learned (model routing, §5.3) read
and validate hopscotch leaf nodes the same way; this mixin hosts that
logic.  Users must provide ``self.layout`` (a
:class:`~repro.core.node_layout.LeafLayout`), ``self.ops`` (a
:class:`~repro.core.access.PlanExecutor`), ``self.engine`` and
``self.home_of(key)``.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Tuple

from repro.core.nodes import LeafNodeView
from repro.core.sync import decode_entries
from repro.errors import FaultInjectedError, TornReadError
from repro.layout import StripedSpan
from repro.layout.versions import SpanSet, raw_span
from repro.retry import DEFAULT_RETRY_POLICY


class HopscotchLeafOpsMixin:
    """Leaf fetch + three-level-check primitives."""

    def _fetch_leaf(self, leaf_addr: int,
                    segments: Sequence[Tuple[int, int]]) -> Generator:
        """READ logical segments of a leaf; single READ or doorbell batch."""
        requests = []
        raw_offs = []
        for off, length in segments:
            raw_off, raw_len = raw_span(off, length)
            raw_offs.append(raw_off)
            requests.append((leaf_addr + raw_off, raw_len))
        if len(requests) == 1:
            data = yield from self.ops.read(*requests[0])
            span = StripedSpan(data, base=raw_offs[0])
            return LeafNodeView(self.layout, span)
        payloads = yield from self.ops.read_batch(requests)
        spans = [StripedSpan(data, base=raw_off)
                 for raw_off, data in zip(raw_offs, payloads)]
        return LeafNodeView(self.layout, SpanSet(spans))

    def _fetch_neighborhood_view(self, leaf_addr: int, home: int,
                                 extra_view=None) -> Generator:
        """Neighborhood read; a dedicated header READ precedes it when
        metadata replication is disabled (the §3.2.2 extra access)."""
        layout = self.layout
        if not layout.replicated:
            header = yield from self._fetch_leaf(leaf_addr,
                                                 [(0, layout.replica_size)])
            view = yield from self._fetch_leaf(
                leaf_addr, layout.neighborhood_segments(home))
            header_spans = (header.span.spans
                            if isinstance(header.span, SpanSet)
                            else [header.span])
            if isinstance(view.span, SpanSet):
                view.span.spans.extend(header_spans)
                view.span.spans.sort(key=lambda s: s.base)
            else:
                view = LeafNodeView(layout,
                                    SpanSet([view.span] + header_spans))
            return view
        view = yield from self._fetch_leaf(
            leaf_addr, layout.neighborhood_segments(home))
        return view

    def _read_neighborhood_checked(self, leaf_addr: int,
                                   home: int) -> Generator:
        """Neighborhood read + the three-level optimistic checks.

        Returns ``(view, entries)``: the fetched view (replica fields)
        and its checked :class:`~repro.core.sync.DecodedEntries`.
        """
        positions = self.layout.neighborhoods[home]
        # CHIME clients carry an index-level RetryPolicy; the learned
        # variant (no B-tree base) falls back to the default.
        policy = getattr(self, "retry", None) or DEFAULT_RETRY_POLICY
        rng = getattr(getattr(self, "ctx", None), "rng", None)
        retry = policy.start(
            f"neighborhood {home} @ leaf {leaf_addr:#x}", self.engine, rng)
        while retry.check():
            try:
                view = yield from self._fetch_neighborhood_view(leaf_addr,
                                                                home)
                return view, decode_entries(view, positions, 3,
                                            self.home_of)
            except (TornReadError, FaultInjectedError):
                self.ops.stats.retries += 1
                yield from retry.backoff()

    def _find_in_neighborhood(self, view: LeafNodeView, home: int,
                              key: int) -> Optional[int]:
        """Locate *key* among the entries flagged by the home bitmap of
        a view fetched under the leaf lock (no checks)."""
        return decode_entries(view, self.layout.neighborhoods[home]).find(key)
