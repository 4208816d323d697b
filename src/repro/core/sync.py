"""Three-level optimistic synchronization — the reader-side checks (§4.1).

Writers maintain versions through :class:`~repro.core.nodes.LeafNodeView`
/ :class:`~repro.core.nodes.InternalNodeView`; this module holds what a
lock-free reader does with a fetched span:

1. **node-level check** — every NV nibble in the fetched span(s) must
   agree, else a node write was torn across the read;
2. **entry-level check** — within each fetched entry, all EV nibbles must
   agree, else an entry/hop write was torn inside the entry;
3. **bitmap check** — the hopscotch bitmap stored in the home entry must
   equal the bitmap reconstructed from the actual keys fetched, else the
   read interleaved with an in-flight hop (§4.1.2).

:func:`decode_entries` de-stripes the fetched bytes once, decodes the
entries, and runs as many of the three levels as the caller asks for
on what it decoded.  A failed check raises
:class:`~repro.errors.TornReadError`; operations catch it and retry
with backoff.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from repro.core.node_layout import LeafLayout
from repro.core.nodes import LeafEntry, LeafNodeView
from repro.errors import LayoutError, TornReadError
from repro.layout import decode_key, decode_u16, decode_value
from repro.layout.versions import SpanSet
from repro.obs.bus import BUS
from repro.retry import DEFAULT_RETRY_POLICY

#: Retry budget for optimistic reads and remote lock acquisition.
#: Single source of truth is :data:`repro.retry.DEFAULT_RETRY_POLICY`;
#: these aliases keep the historical names importable.
MAX_RETRIES = DEFAULT_RETRY_POLICY.max_attempts

#: Base backoff between retries, in seconds (grows linearly per attempt).
RETRY_BACKOFF = DEFAULT_RETRY_POLICY.base_backoff

#: Attempts past which the linear backoff growth stops.
BACKOFF_CAP_ATTEMPTS = DEFAULT_RETRY_POLICY.linear_cap


def backoff_delay(attempt: int, rng=None, jitter: float = 0.0) -> float:
    """Linearly growing backoff, capped at 16x the base.

    With ``jitter`` > 0 and a seeded ``rng``, the delay is scaled by a
    uniform factor in ``[1 - jitter, 1 + jitter]`` so contending clients
    do not retry in lockstep convoys.  The default (no rng, no jitter)
    is byte-identical to the historical pure-linear behavior, and jitter
    drawn from a per-client seeded rng stays reproducible run to run.
    """
    delay = RETRY_BACKOFF * min(attempt + 1, BACKOFF_CAP_ATTEMPTS)
    if jitter and rng is not None:
        delay *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
    return delay


class DecodedEntries(NamedTuple):
    """Leaf entries decoded from one fetch, in the order they were asked for.

    An immutable value: it holds its own de-striped copy of the fetched
    bytes, so later edits of the view it was decoded from (write paths
    compose their write-back in that view) never show through.
    """

    layout: LeafLayout
    #: Entry positions, in the order given to :func:`decode_entries`.
    positions: Tuple[int, ...]
    #: Key of each position (0 = empty).
    keys: Tuple[int, ...]
    #: Hopscotch bitmap stored in the first position's entry (the home
    #: entry, for a neighborhood).
    bitmap: int
    #: Per position: (de-striped segment payload, entry offset in it).
    slots: Tuple[Tuple[bytes, int], ...]

    def find(self, key: int) -> Optional[int]:
        """Position of *key* among the entries the home bitmap flags."""
        bitmap = self.bitmap
        for offset, stored in enumerate(self.keys):
            if bitmap >> offset & 1 and stored == key:
                return self.positions[offset]
        return None

    def value(self, position: int) -> int:
        payload, rel = self.slots[self.positions.index(position)]
        layout = self.layout
        return decode_value(payload, rel + layout.entry_off_value,
                            size=layout.value_size)

    def entry(self, position: int) -> LeafEntry:
        payload, rel = self.slots[self.positions.index(position)]
        return LeafNodeView._parse_entry(position, payload, self.layout, rel)


def _torn(level: int, message: str) -> TornReadError:
    if BUS.active:
        BUS.emit("sync.torn", level=level)
    return TornReadError(message)


def decode_entries(view: LeafNodeView, positions: Sequence[int],
                   levels: int = 0,
                   hash_home: Optional[Callable[[int], int]] = None
                   ) -> DecodedEntries:
    """Decode the entries at *positions* of a fetched leaf, checking it.

    Each fetched segment is de-striped once; each entry's version byte,
    bitmap and key are read from that copy once.  *levels* says how many
    of the three checks run, always in priority order (NV, then EV,
    then bitmap), so the first failing level is the one reported:

    * 0 — none (lock holders: nobody else writes their leaf);
    * 1 — node-level versions (full-leaf scans);
    * 2 — plus entry-level versions (single-entry speculative reads);
    * 3 — plus the hopscotch bitmap; *positions* must then be the
      neighborhood of ``positions[0]`` in offset order and *hash_home*
      maps a key to its home.
    """
    layout = view.layout
    span = view.span
    segments = [part.destripe() for part in
                (span.spans if type(span) is SpanSet else (span,))]
    size = layout.entry_size
    offsets = layout._entry_offsets
    keys = []
    slots = []
    owners = []  # the segment each entry was found in
    for position in positions:
        off = offsets[position]
        for segment in segments:
            rel = off - segment[0]
            if 0 <= rel <= len(segment[1]) - size:
                break
        else:
            raise LayoutError(
                f"leaf entry {position} is not inside any fetched segment")
        payload = segment[1]
        keys.append(decode_key(payload, rel + 3))
        slots.append((payload, rel))
        owners.append(segment)
    head_payload, head_rel = slots[0]
    bitmap = decode_u16(head_payload, head_rel + 1)
    if levels:
        nvs = {byte >> 4 for segment in segments for byte in segment[3]}
        nvs.update([payload[rel] >> 4 for payload, rel in slots])
        if len(nvs) > 1:
            raise _torn(1, f"node-level versions disagree: {sorted(nvs)}")
    if levels > 1:
        entry_lines = layout._entry_lines
        for position, (payload, rel), segment in zip(positions, slots,
                                                     owners):
            lo, hi = entry_lines[position]
            if lo == hi:
                continue  # no line starts inside this entry
            ev = payload[rel] & 0xF
            first = segment[2]
            copies = segment[3][lo - first:hi - first]
            for byte in copies:
                if byte & 0xF != ev:
                    evs = sorted({ev} | {byte & 0xF for byte in copies})
                    raise _torn(2, f"entry {position} entry-level "
                                   f"versions disagree: {evs}")
    if levels > 2:
        home = positions[0]
        actual = 0
        for offset, key in enumerate(keys):
            if key and hash_home(key) == home:
                actual |= 1 << offset
        if bitmap != actual:
            raise _torn(3, f"hopscotch bitmap of home {home} is "
                           f"{bitmap:#06x}, keys say {actual:#06x} "
                           f"(in-flight hop)")
    return DecodedEntries(layout, tuple(positions), tuple(keys), bitmap,
                          tuple(slots))


def reconstruct_bitmap(view: LeafNodeView, home: int,
                       hash_home) -> int:
    """Rebuild status(keys): which neighborhood entries hold keys whose
    home is *home*, from the keys of a full image (lock-steal repair and
    the structural invariants; readers use :func:`decode_entries`)."""
    layout = view.layout
    bitmap = 0
    for offset in range(layout.neighborhood):
        pos = (home + offset) % layout.span
        entry = view.entry(pos)
        if entry.occupied and hash_home(entry.key) == home:
            bitmap |= 1 << offset
    return bitmap
