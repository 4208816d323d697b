"""Minimal perfect hashing for Outback-style one-RTT routing.

Outback (PAPERS.md) keeps a compact minimal-perfect-hash table on the
compute side: for the bulk-loaded key set, every key maps to a distinct
slot in a value array of exactly ``len(keys)`` entries, so a point
lookup computes its target address locally and reaches the value in a
single READ.  This module implements the classic hash-and-displace (CHD)
construction: keys are grouped into buckets, buckets are seeded largest
first, and each bucket searches for a displacement salt under which all
of its keys land in still-free slots.  Everything is deterministic in
``(keys, seed)``, so every CN builds an identical table and sweep
processes agree byte-for-byte.

Non-member keys still hash *somewhere*; the routed slot stores its key,
and readers verify it after the READ (Outback's own membership story).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.errors import SimulationError

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Displacement salts per bucket tried before giving up; with ~4 keys
#: per bucket the expected search depth is tiny.  Displacement values at
#: or above this bound encode a direct slot assignment instead
#: (``slot = displacement - _MAX_DISPLACEMENT``), the guaranteed
#: fallback for single-key buckets placing into a nearly full table.
_MAX_DISPLACEMENT = 10_000

#: Whole-table rebuilds under derived seeds before declaring the key
#: set degenerate.  A multi-key tail bucket can legitimately exhaust
#: its displacement search when only a handful of slots remain free
#: (the probability all of its keys land exactly on free slots shrinks
#: with the square of the occupancy); re-seeding re-buckets every key,
#: so a fresh attempt is independent.
_MAX_SEED_ATTEMPTS = 16


def _mix(key: int, salt: int) -> int:
    """SplitMix64-style avalanche of *key* under *salt*."""
    x = (key + salt * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class MinimalPerfectHash:
    """A CHD minimal perfect hash over a fixed integer key set.

    ``slot_of(key)`` is a bijection from the construction keys onto
    ``range(len(keys))``.  Keys outside the set get an arbitrary (but
    deterministic) slot — callers must verify the key stored there.
    """

    def __init__(self, keys: Iterable[int], seed: int = 0,
                 keys_per_bucket: int = 4) -> None:
        keys = list(keys)
        if len(set(keys)) != len(keys):
            raise SimulationError("MPH construction requires unique keys")
        self.seed = seed
        self.num_slots = len(keys)
        self.num_buckets = max(1, len(keys) // max(1, keys_per_bucket))
        self._displacements: List[int] = [0] * self.num_buckets
        if keys:
            for attempt in range(_MAX_SEED_ATTEMPTS):
                self.seed = seed + attempt
                self._displacements = [0] * self.num_buckets
                if self._build(keys):
                    return
            raise SimulationError(
                f"MPH construction failed for {len(keys)} keys after "
                f"{_MAX_SEED_ATTEMPTS} seed attempts (degenerate key set?)"
            )

    def _build(self, keys: Sequence[int]) -> bool:
        """One construction attempt under ``self.seed``; False on failure."""
        mix = _mix
        seed = self.seed
        num_slots = self.num_slots
        buckets: Dict[int, List[int]] = {}
        for key in keys:
            buckets.setdefault(self._bucket_of(key), []).append(key)
        taken = bytearray(num_slots)
        # Largest buckets place first, while free slots are plentiful.
        for bucket, members in sorted(
            buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])
        ):
            for displacement in range(1, _MAX_DISPLACEMENT):
                # Accept the salt iff every member lands on a free slot
                # no earlier member chose; reject at the first that
                # does not, without hashing the rest.
                salt = seed + displacement
                slots: List[int] = []
                for key in members:
                    slot = mix(key, salt) % num_slots
                    if taken[slot] or slot in slots:
                        break
                    slots.append(slot)
                else:
                    for slot in slots:
                        taken[slot] = 1
                    self._displacements[bucket] = displacement
                    break
            else:
                if len(members) == 1:
                    # A lone key can always take a free slot directly.
                    slot = taken.index(0)
                    taken[slot] = 1
                    self._displacements[bucket] = _MAX_DISPLACEMENT + slot
                    continue
                return False
        return True

    def _bucket_of(self, key: int) -> int:
        return _mix(key, self.seed) % self.num_buckets

    def slot_of(self, key: int) -> int:
        """The routed slot for *key* (verify the key after reading it)."""
        displacement = self._displacements[self._bucket_of(key)]
        if displacement >= _MAX_DISPLACEMENT:
            return displacement - _MAX_DISPLACEMENT
        return _mix(key, self.seed + displacement) % self.num_slots

    def __len__(self) -> int:
        return self.num_slots

    @property
    def routing_bytes(self) -> int:
        """CN-resident size: one 16-bit displacement per bucket."""
        return 2 * self.num_buckets

    def check_perfect(self, keys: Iterable[int]) -> None:
        """Assert the bijection property over *keys* (tests/invariants)."""
        seen = set()
        for key in keys:
            slot = self.slot_of(key)
            if slot in seen:
                raise SimulationError(f"MPH collision at slot {slot}")
            seen.add(slot)
