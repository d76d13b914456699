"""Pluggable eviction policies for the device-DRAM page-frame cache.

Three policies behind one interface (part of the device-DRAM cache
tier; SNIPPETS Snippet 1's ``EvictStrategy`` is the shape, Snippet 3's
hot/cold classification the third variant):

* ``lru``     — exact recency order;
* ``clock``   — one-bit second-chance approximation of LRU;
* ``hotcold`` — two-queue classifier: frames start *cold* and are
  promoted to the *hot* queue when re-referenced within a bounded reuse
  distance; victims come from the cold queue first, so scans (long reuse
  distance) cannot flush the hot set.

Every policy is a pure function of its call sequence — no randomness, no
wall clock — so cache behaviour is byte-deterministic for a given op
stream.  A policy tracks *which* resident LPA to evict next; frame
payloads stay in :class:`~repro.devcache.cache.DeviceCache`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

#: CLI-facing policy names (kept a tuple: the serve path imports this
#: module, and the concurrency lint rejects module-level mutable state).
EVICTION_POLICY_NAMES: Tuple[str, ...] = ("lru", "clock", "hotcold")


class EvictionPolicy:
    """Victim selection over the set of resident LPAs.

    The cache calls ``admit`` when a frame is installed, ``touch`` on
    every demand hit, ``forget`` when a frame leaves for any non-eviction
    reason (trim), and ``victim`` to select-and-remove the next frame to
    evict.  ``victim`` is only called while at least one LPA is resident.
    """

    name = "policy"

    def admit(self, lpa: int) -> None:
        raise NotImplementedError

    def touch(self, lpa: int) -> None:
        raise NotImplementedError

    def forget(self, lpa: int) -> None:
        raise NotImplementedError

    def victim(self) -> int:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Exact least-recently-used order."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def admit(self, lpa: int) -> None:
        self._order[lpa] = None

    def touch(self, lpa: int) -> None:
        self._order.move_to_end(lpa)

    def forget(self, lpa: int) -> None:
        self._order.pop(lpa, None)

    def victim(self) -> int:
        lpa, _ = self._order.popitem(last=False)
        return lpa

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy(EvictionPolicy):
    """Second-chance (CLOCK): one reference bit per frame.

    The ordered dict doubles as the clock's circular list: the hand sits
    at the head.  A referenced head frame loses its bit and rotates to
    the tail; the first unreferenced head frame is the victim.  Bounded:
    one full rotation clears every bit.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ref: "OrderedDict[int, bool]" = OrderedDict()

    def admit(self, lpa: int) -> None:
        self._ref[lpa] = True

    def touch(self, lpa: int) -> None:
        self._ref[lpa] = True

    def forget(self, lpa: int) -> None:
        self._ref.pop(lpa, None)

    def victim(self) -> int:
        while True:
            lpa, referenced = self._ref.popitem(last=False)
            if referenced:
                self._ref[lpa] = False  # second chance: rotate to tail
                continue
            return lpa

    def __len__(self) -> int:
        return len(self._ref)


class HotColdPolicy(EvictionPolicy):
    """Two-queue hot/cold classifier keyed on reuse distance.

    Frames are admitted *cold*.  A touch whose logical reuse distance
    (accesses since the frame's last access) is at most ``hot_distance``
    promotes the frame to the *hot* queue; longer-distance touches only
    refresh its cold position.  The hot queue is capped at
    ``hot_fraction`` of ``capacity`` — promoting into a full hot queue
    demotes its LRU frame back to cold.  Victims come from the cold LRU
    end first, so a sequential scan evicts only other scan pages while
    the hot set stays resident.
    """

    name = "hotcold"

    def __init__(
        self,
        capacity: int,
        hot_fraction: float = 0.5,
        hot_distance: int = 16,
    ) -> None:
        self._cold: "OrderedDict[int, int]" = OrderedDict()  # lpa -> tick
        self._hot: "OrderedDict[int, int]" = OrderedDict()
        self._hot_max = max(1, int(capacity * hot_fraction))
        self._hot_distance = hot_distance
        self._tick = 0

    def admit(self, lpa: int) -> None:
        self._tick += 1
        self._cold[lpa] = self._tick

    def touch(self, lpa: int) -> None:
        self._tick += 1
        if lpa in self._hot:
            self._hot[lpa] = self._tick
            self._hot.move_to_end(lpa)
            return
        last = self._cold[lpa]
        if self._tick - last <= self._hot_distance:
            del self._cold[lpa]
            self._hot[lpa] = self._tick
            if len(self._hot) > self._hot_max:
                demoted, tick = self._hot.popitem(last=False)
                self._cold[demoted] = tick
                self._cold.move_to_end(demoted)
        else:
            self._cold[lpa] = self._tick
            self._cold.move_to_end(lpa)

    def forget(self, lpa: int) -> None:
        if self._cold.pop(lpa, None) is None:
            self._hot.pop(lpa, None)

    def victim(self) -> int:
        if self._cold:
            lpa, _ = self._cold.popitem(last=False)
            return lpa
        lpa, _ = self._hot.popitem(last=False)
        return lpa

    def is_hot(self, lpa: int) -> bool:
        """Introspection for tests: is the frame in the hot queue?"""
        return lpa in self._hot

    def __len__(self) -> int:
        return len(self._cold) + len(self._hot)


def make_policy(
    name: str,
    capacity: int,
    hot_fraction: float = 0.5,
    hot_distance: int = 16,
) -> EvictionPolicy:
    """Instantiate the eviction policy called ``name``."""
    if name == "lru":
        return LRUPolicy()
    if name == "clock":
        return ClockPolicy()
    if name == "hotcold":
        return HotColdPolicy(capacity, hot_fraction, hot_distance)
    raise ValueError(
        f"unknown eviction policy {name!r}; expected one of "
        f"{', '.join(EVICTION_POLICY_NAMES)}"
    )
