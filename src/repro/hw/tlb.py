"""Hardware-managed TLB model.

The paper's address-space design decision (§3.2.2) — keeping the VMM mapped
in a reserved region of every address space — exists precisely because a
hardware-managed TLB makes address-space switches expensive.  The simulator
models a small FIFO TLB: hits are free, misses charge a refill, and CR3
writes flush everything (as on pre-PCID x86).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Collection, Optional


class Tlb:
    """A per-CPU translation lookaside buffer with FIFO replacement."""

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[int, tuple[int, bool]] = OrderedDict()
        #: bound ``pop`` of the entry dict — bulk paths (``mmu_update``'s
        #: per-entry invlpg) call ``drop(vpn, None)`` to skip a method
        #: dispatch per PTE; the dict object is never rebound (``flush``
        #: clears it in place), so the binding stays valid for the CPU's
        #: lifetime
        self.drop = self._entries.pop
        self.hits = 0
        self.misses = 0
        self.flushes = 0

    def lookup(self, vpn: int) -> Optional[tuple[int, bool]]:
        """Return (frame, writable) on a hit, else None."""
        hit = self._entries.get(vpn)
        if hit is None:
            self.misses += 1
            return None
        self.hits += 1
        return hit

    def fill(self, vpn: int, frame: int, writable: bool) -> None:
        if vpn in self._entries:
            self._entries.pop(vpn)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[vpn] = (frame, writable)

    def invalidate(self, vpn: int) -> None:
        """invlpg: drop one translation."""
        self._entries.pop(vpn, None)

    def invalidate_leaf(self, base_vpn: int, idxs: Collection[int]) -> None:
        """invlpg of ``base_vpn + i`` for every leaf index ``i`` in ``idxs``
        (a dict or set).  A batch larger than the TLB scans the resident
        entries instead of popping every vpn; the survivors keep their FIFO
        order either way."""
        entries = self._entries
        if len(idxs) > len(entries):
            for vpn in [v for v in entries if v - base_vpn in idxs]:
                del entries[vpn]
        else:
            drop = self.drop
            for i in idxs:
                drop(base_vpn + i, None)

    def flush(self) -> None:
        """Full flush (CR3 write / explicit flush)."""
        self._entries.clear()
        self.flushes += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
