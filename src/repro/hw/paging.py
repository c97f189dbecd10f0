"""Two-level hardware-walked page tables (x86 32-bit style).

An :class:`AddressSpace` is a PGD (top-level page-table page) whose entries
point at leaf page-table pages; leaf entries map 4 KiB virtual pages to
physical frames.  Page-table pages themselves occupy physical frames and are
registered in :attr:`PhysicalMemory.frame_objects`, because the VMM must be
able to find and validate them by frame number when pinning (§5.1.2).

PTE permission bits matter to Mercury: in virtual mode the VMM keeps every
page-table page read-only to the guest (direct paging), while in native mode
they are writable — flipping this protection is one of the three state
transfers a mode switch performs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Optional

from repro.errors import PageFault
from repro.hw.memory import PhysicalMemory
from repro.params import PAGE_SIZE, PT_ENTRIES, PT_SPAN


@dataclass(slots=True)
class Pte:
    """One leaf page-table entry: a value, never changed after it is built.

    A flag change installs a new entry (:meth:`with_flags`), so one entry
    object may sit in several tables at once — fork hands the child the
    parent's own read-only copy-on-write entries.  Not frozen: a frozen
    dataclass costs about four times as much to build."""

    frame: int
    present: bool = True
    writable: bool = True
    user: bool = True
    #: copy-on-write marker (software bit, as Linux uses an available bit)
    cow: bool = False

    def with_flags(self, writable: Optional[bool] = None,
                   cow: Optional[bool] = None) -> "Pte":
        """This entry with ``writable``/``cow`` replaced (None keeps one)."""
        return Pte(self.frame, self.present,
                   self.writable if writable is None else writable,
                   self.user, self.cow if cow is None else cow)


class PageTablePage:
    """One page-table page (PGD or leaf), occupying a physical frame.

    ``entries`` is sparse: only present slots are stored.  Cost accounting
    for hardware scans still charges the full ``PT_ENTRIES`` width, because
    real validation must look at every slot.
    """

    __slots__ = ("frame", "level", "entries")

    def __init__(self, frame: int, level: int):
        self.frame = frame
        self.level = level  # 2 = PGD, 1 = leaf
        self.entries: dict[int, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageTablePage(frame={self.frame}, level={self.level}, n={len(self.entries)})"


def vpn_split(vaddr: int) -> tuple[int, int]:
    """Split a virtual address into (pgd index, leaf index)."""
    vpn = vaddr // PAGE_SIZE
    return vpn // PT_ENTRIES, vpn % PT_ENTRIES


def region_items(leaves: list) -> Iterator[tuple[int, Optional[Pte]]]:
    """Walk a per-leaf region ``[(pgd_idx, {idx: pte_or_None})]`` entry by
    entry, in application order, as ``(vaddr, pte_or_None)``."""
    for pgd_idx, updates in leaves:
        base = pgd_idx * PT_SPAN
        for idx, pte in updates.items():
            yield base + idx * PAGE_SIZE, pte


class AddressSpace:
    """A full virtual address space: one PGD plus its leaf tables.

    The address space does *not* charge cycles itself — callers (the guest
    OS through its virtualization object, or the VMM validator) own cost
    accounting, because the same structural operation costs differently in
    native and virtual mode.
    """

    def __init__(self, mem: PhysicalMemory, owner: int):
        self.mem = mem
        self.owner = owner
        pgd_frame = mem.alloc(owner)
        self.pgd = PageTablePage(pgd_frame, level=2)
        mem.frame_objects[pgd_frame] = self.pgd

    # -- structure -------------------------------------------------------

    @property
    def pgd_frame(self) -> int:
        return self.pgd.frame

    def leaf_for(self, vaddr: int, create: bool = False) -> Optional[PageTablePage]:
        pgd_idx = vaddr // PT_SPAN
        leaf = self.pgd.entries.get(pgd_idx)
        if leaf is None and create:
            leaf = self.new_leaf(pgd_idx)
        return leaf

    def new_leaf(self, pgd_idx: int) -> PageTablePage:
        """Allocate the missing leaf page-table page at ``pgd_idx``."""
        frame = self.mem.alloc(self.owner)
        leaf = PageTablePage(frame, level=1)
        self.mem.frame_objects[frame] = leaf
        self.pgd.entries[pgd_idx] = leaf
        return leaf

    def pt_pages(self) -> Iterator[PageTablePage]:
        """The PGD followed by every leaf page-table page."""
        yield self.pgd
        for leaf in self.pgd.entries.values():
            yield leaf

    def num_pt_pages(self) -> int:
        return 1 + len(self.pgd.entries)

    # -- mapping (structural only; no cost accounting) ---------------------
    # The single-entry forms run per PTE on the fault paths and in
    # mmu_update's per-entry rules, so the vpn arithmetic is computed once
    # inline instead of through vpn_split; bulk paths write a leaf at a
    # time through write_leaf.

    def set_pte(self, vaddr: int, pte: Pte) -> None:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            leaf = self.leaf_for(vaddr, create=True)
        leaf.entries[vpn % PT_ENTRIES] = pte

    def clear_pte(self, vaddr: int) -> Optional[Pte]:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            return None
        return leaf.entries.pop(vpn % PT_ENTRIES, None)

    def write_leaf(self, pgd_idx: int, updates: dict) -> Collection[int]:
        """Apply one leaf's share of a region write: ``updates`` maps leaf
        index -> Pte (install) or None (clear), in application order.

        The result equals one :meth:`set_pte`/:meth:`clear_pte` per entry in
        that order — one ``dict.update`` for the installs plus a pop per
        clear (one ``dict.clear`` when every entry goes), because the
        indices are distinct.  A missing leaf is created at the first
        install (an all-clear or empty batch creates none).  Returns the
        cleared indices as the keys of a dict."""
        leaf = self.pgd.entries.get(pgd_idx)
        values = updates.values()
        if all(values):            # installs only (None is the one falsy)
            cleared = ()
        elif not any(values):      # clears only
            cleared = updates
        else:
            cleared = {i: None for i, pte in updates.items() if pte is None}
            updates = {i: pte for i, pte in updates.items() if pte is not None}
        if cleared and leaf is not None:
            entries = leaf.entries
            if entries.keys() <= cleared.keys():
                entries.clear()    # every entry goes (teardown)
            else:
                pop = entries.pop
                for i in cleared:
                    pop(i, None)
        if cleared is updates:
            return cleared
        if leaf is None:
            if not updates:
                return cleared
            leaf = self.new_leaf(pgd_idx)
        leaf.entries.update(updates)
        return cleared

    def get_pte(self, vaddr: int) -> Optional[Pte]:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            return None
        return leaf.entries.get(vpn % PT_ENTRIES)

    # -- hardware walk -------------------------------------------------------

    def walk(self, vaddr: int, write: bool, user: bool) -> Pte:
        """Translate ``vaddr``; raise :class:`PageFault` on miss/violation.

        This is the hardware page walk: permission checks mirror x86
        semantics (a supervisor access ignores the user bit; a write needs
        the writable bit).  The accessed/dirty bits a real walk sets are
        not modelled: nothing reads them."""
        pte = self.get_pte(vaddr)
        if pte is None or not pte.present:
            raise PageFault(vaddr, write, user)
        if user and not pte.user:
            raise PageFault(vaddr, write, user, f"user access to kernel page {vaddr:#x}")
        if write and not pte.writable:
            raise PageFault(vaddr, write, user, f"write to read-only page {vaddr:#x}")
        return pte

    # -- enumeration -----------------------------------------------------------

    def mapped_vaddrs(self) -> Iterator[int]:
        for pgd_idx, leaf in self.pgd.entries.items():
            base = pgd_idx * PT_SPAN
            for idx in leaf.entries:
                yield base + idx * PAGE_SIZE

    def mapped_items(self) -> Iterator[tuple[int, "Pte"]]:
        """Yield ``(vaddr, pte)`` pairs without a per-entry table walk —
        the bulk paths (fork's COW sweep, exit's teardown) iterate every
        mapping and a ``get_pte`` walk per vaddr doubles their cost."""
        for pgd_idx, leaf in self.pgd.entries.items():
            base = pgd_idx * PT_SPAN
            for idx, pte in leaf.entries.items():
                yield base + idx * PAGE_SIZE, pte

    def mapped_count(self) -> int:
        return sum(len(leaf.entries) for leaf in self.pgd.entries.values())

    def mapped_frames(self) -> Iterator[int]:
        for leaf in self.pgd.entries.values():
            for pte in leaf.entries.values():
                if pte.present:
                    yield pte.frame

    # -- teardown ------------------------------------------------------------

    def destroy(self) -> None:
        """Free the page-table pages themselves (NOT the mapped frames —
        those belong to whoever mapped them and may be shared)."""
        for leaf in list(self.pgd.entries.values()):
            self.mem.free(leaf.frame)
        self.pgd.entries.clear()
        self.mem.free(self.pgd.frame)
