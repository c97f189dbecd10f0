"""Two-level hardware-walked page tables (x86 32-bit style).

An :class:`AddressSpace` is a PGD (top-level page-table page) whose entries
point at leaf page-table pages; leaf entries map 4 KiB virtual pages to
physical frames.  Page-table pages themselves occupy physical frames and are
registered in :attr:`PhysicalMemory.frame_objects`, because the VMM must be
able to find and validate them by frame number when pinning (§5.1.2).

A leaf entry is the x86 32-bit PTE *word*, a plain int: the frame number
above the 12 flag bits, and the present, writable and user bits where the
hardware keeps them.  Copy-on-write is software bit 9, one of the three
bits x86 leaves to the OS (Linux keeps its software flags there too).  This
module alone defines the layout; cold paths build and read words through
:func:`pte`, :func:`pte_frame`, :func:`with_flags` and :func:`pte_fields`,
while the bulk page-table passes use the bit operations inline, a leaf at a
time, over ``np.fromiter(leaf.entries.values(), np.int64, n)``.  A word is
a value: a flag change installs a new word, so one word may sit in several
tables at once — fork hands the child the parent's read-only copy-on-write
entries.  A non-present word may be 0, so "no entry" is always ``None``
and never a falsy word.

PTE permission bits matter to Mercury: in virtual mode the VMM keeps every
page-table page read-only to the guest (direct paging), while in native mode
they are writable — flipping this protection is one of the three state
transfers a mode switch performs.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.errors import PageFault
from repro.hw.memory import PhysicalMemory
from repro.params import PAGE_SIZE, PT_ENTRIES, PT_SPAN

#: the present bit (x86 ``_PAGE_PRESENT``)
PTE_P = 0x001
#: the writable bit (``_PAGE_RW``)
PTE_W = 0x002
#: the user bit (``_PAGE_USER``): clear for a supervisor-only page
PTE_U = 0x004
#: copy-on-write marker, on software-available bit 9
PTE_COW = 0x200
#: the frame number sits above the 12 flag bits
PTE_FRAME_SHIFT = 12
PTE_FLAGS = (1 << PTE_FRAME_SHIFT) - 1


def pte(frame: int, *, present: bool = True, writable: bool = True,
        user: bool = True, cow: bool = False) -> int:
    """The PTE word mapping ``frame`` with the given flags."""
    return (frame << PTE_FRAME_SHIFT | (PTE_P if present else 0)
            | (PTE_W if writable else 0) | (PTE_U if user else 0)
            | (PTE_COW if cow else 0))


def pte_frame(word: int) -> int:
    """The frame number a PTE word maps."""
    return word >> PTE_FRAME_SHIFT


def flag_masks(writable: Optional[bool] = None,
               cow: Optional[bool] = None) -> tuple[int, int]:
    """``(keep, put)`` such that ``word & keep | put`` replaces a word's
    writable/COW bits (None keeps one) — the form the per-leaf flag loops
    apply inline."""
    keep, put = -1, 0
    if writable is not None:
        keep &= ~PTE_W
        put |= PTE_W if writable else 0
    if cow is not None:
        keep &= ~PTE_COW
        put |= PTE_COW if cow else 0
    return keep, put


def with_flags(word: int, writable: Optional[bool] = None,
               cow: Optional[bool] = None) -> int:
    """``word`` with its writable/COW bits replaced (None keeps one)."""
    keep, put = flag_masks(writable, cow)
    return word & keep | put


class PteFields(NamedTuple):
    """A PTE word read field by field."""

    frame: int
    present: bool
    writable: bool
    user: bool
    cow: bool


def pte_fields(word: int) -> PteFields:
    """``(frame, present, writable, user, cow)`` of a PTE word."""
    return PteFields(word >> PTE_FRAME_SHIFT, word & PTE_P != 0,
                     word & PTE_W != 0, word & PTE_U != 0,
                     word & PTE_COW != 0)


def word_array(values: Iterable, n: int) -> Optional[np.ndarray]:
    """``n`` PTE words as one int64 array, in order — the input of the
    bulk numpy passes; None when a value is not a word: a None (a region
    leaf's clear, or an empty slot read through ``entries.get``) or an int
    beyond 64 bits.  The caller then takes its per-entry path."""
    try:
        return np.fromiter(values, np.int64, n)
    except (TypeError, OverflowError):
        return None


def all_none(values: Collection) -> bool:
    """True when every one of a region leaf's values is None (clears only).
    ``list.count`` meets each None by identity, so this is one C pass."""
    return list(values).count(None) == len(values)


class PageTablePage:
    """One page-table page (PGD or leaf), occupying a physical frame.

    ``entries`` is sparse: only written slots are stored — PTE words in a
    leaf, leaf pages in a PGD.  Cost accounting for hardware scans still
    charges the full ``PT_ENTRIES`` width, because real validation must
    look at every slot.
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


def region_items(leaves: list) -> Iterator[tuple[int, Optional[int]]]:
    """Walk a per-leaf region ``[(pgd_idx, {idx: word_or_None})]`` entry by
    entry, in application order, as ``(vaddr, word_or_None)``."""
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

    def set_pte(self, vaddr: int, pte: int) -> None:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            leaf = self.leaf_for(vaddr, create=True)
        leaf.entries[vpn % PT_ENTRIES] = pte

    def clear_pte(self, vaddr: int) -> Optional[int]:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            return None
        return leaf.entries.pop(vpn % PT_ENTRIES, None)

    def write_leaf(self, pgd_idx: int, updates: dict) -> Collection[int]:
        """Apply one leaf's share of a region write: ``updates`` maps leaf
        index -> PTE word (install) or None (clear), in application order.

        The result equals one :meth:`set_pte`/:meth:`clear_pte` per entry in
        that order — one ``dict.update`` for the installs plus a pop per
        clear (one ``dict.clear`` when every entry goes), because the
        indices are distinct.  A missing leaf is created at the first
        install (an all-clear or empty batch creates none).  Returns the
        cleared indices as the keys of a dict."""
        leaf = self.pgd.entries.get(pgd_idx)
        values = updates.values()
        if None not in values:     # installs only (a word may be 0)
            cleared = ()
        elif all_none(values):     # clears only
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

    def get_pte(self, vaddr: int) -> Optional[int]:
        vpn = vaddr // PAGE_SIZE
        leaf = self.pgd.entries.get(vpn // PT_ENTRIES)
        if leaf is None:
            return None
        return leaf.entries.get(vpn % PT_ENTRIES)

    # -- hardware walk -------------------------------------------------------

    def walk(self, vaddr: int, write: bool, user: bool) -> int:
        """Translate ``vaddr`` to its PTE word; raise :class:`PageFault` on
        miss/violation.

        This is the hardware page walk: permission checks mirror x86
        semantics (a supervisor access ignores the user bit; a write needs
        the writable bit).  The accessed/dirty bits a real walk sets are
        not modelled: nothing reads them."""
        pte = self.get_pte(vaddr)
        if pte is None or not pte & PTE_P:
            raise PageFault(vaddr, write, user)
        if user and not pte & PTE_U:
            raise PageFault(vaddr, write, user, f"user access to kernel page {vaddr:#x}")
        if write and not pte & PTE_W:
            raise PageFault(vaddr, write, user, f"write to read-only page {vaddr:#x}")
        return pte

    # -- enumeration -----------------------------------------------------------

    def mapped_vaddrs(self) -> Iterator[int]:
        for pgd_idx, leaf in self.pgd.entries.items():
            base = pgd_idx * PT_SPAN
            for idx in leaf.entries:
                yield base + idx * PAGE_SIZE

    def mapped_items(self) -> Iterator[tuple[int, int]]:
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
                if pte & PTE_P:
                    yield pte >> PTE_FRAME_SHIFT

    # -- teardown ------------------------------------------------------------

    def destroy(self) -> None:
        """Free the page-table pages themselves (NOT the mapped frames —
        those belong to whoever mapped them and may be shared)."""
        for leaf in list(self.pgd.entries.values()):
            self.mem.free(leaf.frame)
        self.pgd.entries.clear()
        self.mem.free(self.pgd.frame)
