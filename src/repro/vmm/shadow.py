"""Shadow paging — the §3.2.2 alternative Mercury deliberately avoids.

"In shadow mode, a VMM presents the guest operating systems an illusion of
contiguous pseudo-physical memory and is responsible for translating
pseudo-physical memory to physical memory.  Thus, a translation from
pseudo-physical memory to physical memory is required during a
self-virtualization.  In direct mode ... no translation is required during
a mode switch, which could largely reduce the complexity.  Currently,
Mercury utilizes the direct access mode to simplify the implementation."

This module implements the road not taken, so the design choice can be
*measured* (ablation A4): the VMM keeps a shadow copy of every guest page
table; the hardware runs on the shadows; every guest PTE write traps and
is re-translated into the shadow.  A mode switch must build (or discard)
the full shadow set — strictly more work than direct mode's validation
scan, plus a per-shadow-page memory tax.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import VMMError
from repro.hw.paging import (PTE_FLAGS, PTE_FRAME_SHIFT, PTE_P, PTE_W,
                             AddressSpace)

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.memory import PhysicalMemory

#: cycles to translate one pseudo-physical frame through the p2m map
CYC_P2M_LOOKUP = 34
#: cycles to install one shadow PTE during a bulk build: translation,
#: mapping validation, reverse-map bookkeeping (shadow construction is
#: famously heavier than a validation scan — the §3.2.2 complexity)
CYC_SHADOW_INSTALL = 220
#: cycles to emulate one trapped guest PTE write and resync its shadow
CYC_SHADOW_SYNC = 2_800
#: frame owner id for shadow page-table pages (they belong to the VMM)
SHADOW_OWNER = 1_000_001


class ShadowPager:
    """Shadow page tables for one domain's address spaces."""

    def __init__(self, mem: "PhysicalMemory", domain_id: int):
        self.mem = mem
        self.domain_id = domain_id
        #: guest AddressSpace -> shadow AddressSpace
        self.shadows: dict[int, AddressSpace] = {}
        self._guests: dict[int, AddressSpace] = {}
        self.syncs = 0

    # ------------------------------------------------------------------
    # p2m: in this simulator guests address host frames directly, so the
    # translation is the identity — but a real shadow VMM pays the lookup
    # per entry, which is exactly the cost §3.2.2 warns about.
    # ------------------------------------------------------------------

    def p2m(self, cpu: "Cpu", pseudo_frame: int) -> int:
        cpu.charge(CYC_P2M_LOOKUP)
        return pseudo_frame

    # ------------------------------------------------------------------
    # building / tearing down shadows (the mode-switch cost)
    # ------------------------------------------------------------------

    def build(self, cpu: "Cpu", guest_aspace: AddressSpace) -> AddressSpace:
        """Construct the shadow of one guest address space: allocate
        VMM-owned page-table pages and translate every present PTE."""
        shadow = AddressSpace(self.mem, SHADOW_OWNER)
        for vaddr, gpte in guest_aspace.mapped_items():
            frame = self.p2m(cpu, gpte >> PTE_FRAME_SHIFT)
            cpu.charge(CYC_SHADOW_INSTALL)
            shadow.set_pte(vaddr, _translated(gpte, frame))
        self.shadows[id(guest_aspace)] = shadow
        self._guests[id(guest_aspace)] = guest_aspace
        return shadow

    def build_all(self, cpu: "Cpu", aspaces: list[AddressSpace]) -> int:
        """Shadow every address space (the native→virtual transfer in
        shadow mode).  Returns shadow PT pages allocated."""
        pages = 0
        for aspace in aspaces:
            shadow = self.build(cpu, aspace)
            pages += shadow.num_pt_pages()
        return pages

    def drop(self, cpu: "Cpu", guest_aspace: AddressSpace) -> None:
        shadow = self.shadows.pop(id(guest_aspace), None)
        self._guests.pop(id(guest_aspace), None)
        if shadow is not None:
            shadow.destroy()

    def drop_all(self, cpu: "Cpu") -> None:
        """Discard every shadow (the virtual→native transfer)."""
        for key in list(self.shadows):
            shadow = self.shadows.pop(key)
            self._guests.pop(key, None)
            cpu.charge(cpu.cost.cyc_transfer_per_pt_page
                       * shadow.num_pt_pages())
            shadow.destroy()

    # ------------------------------------------------------------------
    # runtime maintenance (the trap-per-PTE-write cost)
    # ------------------------------------------------------------------

    def shadow_of(self, guest_aspace: AddressSpace) -> AddressSpace:
        try:
            return self.shadows[id(guest_aspace)]
        except KeyError:
            raise VMMError("no shadow for this address space") from None

    def sync_pte(self, cpu: "Cpu", guest_aspace: AddressSpace,
                 vaddr: int) -> None:
        """A guest PTE write trapped: re-translate that entry into the
        shadow."""
        cpu.charge(CYC_SHADOW_SYNC)
        shadow = self.shadow_of(guest_aspace)
        gpte = guest_aspace.get_pte(vaddr)
        if gpte is None or not gpte & PTE_P:
            shadow.clear_pte(vaddr)
        else:
            frame = self.p2m(cpu, gpte >> PTE_FRAME_SHIFT)
            shadow.set_pte(vaddr, _translated(gpte, frame))
        cpu.tlb.invalidate(vaddr // 4096)
        self.syncs += 1

    # ------------------------------------------------------------------

    def shadow_frames_in_use(self) -> int:
        """The memory tax: frames held by shadow page tables right now."""
        return sum(s.num_pt_pages() for s in self.shadows.values())

    def verify_coherent(self, guest_aspace: AddressSpace) -> bool:
        """Every guest mapping must appear, translated, in the shadow."""
        shadow = self.shadow_of(guest_aspace)
        for vaddr, gpte in guest_aspace.mapped_items():
            if gpte & PTE_P:
                spte = shadow.get_pte(vaddr)
                if (spte is None
                        or spte >> PTE_FRAME_SHIFT != gpte >> PTE_FRAME_SHIFT
                        or spte & PTE_W != gpte & PTE_W):
                    return False
        return True


def _translated(gpte: int, frame: int) -> int:
    """The shadow word for guest word ``gpte`` with its frame translated
    to ``frame``: every flag bit carries over."""
    return frame << PTE_FRAME_SHIFT | gpte & PTE_FLAGS
