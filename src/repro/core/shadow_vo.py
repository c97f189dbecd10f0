"""Virtual-mode VO for shadow paging (ablation A4).

With shadow paging the guest's own page tables are never installed in the
MMU, so the guest may write them freely — but every write traps and is
re-translated into the VMM-owned shadow, and CR3 loads must resolve to the
shadow's root.  Compare :class:`~repro.core.virtual_vo.VirtualVO` (direct
mode), where the guest's tables are the live ones and updates go through
validated hypercalls instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.virtual_vo import VirtualVO
from repro.core.vobject import sensitive
from repro.errors import HypercallError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.paging import region_items, with_flags
from repro.params import PAGE_SIZE, PT_SPAN

if TYPE_CHECKING:
    from repro.hw.machine import Machine
    from repro.core.accounting import MmuAccounting
    from repro.hw.paging import AddressSpace
    from repro.vmm.domain import Domain
    from repro.vmm.hypervisor import Hypervisor
    from repro.vmm.shadow import ShadowPager


class ShadowVirtualVO(VirtualVO):
    """De-privileged VO whose MMU operations maintain shadows."""

    mode_name = "virtual-shadow"

    def __init__(self, machine: "Machine", vmm: "Hypervisor",
                 domain: "Domain", pager: "ShadowPager",
                 mmu_log: Optional["MmuAccounting"] = None):
        super().__init__(machine, vmm, domain, mmu_log=mmu_log)
        self.pager = pager

    # -- CPU ----------------------------------------------------------------

    @sensitive
    def write_cr3(self, cpu, pgd_frame: int) -> None:
        aspace = self.domain.aspace_by_pgd.get(pgd_frame)
        if aspace is None:
            raise HypercallError(
                f"CR3 load of unregistered PGD frame {pgd_frame}")
        shadow = self.pager.shadow_of(aspace)
        # the VMM installs the *shadow* root
        cpu.charge(cpu.cost.cyc_emulate_privop)
        saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
        try:
            cpu.write_cr3(shadow.pgd_frame)
        finally:
            cpu.pl = saved

    # -- MMU: direct guest writes + trapped shadow syncs -----------------------
    # Every guest page-table write traps individually and is re-translated
    # into the shadow; there is no multicall to fold updates into, so
    # nothing below queues and the inherited lazy-MMU markers make no
    # hypercall.

    @sensitive
    def set_pte(self, cpu, aspace: "AddressSpace", vaddr: int,
                pte: int) -> None:
        cpu.charge(cpu.cost.cyc_pte_write)
        aspace.set_pte(vaddr, pte)
        if id(aspace) in self.pager.shadows:
            self.pager.sync_pte(cpu, aspace, vaddr)

    @sensitive
    def clear_pte(self, cpu, aspace: "AddressSpace", vaddr: int) -> None:
        cpu.charge(cpu.cost.cyc_pte_write)
        aspace.clear_pte(vaddr)
        if id(aspace) in self.pager.shadows:
            self.pager.sync_pte(cpu, aspace, vaddr)

    @sensitive
    def update_pte_flags(self, cpu, aspace: "AddressSpace", pgd_idx: int,
                         idxs, *, writable=None, cow=None) -> None:
        base = pgd_idx * PT_SPAN
        for k, idx in enumerate(idxs):
            if k:
                self._next_entry(cpu)
            vaddr = base + idx * PAGE_SIZE
            pte = aspace.get_pte(vaddr)
            if pte is None:
                continue
            cpu.charge(cpu.cost.cyc_pte_write)
            aspace.set_pte(vaddr, with_flags(pte, writable, cow))
            if id(aspace) in self.pager.shadows:
                self.pager.sync_pte(cpu, aspace, vaddr)

    def _flag_update_cycles(self, cpu, aspace: "AddressSpace"
                            ) -> Optional[int]:
        if id(aspace) in self.pager.shadows:
            return None  # every write traps into a shadow sync
        return self._indirect_cycles(cpu) + cpu.cost.cyc_pte_write

    @sensitive
    def apply_pte_region(self, cpu, aspace: "AddressSpace",
                         leaves: list) -> None:
        # shadow mode cannot batch: every write is an individual trap
        for vaddr, pte in region_items(leaves):
            cpu.charge(cpu.cost.cyc_pte_write)
            if pte is None:
                aspace.clear_pte(vaddr)
            else:
                aspace.set_pte(vaddr, pte)
            if id(aspace) in self.pager.shadows:
                self.pager.sync_pte(cpu, aspace, vaddr)

    # No attach under shadow paging captures the dirty-root set, so a root
    # built here is new to it, as one built natively is, and a root torn
    # down here leaves it: the set names live roots in either mode, and a
    # checkpoint rollback lands on the set it started from.

    @sensitive
    def new_address_space(self, cpu, aspace: "AddressSpace") -> None:
        self.domain.register_aspace(aspace)
        self.mmu_log.on_new_root(aspace)
        self.pager.build(cpu, aspace)

    @sensitive
    def destroy_address_space(self, cpu, aspace: "AddressSpace") -> None:
        self.mmu_log.on_destroy_root(aspace)
        self.pager.drop(cpu, aspace)
        self.domain.unregister_aspace(aspace)
        aspace.destroy()
