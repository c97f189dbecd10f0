"""Native-mode virtualization object: direct hardware manipulation (§5.3).

Every sensitive operation executes privileged instructions directly — the
kernel runs at PL0 and owns the machine.  The only overhead relative to an
unmodified kernel is the function-table indirection charged by
:func:`~repro.core.vobject.sensitive` and (optionally) the ACTIVE
page-accounting hook (§5.1.2's first alternative, benchmarked in the
ablation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.vobject import VirtualizationObject, sensitive
from repro.errors import OutOfMemory
from repro.hw.cpu import PrivilegeLevel
from repro.hw.paging import flag_masks, region_items
from repro.params import PAGE_SIZE, PT_ENTRIES

if TYPE_CHECKING:
    from repro.core.accounting import ActiveAccountant, MmuAccounting
    from repro.hw.devices import BlockRequest, Packet
    from repro.hw.interrupts import Idt
    from repro.hw.machine import Machine
    from repro.hw.paging import AddressSpace


class NativeVO(VirtualizationObject):
    """VO implementation for an OS running on bare hardware.

    The lazy-MMU region markers inherit the base-class no-ops: native PTE
    writes are plain stores, so there is nothing to batch."""

    mode_name = "native"

    def __init__(self, machine: "Machine",
                 accountant: Optional["ActiveAccountant"] = None,
                 mmu_log: Optional["MmuAccounting"] = None):
        super().__init__()
        self.machine = machine
        self.data.kernel_segment_dpl = 0
        #: when the ACTIVE accounting strategy is selected, Mercury keeps the
        #: pre-cached VMM's page type/count info up to date from native mode
        #: at a small per-operation cost (§5.1.2)
        self.accountant = accountant
        if mmu_log is None:
            from repro.core.accounting import MmuAccounting
            mmu_log = MmuAccounting()  # standalone VO: marks go nowhere
        #: dirty-root tracker for the incremental attach recompute; the
        #: mark itself is a one-bit note folded into the PT write, so no
        #: cycles are charged here
        self.mmu_log = mmu_log
        self._dirty_roots = mmu_log.dirty

    # -- sensitive CPU operations -------------------------------------------

    @sensitive
    def write_cr3(self, cpu, pgd_frame: int) -> None:
        cpu.write_cr3(pgd_frame)

    @sensitive
    def load_idt(self, cpu, idt: "Idt") -> None:
        cpu.load_idt(idt)
        self.data.idt = idt

    @sensitive
    def set_segment_dpl(self, cpu, dpl: int) -> None:
        for desc in cpu.gdt.values():
            desc.dpl = dpl
        self.data.kernel_segment_dpl = dpl

    @sensitive
    def irq_disable(self, cpu) -> None:
        cpu.cli()

    @sensitive
    def irq_enable(self, cpu) -> None:
        cpu.sti()

    @sensitive
    def stack_switch(self, cpu, to_task) -> None:
        cpu.charge(cpu.cost.cyc_privop_native)  # load the new esp0

    # -- kernel entry/exit -------------------------------------------------

    @sensitive
    def kernel_entry(self, cpu) -> None:
        # every syscall passes through here: direct clock add (constant cost)
        cpu.clock.cycles += cpu.cost.cyc_kernel_entry
        cpu.set_privilege(PrivilegeLevel.PL0)

    @sensitive
    def kernel_exit(self, cpu) -> None:
        cpu.clock.cycles += cpu.cost.cyc_kernel_exit
        cpu.set_privilege(PrivilegeLevel.PL3)

    @sensitive
    def fault_entry(self, cpu) -> None:
        cpu.charge(cpu.cost.cyc_fault_hw)
        cpu.set_privilege(PrivilegeLevel.PL0)

    # -- sensitive memory operations ------------------------------------------

    @sensitive
    def set_pte(self, cpu, aspace: "AddressSpace", vaddr: int, pte: int) -> None:
        cpu.charge(cpu.cost.cyc_pte_write)
        old = aspace.get_pte(vaddr) if self.accountant is not None else None
        aspace.set_pte(vaddr, pte)
        self._dirty_roots.add(aspace.pgd.frame)
        if self.accountant is not None:
            self.accountant.on_set_pte(cpu, aspace, vaddr, pte, old)

    @sensitive
    def clear_pte(self, cpu, aspace: "AddressSpace", vaddr: int) -> None:
        cpu.charge(cpu.cost.cyc_pte_write)
        old = aspace.clear_pte(vaddr)
        cpu.tlb.invalidate(vaddr // PAGE_SIZE)
        self._dirty_roots.add(aspace.pgd.frame)
        if self.accountant is not None and old is not None:
            self.accountant.on_clear_pte(cpu, aspace, vaddr, old)

    @sensitive
    def update_pte_flags(self, cpu, aspace: "AddressSpace", pgd_idx: int,
                         idxs, *, writable=None, cow=None) -> None:
        leaf = aspace.pgd.entries.get(pgd_idx)
        entries = leaf.entries if leaf is not None else {}
        base_vpn = pgd_idx * PT_ENTRIES
        cyc_pte_write = cpu.cost.cyc_pte_write
        accountant = self.accountant
        keep, put = flag_masks(writable, cow)
        for k, idx in enumerate(idxs):
            if k:
                self._next_entry(cpu)
            cpu.clock.cycles += cyc_pte_write
            pte = entries.get(idx)
            if pte is None:
                continue
            pte = entries[idx] = pte & keep | put
            cpu.tlb.invalidate(base_vpn + idx)
            self._dirty_roots.add(aspace.pgd.frame)
            if accountant is not None:
                accountant.on_update_pte(cpu, aspace,
                                         (base_vpn + idx) * PAGE_SIZE, pte)

    def _flag_update_cycles(self, cpu, aspace: "AddressSpace"
                            ) -> Optional[int]:
        if self.accountant is not None:
            return None  # ACTIVE tracking charges every entry on top
        return self._indirect_cycles(cpu) + cpu.cost.cyc_pte_write

    @sensitive
    def apply_pte_region(self, cpu, aspace: "AddressSpace", leaves: list) -> None:
        self._dirty_roots.add(aspace.pgd.frame)
        cpu.charge(cpu.cost.cyc_pte_write
                   * sum(len(updates) for _, updates in leaves))
        accountant = self.accountant
        if accountant is None:
            # hot path (fork child install, teardown, mmap populate): one
            # dict pass per leaf, one lump charge for the whole region, and
            # the cleared vpns leave the TLB
            invalidate = cpu.tlb.invalidate_leaf
            for pgd_idx, updates in leaves:
                base_vpn = pgd_idx * PT_ENTRIES
                try:
                    cleared = aspace.write_leaf(pgd_idx, updates)
                except OutOfMemory:
                    # the missing leaf could not be made at its first
                    # install: only the clears before it were issued
                    for idx, pte in updates.items():
                        if pte is not None:
                            break
                        cpu.tlb.invalidate(base_vpn + idx)
                    raise
                if cleared:
                    invalidate(base_vpn, cleared)
            return
        for vaddr, pte in region_items(leaves):
            old = aspace.get_pte(vaddr)
            if pte is None:
                removed = aspace.clear_pte(vaddr)
                cpu.tlb.invalidate(vaddr // PAGE_SIZE)
                if removed is not None:
                    accountant.on_clear_pte(cpu, aspace, vaddr, removed)
            else:
                aspace.set_pte(vaddr, pte)
                accountant.on_set_pte(cpu, aspace, vaddr, pte, old)

    @sensitive
    def new_address_space(self, cpu, aspace: "AddressSpace") -> None:
        # Bare hardware needs nothing: the MMU will happily walk any frames.
        self.mmu_log.on_new_root(aspace)
        if self.accountant is not None:
            self.accountant.on_new_address_space(cpu, aspace)

    @sensitive
    def destroy_address_space(self, cpu, aspace: "AddressSpace") -> None:
        self.mmu_log.on_destroy_root(aspace)
        if self.accountant is not None:
            self.accountant.on_destroy_address_space(cpu, aspace)
        aspace.destroy()

    @sensitive
    def flush_tlb(self, cpu) -> None:
        cpu.charge(cpu.cost.cyc_tlb_flush)
        cpu.tlb.flush()

    @sensitive
    def invlpg(self, cpu, vaddr: int) -> None:
        cpu.charge(cpu.cost.cyc_privop_native)
        cpu.tlb.invalidate(vaddr // PAGE_SIZE)

    # -- sensitive I/O operations -------------------------------------------

    @sensitive
    def bind_irq(self, cpu, line: str, cpu_id: int, vector: int) -> None:
        cpu.charge(cpu.cost.cyc_privop_native)
        self.machine.intc.bind_line(line, cpu_id, vector)
        self.data.irq_bindings[line] = (cpu_id, vector)

    @sensitive
    def disk_submit(self, cpu, req: "BlockRequest") -> None:
        cpu.charge(cpu.cost.cyc_disk_submit)
        self.machine.disk.submit(req)

    @sensitive
    def net_transmit(self, cpu, pkt: "Packet") -> None:
        cost = cpu.cost
        cpu.clock.cycles += (cost.cyc_net_per_packet
                             + cost.cyc_net_copy_per_kb
                             * max(1, pkt.size_bytes // 1024))
        self.machine.nic.transmit(pkt)
