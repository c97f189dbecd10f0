"""Virtual-mode virtualization object: hypercalls into the attached VMM.

The de-privileged twin of :class:`~repro.core.native_vo.NativeVO` (§5.3):
every sensitive operation becomes a hypercall (or relies on trap-and-
emulate for the non-performance-critical cases).  The kernel runs at PL1;
the VMM validates everything.

Two details matter for fidelity:

- **Unpinned page tables are plain memory.**  A new address space under
  construction (fork building the child's tables) is written directly at
  native cost; only when it is *pinned* (``new_address_space``) does the
  VMM validate it, and from then on every update must go through
  ``mmu_update``.  This is exactly Xen's lifecycle and the reason fork's
  slowdown comes from COW re-protection + teardown rather than child
  construction.
- **Syscalls pay a de-privileging tax** (§3.2.1): entry/exit bounce
  through the VMM's fast path and the segment fixups, charged here.
- **Lazy-MMU batching.**  Xen-Linux 2.6.16 brackets bulk page-table work
  (fork's COW sweep, exit's teardown, mmap/munmap) in a *lazy MMU mode*:
  PTE updates are queued per CPU and issued as one multi-entry
  ``mmu_update`` multicall, amortizing the hypercall trap.  The queue is
  flushed at region end and — because stale tables are never allowed to be
  *observed* — at every CR3 load, TLB flush, fault entry, pin/unpin, and
  before a mode switch commits (the flush-before-commit invariant).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.vobject import VirtualizationObject, sensitive
from repro.errors import HypercallError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.paging import flag_masks, region_items
from repro.params import PAGE_SIZE, PT_ENTRIES
from repro.vmm.hypercalls import mmu_update_chunks, mmu_update_region

if TYPE_CHECKING:
    from repro.core.accounting import MmuAccounting
    from repro.hw.devices import BlockRequest, Packet
    from repro.hw.interrupts import Idt
    from repro.hw.machine import Machine
    from repro.hw.paging import AddressSpace
    from repro.vmm.domain import Domain
    from repro.vmm.hypervisor import Hypervisor


class _LazyMmuState:
    """One CPU's lazy-MMU queue: region nesting depth, the ordered update
    queue, and a read-back index so in-region read-modify-write sees its
    own queued writes."""

    __slots__ = ("depth", "queue", "pending")

    def __init__(self):
        self.depth = 0
        #: ordered ``(aspace, vaddr, word-or-None)`` updates, exactly the
        #: shape ``mmu_update`` consumes
        self.queue: list = []
        #: ``(id(aspace), vaddr) -> latest queued word-or-None``
        self.pending: dict = {}


class VirtualVO(VirtualizationObject):
    """VO implementation for an OS running on the VMM."""

    mode_name = "virtual"
    is_virtual = True

    def __init__(self, machine: "Machine", vmm: "Hypervisor", domain: "Domain",
                 mmu_log: Optional["MmuAccounting"] = None):
        super().__init__()
        self.machine = machine
        self.vmm = vmm
        self.domain = domain
        self.data.kernel_segment_dpl = 1
        #: per-CPU lazy-MMU queues, keyed by cpu_id
        self._lazy: dict[int, _LazyMmuState] = {}
        if mmu_log is None:
            from repro.core.accounting import MmuAccounting
            mmu_log = MmuAccounting()  # standalone VO: marks go nowhere
        #: dirty-root tracker shared with the NativeVO.  Pinned tables are
        #: maintained live by the VMM, but *unpinned* tables are plain
        #: memory — direct writes mark their root so the invariant "every
        #: structural PT write dirties its root" holds in both modes.
        self.mmu_log = mmu_log
        self._dirty_roots = mmu_log.dirty

    # -- helpers -----------------------------------------------------------

    def _hcall(self, cpu, name: str, *args):
        return self.vmm.hypercall(cpu, self.domain, name, *args)

    def _pinned(self, aspace: "AddressSpace") -> bool:
        return self.vmm.page_info.pinned_map[aspace.pgd.frame] != 0

    # -- lazy-MMU batching --------------------------------------------------

    def _lazy_state(self, cpu) -> _LazyMmuState:
        st = self._lazy.get(cpu.cpu_id)
        if st is None:
            st = self._lazy[cpu.cpu_id] = _LazyMmuState()
        return st

    def lazy_mmu_begin(self, cpu) -> None:
        self._lazy_state(cpu).depth += 1

    def lazy_mmu_end(self, cpu) -> None:
        st = self._lazy_state(cpu)
        if st.depth == 0:
            return  # region was retired by a mode-switch drain
        st.depth -= 1
        if st.depth == 0:
            self._flush(cpu, st)

    def lazy_mmu_flush(self, cpu) -> None:
        self._flush(cpu, self._lazy_state(cpu))

    def lazy_mmu_drain(self, cpu) -> None:
        # the mode-switch commit path: every CPU's queue is issued by the
        # control processor (secondaries are parked in the rendezvous) and
        # open regions are retired — their lazy_mmu_end becomes a no-op
        for st in self._lazy.values():
            self._flush(cpu, st)
            st.depth = 0

    def lazy_mmu_pending(self) -> int:
        return sum(len(st.queue) for st in self._lazy.values())

    def _flush(self, cpu, st: _LazyMmuState) -> None:
        if not st.queue:
            return
        queue, st.queue, st.pending = st.queue, [], {}
        for start, end in mmu_update_chunks(cpu, len(queue)):
            try:
                self._hcall(cpu, "mmu_update", queue[start:end])
            except HypercallError:
                # a transient refusal applies nothing from the batch —
                # restore it (plus the unsent remainder) so the next flush
                # point retries instead of silently dropping PTE updates
                rest = queue[start:] + st.queue
                st.queue = rest
                st.pending = {(id(a), v): p for a, v, p in rest}
                raise

    def _queue_update(self, cpu, st: _LazyMmuState, aspace, vaddr: int,
                      pte) -> None:
        st.queue.append((aspace, vaddr, pte))
        st.pending[(id(aspace), vaddr)] = pte

    # -- sensitive CPU operations -------------------------------------------

    @sensitive
    def write_cr3(self, cpu, pgd_frame: int) -> None:
        self.lazy_mmu_flush(cpu)
        aspace = self.domain.aspace_by_pgd.get(pgd_frame)
        if aspace is None:
            raise HypercallError(
                f"CR3 load of unregistered PGD frame {pgd_frame}")
        if not self._pinned(aspace):
            self._hcall(cpu, "mmuext_op", "pin_table", aspace)
        self._hcall(cpu, "mmuext_op", "new_baseptr", aspace)

    @sensitive
    def load_idt(self, cpu, idt: "Idt") -> None:
        # the hardware IDT belongs to the VMM; the guest registers handlers
        table = {vec: entry.handler for vec, entry in idt.gates.items()}
        self._hcall(cpu, "set_trap_table", table)
        self.data.idt = idt

    @sensitive
    def set_segment_dpl(self, cpu, dpl: int) -> None:
        self._hcall(cpu, "set_gdt", max(dpl, 1))  # VMM refuses PL0 segments
        self.data.kernel_segment_dpl = max(dpl, 1)

    @sensitive
    def irq_disable(self, cpu) -> None:
        # virtual IF: a cheap write to the shared-info page, no hypercall
        cpu.charge(2)
        vcpu = self._vcpu(cpu)
        if vcpu is not None:
            vcpu.saved_if = False

    @sensitive
    def irq_enable(self, cpu) -> None:
        cpu.charge(2)
        vcpu = self._vcpu(cpu)
        if vcpu is not None:
            vcpu.saved_if = True

    @sensitive
    def stack_switch(self, cpu, to_task) -> None:
        self.lazy_mmu_flush(cpu)
        # beyond the hypercall itself, a Xen guest context switch updates
        # descriptors and takes segment/FPU trap storms
        cpu.charge(cpu.cost.cyc_virt_ctx_extra)
        self._hcall(cpu, "stack_switch", id(to_task))

    # -- kernel entry/exit ----------------------------------------------------

    @sensitive
    def kernel_entry(self, cpu) -> None:
        # every syscall passes through here: direct clock add (constant cost)
        cpu.clock.cycles += (cpu.cost.cyc_kernel_entry
                             + cpu.cost.cyc_syscall_virt_extra)
        cpu.set_privilege(PrivilegeLevel.PL1)

    @sensitive
    def kernel_exit(self, cpu) -> None:
        cpu.clock.cycles += cpu.cost.cyc_kernel_exit + cpu.cost.cyc_iret_fixup
        cpu.set_privilege(PrivilegeLevel.PL3)

    @sensitive
    def fault_entry(self, cpu) -> None:
        # the fault handler will read page tables — queued updates must be
        # visible before it runs
        self.lazy_mmu_flush(cpu)
        # fault -> VMM -> reflected into the guest handler (the secondary
        # cache/iTLB damage is charged on the fixup paths in vmem)
        cpu.charge(cpu.cost.cyc_fault_hw + cpu.cost.cyc_trap_roundtrip)
        cpu.set_privilege(PrivilegeLevel.PL1)

    # -- sensitive memory operations --------------------------------------------

    @sensitive
    def set_pte(self, cpu, aspace: "AddressSpace", vaddr: int, pte: int) -> None:
        if self._pinned(aspace):
            st = self._lazy_state(cpu)
            if st.depth > 0:
                self._queue_update(cpu, st, aspace, vaddr, pte)
            else:
                self._hcall(cpu, "update_va_mapping", aspace, vaddr, pte)
        else:
            # unpinned tables are plain memory: direct write, validated later
            cpu.charge(cpu.cost.cyc_pte_write)
            aspace.set_pte(vaddr, pte)
            self._dirty_roots.add(aspace.pgd.frame)

    @sensitive
    def clear_pte(self, cpu, aspace: "AddressSpace", vaddr: int) -> None:
        if self._pinned(aspace):
            st = self._lazy_state(cpu)
            if st.depth > 0:
                self._queue_update(cpu, st, aspace, vaddr, None)
            else:
                self._hcall(cpu, "update_va_mapping", aspace, vaddr, None)
        else:
            cpu.charge(cpu.cost.cyc_pte_write)
            aspace.clear_pte(vaddr)
            self._dirty_roots.add(aspace.pgd.frame)

    @sensitive
    def update_pte_flags(self, cpu, aspace: "AddressSpace", pgd_idx: int,
                         idxs, *, writable=None, cow=None) -> None:
        st = self._lazy_state(cpu)
        pinned = self._pinned(aspace)
        in_region = st.depth > 0 and pinned
        leaf = aspace.pgd.entries.get(pgd_idx)
        entries = leaf.entries if leaf is not None else {}
        base_vpn = pgd_idx * PT_ENTRIES
        keep, put = flag_masks(writable, cow)
        for k, idx in enumerate(idxs):
            if k:
                self._next_entry(cpu)
            vaddr = (base_vpn + idx) * PAGE_SIZE
            if in_region:
                # read-modify-write must see this region's own queued writes
                pte = st.pending.get((id(aspace), vaddr), entries.get(idx))
            else:
                pte = entries.get(idx)
            if pte is None:
                continue
            new = pte & keep | put
            if in_region:
                self._queue_update(cpu, st, aspace, vaddr, new)
            elif pinned:
                self._hcall(cpu, "update_va_mapping", aspace, vaddr, new)
            else:
                cpu.charge(cpu.cost.cyc_pte_write)
                aspace.set_pte(vaddr, new)
                self._dirty_roots.add(aspace.pgd.frame)
            cpu.tlb.invalidate(base_vpn + idx)

    def _flag_update_cycles(self, cpu, aspace: "AddressSpace"
                            ) -> Optional[int]:
        if not self._pinned(aspace):
            return self._indirect_cycles(cpu) + cpu.cost.cyc_pte_write
        st = self._lazy.get(cpu.cpu_id)
        if st is not None and st.depth > 0:
            return self._indirect_cycles(cpu)  # queued: the flush pays
        return None  # update_va_mapping: a traced hypercall per entry

    @sensitive
    def apply_pte_region(self, cpu, aspace: "AddressSpace", leaves: list) -> None:
        if not self._pinned(aspace):
            # unpinned tables are plain memory: one dict pass per leaf
            self._dirty_roots.add(aspace.pgd.frame)
            cpu.charge(cpu.cost.cyc_pte_write
                       * sum(len(updates) for _, updates in leaves))
            for pgd_idx, updates in leaves:
                aspace.write_leaf(pgd_idx, updates)
            return
        st = self._lazy_state(cpu)
        if st.depth > 0:
            for vaddr, pte in region_items(leaves):
                self._queue_update(cpu, st, aspace, vaddr, pte)
            return
        # pinned, no region open: batched mmu_update multicalls
        mmu_update_region(self.vmm, cpu, self.domain, aspace, leaves)

    @sensitive
    def new_address_space(self, cpu, aspace: "AddressSpace") -> None:
        self.lazy_mmu_flush(cpu)
        self.domain.register_aspace(aspace)
        self._hcall(cpu, "mmuext_op", "pin_table", aspace)

    @sensitive
    def destroy_address_space(self, cpu, aspace: "AddressSpace") -> None:
        # flush before unpin: queued clears applied after _unaccount_leaf
        # would double-count in the PageInfoTable
        self.lazy_mmu_flush(cpu)
        self.mmu_log.on_destroy_root(aspace)
        if self._pinned(aspace):
            self._hcall(cpu, "mmuext_op", "unpin_table", aspace)
        self.domain.unregister_aspace(aspace)
        aspace.destroy()

    @sensitive
    def flush_tlb(self, cpu) -> None:
        self.lazy_mmu_flush(cpu)
        self._hcall(cpu, "mmuext_op", "tlb_flush_local")

    @sensitive
    def invlpg(self, cpu, vaddr: int) -> None:
        self.lazy_mmu_flush(cpu)
        self._hcall(cpu, "mmuext_op", "invlpg_local", None, vaddr)

    # -- sensitive I/O operations ---------------------------------------------

    @sensitive
    def bind_irq(self, cpu, line: str, cpu_id: int, vector: int) -> None:
        # only the driver domain may touch real interrupt routing
        if not self.domain.is_driver_domain:
            raise HypercallError(
                f"domain {self.domain.domain_id} has no direct irq access")
        cpu.charge(cpu.cost.cyc_event_channel)
        self.machine.intc.bind_line(line, cpu_id, vector)
        self.data.irq_bindings[line] = (cpu_id, vector)

    @sensitive
    def disk_submit(self, cpu, req: "BlockRequest") -> None:
        if not self.domain.is_driver_domain:
            raise HypercallError(
                f"domain {self.domain.domain_id} has no direct disk access")
        # direct device access, but completion will arrive VMM-mediated
        cpu.charge(cpu.cost.cyc_disk_submit)
        self.machine.disk.submit(req)

    @sensitive
    def net_transmit(self, cpu, pkt: "Packet") -> None:
        if not self.domain.is_driver_domain:
            raise HypercallError(
                f"domain {self.domain.domain_id} has no direct NIC access")
        # per-packet cost plus the VMM-mediated TX-completion interrupt
        # (event channel + hypervisor delivery latency), the dominant
        # per-packet tax — one direct clock add on this hot path
        cost = cpu.cost
        cpu.clock.cycles += (cost.cyc_net_per_packet
                             + cost.cyc_net_copy_per_kb
                             * max(1, pkt.size_bytes // 1024)
                             + cost.cyc_event_channel
                             + cost.cyc_vmm_irq_latency)
        self.machine.nic.transmit(pkt)

    # ------------------------------------------------------------------

    def _vcpu(self, cpu):
        for vcpu in self.domain.vcpus:
            if vcpu.vcpu_id == cpu.cpu_id:
                return vcpu
        return None
