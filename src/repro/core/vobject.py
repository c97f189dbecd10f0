"""Virtualization objects (VOes) — §4.2 and §5.3 of the paper.

A VO groups *all* virtualization-sensitive code and data behind one
interface: a function table (the methods below) plus a data table
(:class:`VoData` — control registers, descriptor tables).  The guest kernel
never touches sensitive hardware state directly; it calls through the VO
installed by Mercury.  Relocating the OS between execution modes is then a
single pointer swap — plus the state transfer/reload work in
:mod:`repro.core.transfer` and :mod:`repro.core.reload`.

Every function-table call is **reference counted** on entry and exit
(§5.1.1): a mode switch may only commit when the count is zero, which
guarantees no CPU is midway through mode-dependent code.  The
:func:`sensitive` decorator implements the counting and also charges the
pointer-indirection cost — the *entire* steady-state overhead Mercury adds
in native mode (measured at <2% in §7.3, reproduced in Fig. 3/4 benches).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import ConsistencyViolation
from repro.sim import scheduler as _sim

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.devices import BlockRequest, Packet
    from repro.hw.interrupts import Idt
    from repro.hw.paging import AddressSpace


@dataclass
class VoData:
    """The VO data table: global sensitive data (§5.3) — control-register
    images and descriptor tables, kept per-mode so a switch can reload
    them."""

    idt: Optional["Idt"] = None
    #: descriptor-privilege level of the kernel code/data segments: 0 in
    #: native mode, 1 in virtual mode (§5.1.2 item 2)
    kernel_segment_dpl: int = 0
    #: interrupt line -> (cpu, vector) bindings this mode uses
    irq_bindings: dict = field(default_factory=dict)


def sensitive(fn):
    """Mark a VO method as virtualization-sensitive code.

    Wraps the method with entry/exit reference counting and charges the
    function-table indirection cost to the issuing CPU.  The first
    positional argument of every sensitive method is the CPU doing the work.

    Under a running :class:`~repro.sim.scheduler.SimScheduler` the wrapper
    is also an interrupt window: before releasing the refcount it services
    timer deadlines that landed while the method ran.  A mode-switch
    request delivered there observes ``refcount >= 1`` — the genuine
    some-CPU-is-inside-sensitive-code race of §5.1.1 — and must retry.
    (The window sits *before* the release so the count still covers this
    call; it never sits before the entry, where a commit could swap the VO
    under an already-bound method.)
    """

    @functools.wraps(fn)
    def wrapper(self: "VirtualizationObject", cpu: "Cpu", *args, **kwargs):
        # ``charges_indirect`` is the class knob the N-L baseline clears.
        # The charge is a direct clock add — the cost is a constant, so
        # Cpu.charge's negative guard is dead weight here.
        if self.charges_indirect:
            cpu.clock.cycles += cpu.cost.cyc_vo_indirect
        self.refcount += 1
        self.entries += 1
        try:
            return fn(self, cpu, *args, **kwargs)
        finally:
            # preempt_point inlined: the no-scheduler guard is one global
            # load here instead of a call on every sensitive op
            sched = _sim._ACTIVE
            if sched is not None:
                sched.pump(cpu)
            if self.refcount <= 0:
                raise ConsistencyViolation("VO refcount underflow")
            self.refcount -= 1

    return wrapper


class VirtualizationObject:
    """Abstract VO: the unified interface of §4.2.

    Subclasses provide the native-mode implementation (direct hardware
    manipulation) and the virtual-mode implementation (hypercalls into the
    attached VMM).  Methods are grouped exactly as §5.3 groups them:
    sensitive CPU operations, sensitive memory operations, sensitive I/O
    operations, and kernel entry/exit paths.
    """

    mode_name = "abstract"
    #: True for paravirtual (de-privileged, VMM-mediated) implementations;
    #: mode-dependent kernel paths (fault penalties, pin-on-restore) key
    #: off this rather than string-matching mode_name
    is_virtual = False
    #: whether entering sensitive code charges the function-table
    #: indirection cost — every Mercury VO does; the unmodified-kernel
    #: baseline (``BareMetalVO``) clears it
    charges_indirect = True

    def __init__(self):
        self.data = VoData()
        self.refcount = 0
        self.entries = 0          # lifetime count of sensitive-code entries

    # -- reference counting (§5.1.1): the gate is :func:`sensitive` -------

    def busy(self) -> bool:
        """True while any CPU is executing inside this VO."""
        return self.refcount != 0

    # -- sensitive CPU operations -------------------------------------------

    def write_cr3(self, cpu: "Cpu", pgd_frame: int) -> None:
        raise NotImplementedError

    def load_idt(self, cpu: "Cpu", idt: "Idt") -> None:
        raise NotImplementedError

    def set_segment_dpl(self, cpu: "Cpu", dpl: int) -> None:
        raise NotImplementedError

    def irq_disable(self, cpu: "Cpu") -> None:
        raise NotImplementedError

    def irq_enable(self, cpu: "Cpu") -> None:
        raise NotImplementedError

    def stack_switch(self, cpu: "Cpu", to_task) -> None:
        """Switch kernel stacks during a context switch (under a VMM this
        is the ``stack_switch`` hypercall — the VMM must know the stack to
        push the next interrupt frame onto)."""
        raise NotImplementedError

    # -- kernel entry/exit paths ---------------------------------------------

    def kernel_entry(self, cpu: "Cpu") -> None:
        """User -> kernel transition (syscall/interrupt prologue)."""
        raise NotImplementedError

    def kernel_exit(self, cpu: "Cpu") -> None:
        """Kernel -> user transition (IRET/sysexit epilogue)."""
        raise NotImplementedError

    def fault_entry(self, cpu: "Cpu") -> None:
        """Hardware fault delivery into the kernel's fault handler."""
        raise NotImplementedError

    # -- sensitive memory operations -------------------------------------------

    def set_pte(self, cpu: "Cpu", aspace: "AddressSpace", vaddr: int,
                pte: int) -> None:
        raise NotImplementedError

    def clear_pte(self, cpu: "Cpu", aspace: "AddressSpace", vaddr: int) -> None:
        raise NotImplementedError

    def update_pte_flags(self, cpu: "Cpu", aspace: "AddressSpace",
                         pgd_idx: int, idxs, *,
                         writable: Optional[bool] = None,
                         cow: Optional[bool] = None) -> None:
        """Change the flags of leaf ``pgd_idx``'s entries at the leaf
        indices ``idxs`` (non-empty, in application order); an absent
        entry is skipped.  One sensitive call applies the entries one by
        one with exactly the effects of one call each: every entry after
        the first pays the charge and count the wrapper makes per call
        (:meth:`_next_entry`) before it is applied, so an entry that
        raises leaves the clock and the tables where per-entry calls
        would have.  The only difference is the preempt points between
        entries, so a caller batches a leaf only when none of them could
        service anything (see :meth:`_flag_update_cycles`)."""
        raise NotImplementedError

    def _flag_update_cycles(self, cpu: "Cpu", aspace: "AddressSpace"
                            ) -> Optional[int]:
        """Simulated cycles one :meth:`update_pte_flags` entry costs on
        ``aspace`` from ``cpu`` — the indirection included — when that is
        a constant, else None (the entry may trap, trace, sync or charge
        extra).  No side effects: the run-ahead rule
        (``Kernel.flag_leaf_runs_ahead``) asks before it batches a leaf.
        Not part of the sensitive surface: it changes no state."""
        return None

    def _indirect_cycles(self, cpu: "Cpu") -> int:
        """What the :func:`sensitive` wrapper charges per entry."""
        return cpu.cost.cyc_vo_indirect if self.charges_indirect else 0

    def _next_entry(self, cpu: "Cpu") -> None:
        """Open the next entry of a leaf-shaped call: the indirection
        charge and entry count the wrapper makes once per call."""
        cpu.clock.cycles += self._indirect_cycles(cpu)
        self.entries += 1

    def apply_pte_region(self, cpu: "Cpu", aspace: "AddressSpace",
                         leaves: list) -> None:
        """Apply a region write to one address space: ``leaves`` is
        ``[(pgd_idx, {idx: word-or-None})]`` in application order, each
        leaf once, a PTE word installing and None clearing a slot.  The
        bulk paths (fork's child tables, teardown, munmap, and mapping a
        frame run for an image, mmap populate or a balloon region) use
        this: a native kernel stores each leaf in one dict pass; a
        para-virtual kernel hands the region to the VMM as batched
        ``mmu_update`` multicalls."""
        raise NotImplementedError

    # -- lazy-MMU batching (Xen-Linux's lazy MMU mode) -------------------------

    def lazy_mmu_begin(self, cpu: "Cpu") -> None:
        """Open a lazy-MMU region: PTE updates issued until the matching
        :meth:`lazy_mmu_end` *may* be queued and applied as one batched
        ``mmu_update`` multicall.  Regions nest; only the outermost end
        flushes.  Native mode applies updates directly, so this is a no-op
        everywhere except the para-virtual direct-paging VO."""

    def lazy_mmu_end(self, cpu: "Cpu") -> None:
        """Close a lazy-MMU region, flushing any queued updates.  Calling
        it with no region open is a no-op (this happens when a mode switch
        drained and retired the region mid-flight)."""

    def lazy_mmu_flush(self, cpu: "Cpu") -> None:
        """Flush queued updates without closing the region.  Implicitly
        invoked on every operation that needs current page tables: CR3
        load, TLB flush/invlpg, fault entry, pin/unpin."""

    def lazy_mmu_drain(self, cpu: "Cpu") -> None:
        """Flush every CPU's queue and forcibly retire open regions.  The
        mode-switch engine calls this before a commit: queued state must be
        drained before the VO pointer swap (§4.3 consistency)."""

    def lazy_mmu_pending(self) -> int:
        """Number of queued-but-unapplied PTE updates across all CPUs."""
        return 0

    def new_address_space(self, cpu: "Cpu", aspace: "AddressSpace") -> None:
        """Register a freshly-built address space (virtual mode: pin it)."""
        raise NotImplementedError

    def destroy_address_space(self, cpu: "Cpu", aspace: "AddressSpace") -> None:
        raise NotImplementedError

    def flush_tlb(self, cpu: "Cpu") -> None:
        raise NotImplementedError

    def invlpg(self, cpu: "Cpu", vaddr: int) -> None:
        raise NotImplementedError

    # -- sensitive I/O operations ------------------------------------------------

    def bind_irq(self, cpu: "Cpu", line: str, cpu_id: int, vector: int) -> None:
        raise NotImplementedError

    def disk_submit(self, cpu: "Cpu", req: "BlockRequest") -> None:
        raise NotImplementedError

    def net_transmit(self, cpu: "Cpu", pkt: "Packet") -> None:
        raise NotImplementedError

    # ----------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} refcount={self.refcount} entries={self.entries}>"
