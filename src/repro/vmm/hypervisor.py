"""The VMM core: pre-caching, activation, trap handling, hypercall dispatch.

Lifecycle (§4.1, §4.4):

- ``COLD``: nothing resident.
- ``WARM``: the VMM has been *pre-cached* — its data structures are built
  and resident in reserved frames, but it does not control the hardware.
  This is Mercury's steady state in native mode.
- ``ACTIVE``: the VMM owns PL0.  Guests run de-privileged at PL1; their
  privileged instructions trap here; their page-table updates arrive as
  hypercalls; hardware interrupts land in the VMM's IDT and are forwarded
  to guests as events.

A conventional always-on Xen configuration is just ``warm_up(); activate()``
at boot — which is how the X-0/X-U baseline configurations are built.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.errors import DomainError, HypercallError, VMMError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.interrupts import Idt
from repro.vmm.domain import DOM0_ID, Domain, Vcpu
from repro.vmm.events import EventChannels
from repro.vmm.grants import GrantTable
from repro.vmm.hypercalls import HYPERCALL_TABLE
from repro.vmm.page_info import PageInfoTable
from repro.vmm.rings import IoStats
from repro.vmm.sched_credit import CreditScheduler

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine

#: identity the VMM uses as frame owner for its own reserved memory
VMM_OWNER = 1_000_000

#: frames the pre-cached VMM reserves for its own image + heap ("a VMM
#: occupies only a reasonably small chunk of memory", §4.1) — 16 MiB
VMM_RESERVED_FRAMES = 4096


class VmmState(enum.Enum):
    COLD = "cold"
    WARM = "warm"       # pre-cached, inactive
    ACTIVE = "active"


class Hypervisor:
    """A Xen-like VMM bound to one machine."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.state = VmmState.COLD
        self.page_info: Optional[PageInfoTable] = None
        self.events: Optional[EventChannels] = None
        self.grants: Optional[GrantTable] = None
        self.scheduler: Optional[CreditScheduler] = None
        self.domains: dict[int, Domain] = {}
        self._next_domid = DOM0_ID
        self._reserved_frames: list[int] = []
        self.idt = Idt(owner="vmm")
        #: gates that survive IDT rebuilds (Mercury's detach vector lives
        #: here — part of the VO-assistant, §4.4)
        self.extra_gates: dict[int, object] = {}
        self.hypercalls_served = 0
        self.traps_emulated = 0
        #: batched mmu_update accounting (lazy-MMU / apply_pte_region paths)
        self.mmu_batches = 0
        self.mmu_batched_updates = 0
        #: per-hypercall-name dispatch counts (perf tests assert the
        #: single-PTE update_va_mapping path stays cold)
        self.hypercall_counts: dict[str, int] = {}
        #: split-driver datapath counters, shared by every frontend/backend
        #: this hypervisor wires (notification avoidance, §5.2)
        self.io_stats = IoStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Pre-cache the VMM (§4.1): build all resident data structures.

        Done once at machine boot; afterwards attaching the VMM is cheap
        because only in-time execution context, page type/count info and
        interrupt bindings need (re)synchronizing."""
        if self.state != VmmState.COLD:
            raise VMMError(f"warm_up from state {self.state}")
        reserve = min(VMM_RESERVED_FRAMES, self.machine.memory.num_frames // 8)
        self._reserved_frames = self.machine.memory.alloc_many(VMM_OWNER, reserve)
        self.page_info = PageInfoTable(self.machine.memory)
        self.events = EventChannels()
        self.grants = GrantTable(self.machine.memory)
        self.scheduler = CreditScheduler()
        self.state = VmmState.WARM

    def activate(self) -> None:
        """Take control of the hardware: install trap interception on every
        CPU.  Page-info synchronization and IDT/GDT reloading are the mode
        switch's job (:mod:`repro.core.reload`); a from-boot Xen gets them
        for free because guests start out registered."""
        if self.state != VmmState.WARM:
            raise VMMError(f"activate from state {self.state}")
        for cpu in self.machine.cpus:
            cpu.trap_handler = self._handle_trap
        self.state = VmmState.ACTIVE

    def deactivate(self) -> None:
        """Release the hardware back to a native OS (mode switch to native).

        The page-info table goes stale at this instant — §5.1.2's central
        problem — and must be recomputed (or actively maintained) before the
        next activation."""
        if self.state != VmmState.ACTIVE:
            raise VMMError(f"deactivate from state {self.state}")
        for cpu in self.machine.cpus:
            cpu.trap_handler = None
        self.state = VmmState.WARM

    @property
    def active(self) -> bool:
        return self.state == VmmState.ACTIVE

    # ------------------------------------------------------------------
    # domains
    # ------------------------------------------------------------------

    def create_domain(self, name: str, num_vcpus: int = 1,
                      is_driver_domain: bool = False,
                      weight: float = 1.0,
                      domain_id: Optional[int] = None) -> Domain:
        """Create a domain.  ``domain_id`` may be forced so that a
        self-virtualizing OS keeps its frame-owner identity when it becomes
        the driver domain (Mercury attach path)."""
        if self.state == VmmState.COLD:
            raise VMMError("VMM not warmed up")
        if domain_id is None:
            domain_id = self._next_domid
        if domain_id in self.domains:
            raise DomainError(f"domain id {domain_id} already exists")
        domain = Domain(domain_id, name, num_vcpus, is_driver_domain)
        self._next_domid = max(self._next_domid, domain_id) + 1
        self.domains[domain.domain_id] = domain
        self.scheduler.add_domain(domain, weight)
        return domain

    def destroy_domain(self, domain: Domain) -> None:
        if domain.domain_id not in self.domains:
            raise DomainError(f"unknown domain {domain.domain_id}")
        # drop every page reference the dying domain held: its pinned page
        # tables (and through them its data-frame type counts) must not
        # survive as stale state that poisons later validations
        cpu = self.machine.boot_cpu
        for aspace in list(domain.aspaces):
            if aspace.pgd.frame in self.page_info.pinned:
                self.page_info.unpin_aspace(cpu, aspace)
        # and its grants end with it: the frames they name go back to the
        # allocator once the domain's memory is released
        for entry in self.grants.active_grants_of(domain.domain_id):
            entry.revoked = True
        self.scheduler.remove_domain(domain)
        self.events.close_domain(domain.domain_id)
        del self.domains[domain.domain_id]
        domain.destroy()

    # ------------------------------------------------------------------
    # hypercalls
    # ------------------------------------------------------------------

    def hypercall(self, cpu: "Cpu", domain: Domain, name: str, *args):
        """Dispatch one hypercall from ``domain`` running on ``cpu``."""
        return self.admit(cpu, name)(self, cpu, domain, *args)

    def admit(self, cpu: "Cpu", name: str):
        """Enter one hypercall: refuse it unless the VMM is active, charge
        the trap, count it and mark the trace.  Returns its handler."""
        if self.state != VmmState.ACTIVE:
            raise HypercallError(f"hypercall {name!r} while VMM {self.state}")
        try:
            fn = HYPERCALL_TABLE[name]
        except KeyError:
            raise HypercallError(f"unknown hypercall {name!r}") from None
        cpu.charge(cpu.cost.cyc_hypercall)
        self.hypercalls_served += 1
        counts = self.hypercall_counts
        counts[name] = counts.get(name, 0) + 1
        if trace._ACTIVE is not None:  # hot path: skip the hook call
            trace.instant(cpu.cpu_id, "hypercall", call=name)
        return fn

    # ------------------------------------------------------------------
    # trap interception (privileged instructions from PL1 guests)
    # ------------------------------------------------------------------

    def _handle_trap(self, cpu: "Cpu", what: str, args: tuple):
        """Emulate a trapped sensitive instruction (§3.1: interception of
        privileged instructions is mandatory and cannot be bypassed)."""
        cpu.charge(cpu.cost.cyc_emulate_privop)
        self.traps_emulated += 1
        if what == "write_cr3":
            (pgd_frame,) = args
            self._emulate_cr3_load(cpu, pgd_frame)
        elif what in ("cli", "sti"):
            # virtual interrupt flag lives in the vcpu, hardware IF stays
            # under VMM control
            vcpu = self._vcpu_of(cpu)
            if vcpu is not None:
                vcpu.saved_if = (what == "sti")
        elif what in ("lidt", "lgdt", "lldt"):
            pass  # guest descriptor tables are shadowed; nothing to do here
        else:
            raise HypercallError(f"VMM cannot emulate {what!r}")
        return None

    def _emulate_cr3_load(self, cpu: "Cpu", pgd_frame: int) -> None:
        if not self.page_info.is_pt_frame(pgd_frame):
            raise HypercallError(
                f"guest loaded CR3 with unvalidated frame {pgd_frame}")
        saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
        try:
            cpu.write_cr3(pgd_frame)
        finally:
            cpu.pl = saved

    def _vcpu_of(self, cpu: "Cpu") -> Optional[Vcpu]:
        # the VCPU currently bound to this physical CPU; with one running
        # guest per CPU the mapping is direct
        for domain in self.domains.values():
            for vcpu in domain.vcpus:
                if vcpu.vcpu_id == cpu.cpu_id and vcpu.runnable:
                    return vcpu
        return None

    # ------------------------------------------------------------------
    # interrupt forwarding
    # ------------------------------------------------------------------

    def install_idt_for(self, domain: Domain) -> None:
        """Point the hardware IDT at the VMM, with gates that forward each
        vector to ``domain``'s registered trap handlers.  Looks handlers up
        at delivery time so later ``set_trap_table`` calls take effect."""
        self.idt = Idt(owner="vmm")
        for vector in domain.trap_table:
            self.idt.set_gate(
                vector,
                lambda cpu, vec, _d=domain: self.forward_irq(cpu, _d, vec),
                handler_pl=0, name=f"vmm-fwd-{vector:#x}")
        for vector, handler in self.extra_gates.items():
            self.idt.set_gate(vector, handler, handler_pl=0,
                              name=f"vmm-extra-{vector:#x}")
        for cpu in self.machine.cpus:
            saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
            try:
                cpu.load_idt(self.idt)
            finally:
                cpu.pl = saved

    def forward_irq(self, cpu: "Cpu", domain: Domain, vector: int) -> None:
        """Deliver a hardware interrupt to a guest as an upcall: charge the
        VMM-mediated path and run the guest's registered trap handler.

        Network interrupts additionally pay the hypervisor's delivery
        latency (the dominant ping/iperf tax the paper measures); other
        vectors pay only the trap + event-channel CPU cost."""
        from repro.hw.interrupts import VEC_NET
        extra = (cpu.cost.cyc_vmm_irq_latency if vector == VEC_NET
                 else cpu.cost.cyc_event_channel)
        cpu.charge(cpu.cost.cyc_trap_roundtrip + extra)
        handler = domain.trap_table.get(vector)
        if handler is None:
            return  # guest has no handler; drop (Xen would log and drop)
        handler(cpu, vector)

    # ------------------------------------------------------------------
    # world switching (multiple domains per physical CPU)
    # ------------------------------------------------------------------

    def world_switch(self, cpu: "Cpu", from_vcpu: Optional[Vcpu],
                     to_vcpu: Vcpu) -> None:
        """Save one VCPU's context and load another's."""
        if from_vcpu is not None:
            from_vcpu.saved_cr3 = cpu.cr3
            from_vcpu.saved_if = cpu.interrupts_enabled
        cpu.charge(cpu.cost.cyc_sched_pick)
        if to_vcpu.saved_cr3 is not None:
            saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
            try:
                cpu.write_cr3(to_vcpu.saved_cr3)
            finally:
                cpu.pl = saved
