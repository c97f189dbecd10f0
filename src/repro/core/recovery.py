"""ReHype-style VMM-fault recovery: microreboot the hypervisor under the OS.

ReHype (PAPERS.md) showed that a hypervisor failure need not take down its
guests: the hypervisor can be microrebooted *in place* while guest memory
images survive, and the new instance re-derives its state from the guests.
Mercury is unusually well positioned for this trick — the VMM is already
designed to come and go underneath the running OS, so "reboot the VMM"
decomposes into operations the switch pipeline already has:

1. **Emergency detach** (:meth:`RecoveryManager.emergency_detach`): put
   the OS back on bare hardware *without trusting anything the corrupt
   VMM owns*.  The normal detach path recomputes page-info state, drains
   event channels and asks the VMM to unpin tables; the emergency path
   must not — a poisoned grant table or corrupt page-info column would
   propagate into the "recovered" state.  Instead it reuses the two
   state-transfer steps that only touch *guest-owned* structures
   (:func:`~repro.core.transfer.transfer_segments`,
   :func:`~repro.core.transfer.transfer_irq_bindings_to_native`), reloads
   every CPU's control registers, and marks the incremental-attach
   accounting distrusted (the same
   :meth:`~repro.core.accounting.MmuAccounting.distrust` path a failed
   switch rollback takes), forcing the next attach to recompute from the
   guest's page tables — the only surviving source of truth.
2. **Re-precache**: throw the corrupt VMM away wholesale (free its
   reserved frames) and build a fresh one with
   :func:`~repro.core.precache.precache_vmm` — a microreboot, not a
   repair.  Nothing from the old instance is consulted.  Under ACTIVE
   accounting, whose attach trusts the page-info counts, the fresh
   table's counts are replayed from the OS's live address spaces.
3. **Re-attach**: a normal :meth:`~repro.core.mercury.Mercury.attach`
   through the switch engine — the incremental recompute path sees the
   distrust mark and re-derives the page-info table from scratch.
4. **Re-host guests**: hosted guest kernels keep their memory image,
   processes and file state (they are never re-booted); each gets a fresh
   domain, a fresh VO, re-registered/re-pinned address spaces, a restored
   trap table and its split-driver rings re-connected through Mercury's one
   wiring path — same address, same balloon — exactly ReHype's "recover
   hypervisor state from guest state".

Each incident is timed detection → resumed as an MTTR trace span
(``recovery.microreboot`` wrapping ``recovery.emergency-detach`` /
``recovery.re-precache`` / ``recovery.re-attach``) and recorded in
:attr:`RecoveryManager.incidents` for the chaos campaign's percentiles.

Re-entrancy: ``recover`` and ``emergency_detach`` are idempotent.  A
second emergency detach while one is in flight (or after the stack is
already native) is a no-op — the watchdog, the self-healer and a panicky
caller may all race to trigger recovery without compounding the damage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.core.accounting import ActiveAccountant
from repro.core.precache import precache_vmm
from repro.core.reload import _reload_own_registers, reload_control_processor
from repro.core.switch import Direction
from repro.core.transfer import (transfer_irq_bindings_to_native,
                                 transfer_segments)
from repro.errors import RecoveryError, VmmCorruption
from repro.hw.cpu import PrivilegeLevel

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.hw.cpu import Cpu

#: cycle cost of the emergency re-precache (≈1 ms at 3 GHz): building the
#: fresh VMM image is charged as one lump, standing in for the boot work
#: the normal pre-cache does at machine boot (§4.1) — an emergency cannot
#: hide it there
CYC_EMERGENCY_REPRECACHE = 3_000_000


class RecoveryRecord:
    """One recovery incident, detection to resumption."""

    __slots__ = ("invariant", "detail", "detected_at", "completed_at",
                 "success", "guests_rehosted", "error")

    def __init__(self, invariant: str, detail: str, detected_at: int):
        self.invariant = invariant
        self.detail = detail
        self.detected_at = detected_at
        self.completed_at: Optional[int] = None
        self.success = False
        self.guests_rehosted = 0
        self.error: Optional[str] = None

    @property
    def mttr_cycles(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.detected_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RecoveryRecord({self.invariant!r}, "
                f"mttr={self.mttr_cycles}, success={self.success})")


class RecoveryManager:
    """Owns the detect → microreboot → resume pipeline for one stack."""

    def __init__(self, mercury: "Mercury"):
        self.mercury = mercury
        self.machine = mercury.machine
        self.incidents: list[RecoveryRecord] = []
        self.recoveries = 0
        self.recovery_failures = 0
        self.emergency_detaches = 0
        self._in_progress = False
        mercury.recovery = self

    @property
    def in_progress(self) -> bool:
        return self._in_progress

    # ------------------------------------------------------------------
    # the full pipeline
    # ------------------------------------------------------------------

    def recover(self, verdict: Optional[VmmCorruption] = None,
                cpu: Optional["Cpu"] = None) -> Optional[RecoveryRecord]:
        """The one detect → recover step: microreboot for one verdict.

        With no ``verdict``, consumes the watchdog's pending verdict, or
        runs one scan if none is pending.  Returns the incident record;
        None on a clean stack, and None when called re-entrantly (a
        recovery is already running) — the idempotence contract.
        """
        if self._in_progress:
            return None
        mercury = self.mercury
        watchdog = mercury.watchdog
        cpu = cpu or self.machine.boot_cpu
        if verdict is None and watchdog is not None:
            verdict = watchdog.take_verdict() or watchdog.scan(cpu)
        if verdict is None:
            return None
        detected_at = getattr(verdict, "detected_cycles",
                              self.machine.clock.cycles)
        record = RecoveryRecord(verdict.invariant, verdict.detail, detected_at)
        self.incidents.append(record)
        self._in_progress = True
        try:
            with trace.span(cpu.cpu_id, "recovery.microreboot",
                            invariant=verdict.invariant):
                with trace.span(cpu.cpu_id, "recovery.emergency-detach"):
                    saved = self.emergency_detach(cpu)
                with trace.span(cpu.cpu_id, "recovery.re-precache"):
                    self._microreboot(cpu)
                with trace.span(cpu.cpu_id, "recovery.re-attach"):
                    switch = mercury.attach(cpu)
                    if switch is None:
                        raise RecoveryError(
                            "re-attach did not commit after microreboot")
                record.guests_rehosted = self._rehost_guests(cpu, saved)
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            self.recovery_failures += 1
            record.completed_at = self.machine.clock.cycles
            raise
        else:
            record.success = True
            record.completed_at = self.machine.clock.cycles
            self.recoveries += 1
        finally:
            self._in_progress = False
            if watchdog is not None:
                # the verdict that triggered us is resolved; stale repeats
                # must not trigger a second microreboot
                watchdog.pending_verdict = None
                watchdog._suspects.clear()
        return record

    # ------------------------------------------------------------------
    # stage 1: emergency detach (distrusts all VMM state)
    # ------------------------------------------------------------------

    def emergency_detach(self, cpu: Optional["Cpu"] = None) -> list:
        """Force the OS back to native without consulting the VMM.

        Returns the wiring records of the hosted guests stripped from the
        stack (so a full recovery can re-host them).  A no-op returning
        ``[]`` when the kernel is already on the native VO — calling it
        twice is safe.
        """
        mercury = self.mercury
        kernel = mercury.kernel
        if kernel is None or kernel.vo is mercury.native_vo:
            return []
        cpu = cpu or self.machine.boot_cpu
        self.emergency_detaches += 1

        # silence the switch engine: a half-retried attach/detach against
        # the corrupt VMM must not fire mid-recovery
        engine = mercury.engine
        for direction in Direction:
            engine._cancel_retry(direction)
        engine._pending.clear()

        # strip hosted guests — their kernels (memory image, processes,
        # files) survive; their VMM-side shells and split-driver pairs die
        # with the VMM.  Each record keeps its old balloon frontend (pool +
        # region bookkeeping), guest-owned state the re-host transplants
        # into a fresh pair.  Dom0's own balloon is dropped, not re-hosted.
        saved = [mercury.unwire(guest) for guest in mercury.guests]
        if kernel.owner_id in mercury.balloons:
            mercury.unwire(kernel)

        # guest-owned state only: re-privilege segments, point the
        # hardware back at the kernel's own IDT, reload every CPU
        transfer_segments(cpu, kernel, new_dpl=0)
        saved_if, cpu.interrupts_enabled = cpu.interrupts_enabled, False
        try:
            transfer_irq_bindings_to_native(cpu, kernel)
            reload_control_processor(cpu, kernel, PrivilegeLevel.PL0)
            for other in self.machine.cpus:
                if other is not cpu:
                    # never the fault-injection seam: an emergency detach,
                    # like a rollback, must be infallible
                    _reload_own_registers(other, kernel, native_target=True)
        finally:
            cpu.interrupts_enabled = saved_if

        if mercury.vmm.active:
            mercury.vmm.deactivate()
        kernel.vo = mercury.native_vo
        from repro.core.mercury import Mode
        mercury.mode = Mode.NATIVE
        if mercury.mmu_log is not None:
            # the distrust-after-rollback path: nothing the corrupt VMM
            # validated may seed the next attach's incremental recompute
            mercury.mmu_log.distrust()
        trace.instant(cpu.cpu_id, "recovery.detached", guests=len(saved))
        return saved

    # ------------------------------------------------------------------
    # stage 2: microreboot — discard and re-precache the VMM
    # ------------------------------------------------------------------

    def _microreboot(self, cpu: "Cpu") -> None:
        from repro.vmm.hypervisor import VMM_OWNER
        mercury = self.mercury
        memory = self.machine.memory
        memory.free_many(memory.frames_owned_by(VMM_OWNER).tolist())
        cpu.charge(CYC_EMERGENCY_REPRECACHE)
        new_vmm, info = precache_vmm(self.machine, charge_boot_time=False)
        mercury.vmm = new_vmm
        mercury.precache_info = info
        mercury.domain = None
        mercury.virtual_vo = None
        if mercury.accountant is not None:
            # ACTIVE attach trusts the table's counts: rebuild them from
            # the OS's live address spaces, or the fresh table is empty
            mercury.accountant = ActiveAccountant(new_vmm.page_info)
            mercury.accountant.replay(cpu, mercury.kernel.aspaces)
            mercury.native_vo.accountant = mercury.accountant
        mercury.pager = None
        # re-register the switch-request gates on the fresh VMM
        mercury.engine.install_handlers()

    # ------------------------------------------------------------------
    # stage 3: re-host surviving guests (ReHype's state re-derivation)
    # ------------------------------------------------------------------

    def _rehost_guests(self, cpu: "Cpu", saved: list) -> int:
        mercury = self.mercury
        vmm = mercury.vmm
        for record in saved:
            guest = record.kernel
            old_domain = getattr(guest.vo, "domain", None)
            domain = mercury.guest_shell(guest.name, guest).vo.domain
            # the guest's registered handlers survive in its own IDT;
            # rebuild the domain trap table from them
            domain.trap_table = {vec: entry.handler
                                 for vec, entry in guest.idt.gates.items()}
            # re-derive VMM page-info state from the guest's live address
            # spaces — validation is charged to the recovering CPU, it is
            # part of the MTTR
            aspaces = list(old_domain.aspaces) if old_domain is not None \
                else []
            for aspace in aspaces:
                domain.register_aspace(aspace)
                vmm.page_info.validate_pgd(cpu, aspace, domain.domain_id)
            mercury.wire(record)
            trace.instant(cpu.cpu_id, "recovery.guest-rehosted",
                          guest=guest.name)
        return len(saved)
