"""The mode-switch engine (§5.1): interrupt-driven attach/detach.

A switch request raises one of the two dedicated self-virtualization
vectors (§5.1.3: "Mercury adds two interrupt handlers for mode switches").
The handler:

1. checks the VO reference count (§5.1.1) — if some CPU is inside
   virtualization-sensitive code the switch cannot commit, so a retry timer
   re-raises the request (10 ms initially, backing off exponentially) until
   the count reaches zero or the bounded retry budget runs out;
2. disables interrupts, runs the state-transfer functions (§5.1.2) and the
   hardware state reload (§5.1.3) — on SMP machines under the IPI
   rendezvous (§5.4);
3. swaps the kernel's VO pointer (§4.2's "relocation ... by changing the
   object pointer") and activates/deactivates the pre-cached VMM;
4. measures its own duration with RDTSC, exactly as §7.4 does.

The commit is **transactional**: every transfer step journals its inverse
in a :class:`~repro.core.transfer.SwitchTransaction`, so a fault raised
anywhere inside the pipeline (see :mod:`repro.faults`) unwinds exactly the
completed steps and the kernel lands back in its pre-switch mode.  A
transient fault is retried with exponential backoff; after
``max_retries`` the attempt terminally fails with
:class:`~repro.errors.SwitchAborted`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import faults, trace
from repro.core.accounting import AccountingStrategy
from repro.core.reload import (reload_control_processor, reload_secondary,
                               reload_secondary_rollback)
from repro.core.smp import RendezvousResult, SmpCoordinator
from repro.core import transfer
from repro.core.transfer import SwitchTransaction
from repro.errors import (HypercallError, ModeSwitchError, ReloadFailure,
                          RendezvousTimeout, SwitchAborted, TransferAborted)
from repro.hw.cpu import PrivilegeLevel
from repro.hw.interrupts import VEC_SV_ATTACH, VEC_SV_DETACH

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.hw.clock import TimerHandle
    from repro.hw.cpu import Cpu

#: initial retry period for a busy/faulted switch (§5.1.1: "every time
#: interval (e.g., every 10 ms)")
RETRY_PERIOD_MS = 10
#: each retry doubles the period ...
BACKOFF_FACTOR = 2
#: ... up to this ceiling
MAX_RETRY_BACKOFF_MS = 160
#: default bounded retry budget; exceeding it aborts the switch terminally
MAX_SWITCH_RETRIES = 8

#: mid-transfer failures the engine treats as transient (retry with
#: backoff); anything else rolls back and propagates immediately
TRANSIENT_ERRORS = (HypercallError, RendezvousTimeout, TransferAborted,
                    ReloadFailure)


class Direction(enum.Enum):
    TO_VIRTUAL = "to_virtual"
    TO_NATIVE = "to_native"


@dataclass
class SwitchRecord:
    """One committed mode switch, RDTSC-measured."""

    direction: Direction
    start_tsc: int
    end_tsc: int
    pt_pages: int = 0
    #: retries consumed by *this* switch (busy re-arms + fault re-arms)
    retries: int = 0
    #: rollbacks this switch survived before committing
    rollbacks: int = 0
    rendezvous: Optional[RendezvousResult] = None

    @property
    def cycles(self) -> int:
        return self.end_tsc - self.start_tsc

    def us(self, freq_mhz: int = 3000) -> float:
        return self.cycles / freq_mhz

    def ms(self, freq_mhz: int = 3000) -> float:
        return self.us(freq_mhz) / 1000.0


@dataclass
class PendingSwitch:
    """Book-keeping for one not-yet-committed switch request."""

    direction: Direction
    retries: int = 0
    rollbacks: int = 0
    #: errors observed across this attempt's failed commits
    errors: list = field(default_factory=list)


class ModeSwitchEngine:
    """Owns the switch interrupt handlers and the commit protocol."""

    def __init__(self, mercury: "Mercury"):
        self.mercury = mercury
        self.machine = mercury.machine
        self.smp = SmpCoordinator(self.machine)
        self.records: list[SwitchRecord] = []
        #: failed commits before the attempt aborts (a storm raises it)
        self.max_retries = MAX_SWITCH_RETRIES
        #: per-direction in-flight attempts (retry timers armed)
        self._pending: dict[Direction, PendingSwitch] = {}
        #: armed backoff timers, cancelled on commit/stale-drop so a retry
        #: never outlives the switch it was armed for (the PR-2 stale-timer
        #: bug class, closed structurally rather than by gate checks)
        self._retry_timers: dict[Direction, "TimerHandle"] = {}
        #: lifetime count of requests that found the VO busy
        self.failed_attempts = 0
        #: attempts unwound back to the pre-switch mode (mid-transfer
        #: faults *and* terminally-abandoned pending requests)
        self.switch_rollbacks = 0
        #: undo-log entries executed across all rollbacks
        self.rollback_steps = 0
        #: switches terminally aborted after the retry budget
        self.switch_aborts = 0
        #: committed-retry distribution: retries-consumed -> #switches
        self.retry_histogram: dict[int, int] = {}

    @property
    def pending_retries(self) -> int:
        """Retries consumed by attempts still in flight."""
        return sum(p.retries for p in self._pending.values())

    @property
    def total_retries(self) -> int:
        """Retries consumed by committed switches (histogram mass)."""
        return sum(retries * n for retries, n in self.retry_histogram.items())

    # ------------------------------------------------------------------
    # handler installation
    # ------------------------------------------------------------------

    def install_handlers(self) -> None:
        """Register both switch vectors in the guest IDT (live in native
        mode) and the detach vector additionally in the VMM's permanent
        gates (virtual mode, where the hardware IDT belongs to the VMM —
        the VO-assistant of §4.4).

        Both vectors must be deliverable in *both* modes: a backoff retry
        timer can outlive the mode it was armed in (e.g. a detach retry
        firing after the detach already committed), and a vector with no
        gate is a triple fault.  A stale delivery lands in :meth:`_handle`
        and is dropped there."""
        kernel = self.mercury.kernel
        kernel.idt.set_gate(VEC_SV_ATTACH, self._attach_handler,
                            handler_pl=0, name="sv-attach")
        kernel.idt.set_gate(VEC_SV_DETACH, self._detach_handler,
                            handler_pl=0, name="sv-detach")
        self.mercury.vmm.extra_gates[VEC_SV_DETACH] = self._detach_handler

    # ------------------------------------------------------------------
    # request entry points
    # ------------------------------------------------------------------

    def request(self, direction: Direction, cpu: Optional["Cpu"] = None) -> None:
        """Raise the switch interrupt; the handler does the rest when the
        machine polls."""
        cpu = cpu or self.machine.boot_cpu
        vector = (VEC_SV_ATTACH if direction is Direction.TO_VIRTUAL
                  else VEC_SV_DETACH)
        self.machine.intc.raise_vector(cpu.cpu_id, vector)
        self.machine.poll()

    def request_async(self, direction: Direction,
                      cpu: Optional["Cpu"] = None) -> None:
        """Raise the switch vector without polling.  Delivery happens at
        the machine's next interrupt window — which, under the simulation
        scheduler, is wherever the running workload happens to be.  This
        is how contended-switch scenarios land requests mid-syscall."""
        cpu = cpu or self.machine.boot_cpu
        vector = (VEC_SV_ATTACH if direction is Direction.TO_VIRTUAL
                  else VEC_SV_DETACH)
        self.machine.intc.raise_vector(cpu.cpu_id, vector)

    # ------------------------------------------------------------------
    # interrupt handlers
    # ------------------------------------------------------------------

    def _attach_handler(self, cpu: "Cpu", vector: int) -> None:
        self._handle(cpu, Direction.TO_VIRTUAL)

    def _detach_handler(self, cpu: "Cpu", vector: int) -> None:
        self._handle(cpu, Direction.TO_NATIVE)

    def _handle(self, cpu: "Cpu", direction: Direction) -> None:
        with trace.span(cpu.cpu_id, "switch.attempt",
                        direction=direction.value):
            self._handle_traced(cpu, direction)

    def _handle_traced(self, cpu: "Cpu", direction: Direction) -> None:
        mercury = self.mercury
        start_tsc = cpu.rdtsc()
        cpu.charge(cpu.cost.cyc_switch_interrupt)

        # a stale/duplicate request (e.g. a retry that raced an already-
        # committed switch) is dropped silently — switches are idempotent
        # per target mode
        if direction is Direction.TO_VIRTUAL and mercury.vmm.active and \
                mercury.kernel.vo is mercury.virtual_vo:
            self._pending.pop(direction, None)
            self._cancel_retry(direction)
            trace.instant(cpu.cpu_id, "switch.stale-drop")
            return
        if direction is Direction.TO_NATIVE and \
                mercury.kernel.vo is mercury.native_vo:
            self._pending.pop(direction, None)
            self._cancel_retry(direction)
            trace.instant(cpu.cpu_id, "switch.stale-drop")
            return

        # §5.1.1: only commit at refcount zero (a fault armed at the
        # refcount site simulates a CPU wedged inside sensitive code)
        with trace.span(cpu.cpu_id, "switch.quiesce"):
            cpu.charge(cpu.cost.cyc_refcount_check)
            busy = faults.fire(faults.REFCOUNT_STUCK, cpu_id=cpu.cpu_id) or \
                mercury.kernel.vo.busy()
        if busy:
            self.failed_attempts += 1
            trace.instant(cpu.cpu_id, "switch.busy",
                          refcount=mercury.kernel.vo.refcount)
            self._retry_or_abort(cpu, direction, cause=None)
            return

        attempt = self._pending.pop(direction, None)
        try:
            record = self._commit(cpu, direction, start_tsc, attempt)
        except TRANSIENT_ERRORS as exc:
            # _commit already rolled the machine back; arm a backoff retry
            # (or terminally abort once the budget is gone)
            if attempt is None:
                attempt = PendingSwitch(direction)
            attempt.rollbacks += 1
            attempt.errors.append(exc)
            self._pending[direction] = attempt
            self._retry_or_abort(cpu, direction, cause=exc)
            return
        self.records.append(record)
        self._cancel_retry(direction)
        trace.instant(cpu.cpu_id, "switch.committed",
                      direction=direction.value, cycles=record.cycles)
        retries = record.retries
        self.retry_histogram[retries] = \
            self.retry_histogram.get(retries, 0) + 1

    def _cancel_retry(self, direction: Direction) -> None:
        """Disarm any backoff timer still pending for ``direction``."""
        handle = self._retry_timers.pop(direction, None)
        if handle is not None:
            handle.cancel()

    def _retry_or_abort(self, cpu: "Cpu", direction: Direction,
                        cause: Optional[Exception]) -> None:
        """Bounded retry with exponential backoff; terminal SwitchAborted
        once the budget is exhausted."""
        attempt = self._pending.setdefault(direction,
                                           PendingSwitch(direction))
        if attempt.retries >= self.max_retries:
            self._pending.pop(direction, None)
            self._cancel_retry(direction)
            self.switch_aborts += 1
            if cause is None:
                # busy-abort: nothing was transferred, but the pending
                # request itself is unwound to the pre-switch state
                self.switch_rollbacks += 1
                cause = attempt.errors[-1] if attempt.errors else None
            trace.instant(cpu.cpu_id, "switch.abort",
                          direction=direction.value)
            raise SwitchAborted(direction, attempt.retries, cause)
        attempt.retries += 1
        delay_ms = min(
            RETRY_PERIOD_MS * BACKOFF_FACTOR ** (attempt.retries - 1),
            MAX_RETRY_BACKOFF_MS)
        trace.instant(cpu.cpu_id, "switch.retry-armed",
                      direction=direction.value, delay_ms=delay_ms)
        vector = (VEC_SV_ATTACH if direction is Direction.TO_VIRTUAL
                  else VEC_SV_DETACH)
        period_cycles = delay_ms * 1000 * cpu.cost.freq_mhz
        self._cancel_retry(direction)  # at most one armed timer per direction
        self._retry_timers[direction] = self.machine.clock.schedule(
            period_cycles,
            lambda: self.machine.intc.raise_vector(cpu.cpu_id, vector))

    # ------------------------------------------------------------------
    # the commit
    # ------------------------------------------------------------------

    def _commit(self, cpu: "Cpu", direction: Direction, start_tsc: int,
                attempt: Optional[PendingSwitch]) -> SwitchRecord:
        mercury = self.mercury
        kernel = mercury.kernel
        if direction is Direction.TO_VIRTUAL and mercury.vmm.active and \
                kernel.vo is mercury.virtual_vo:
            raise ModeSwitchError("already in virtual mode")
        if direction is Direction.TO_NATIVE and kernel.vo is mercury.native_vo:
            raise ModeSwitchError("already in native mode")

        with trace.span(cpu.cpu_id, "switch.commit",
                        direction=direction.value):
            # uninterruptible from here (the handler context already raised
            # us to PL0; we additionally mask)
            saved_if, cpu.interrupts_enabled = cpu.interrupts_enabled, False
            # flush-before-commit: queued lazy-MMU updates are
            # mode-dependent state (they assume hypercalls into the current
            # VMM); drain them before the VO pointer swap and refuse to
            # commit on a dirty queue
            with trace.span(cpu.cpu_id, "switch.lazy-drain"):
                kernel.vo.lazy_mmu_drain(cpu)
            if kernel.vo.lazy_mmu_pending():
                cpu.interrupts_enabled = saved_if
                raise ModeSwitchError(
                    "lazy-MMU queue not empty at mode-switch commit")
            pt_pages = 0
            txn = SwitchTransaction()
            try:
                try:
                    if direction is Direction.TO_VIRTUAL:
                        pt_pages, rendezvous = self._to_virtual(cpu, txn)
                    else:
                        pt_pages, rendezvous = self._to_native(cpu, txn)
                except BaseException:
                    # unwind the completed steps newest-first; interrupts
                    # are still masked here, which the reload undo requires
                    with trace.span(cpu.cpu_id, "switch.rollback"):
                        self.rollback_steps += txn.rollback(cpu)
                    self.switch_rollbacks += 1
                    raise
            finally:
                cpu.interrupts_enabled = saved_if
            end_tsc = cpu.rdtsc()

        # the committed mode is a property of the switch, not of whoever
        # requested it — deferred (retried) switches update it here
        from repro.core.mercury import Mode
        mercury.mode = (Mode.PARTIAL_VIRTUAL
                        if direction is Direction.TO_VIRTUAL else Mode.NATIVE)
        return SwitchRecord(direction=direction, start_tsc=start_tsc,
                            end_tsc=end_tsc, pt_pages=pt_pages,
                            retries=attempt.retries if attempt else 0,
                            rollbacks=attempt.rollbacks if attempt else 0,
                            rendezvous=rendezvous)

    def _to_virtual(self, cpu: "Cpu", txn: SwitchTransaction
                    ) -> tuple[int, Optional[RendezvousResult]]:
        mercury = self.mercury
        kernel = mercury.kernel
        vmm = mercury.vmm
        domain = mercury.ensure_domain()
        state = {"pt_pages": 0}

        def cp_work(cp: "Cpu") -> None:
            from repro.core.mercury import PagingMode
            if mercury.paging is PagingMode.SHADOW:
                # §3.2.2 shadow mode: translate every guest table into a
                # VMM-owned shadow instead of validating + pinning
                with trace.span(cp.cpu_id, "transfer.shadow-build"):
                    if faults.fire(faults.PT_TRANSFER_ABORT):
                        raise TransferAborted(
                            "injected: shadow build aborted before start")
                    for aspace in kernel.aspaces:
                        domain.register_aspace(aspace)
                    txn.did("register-aspaces",
                            lambda c: [domain.unregister_aspace(a)
                                       for a in list(domain.aspaces)])
                    state["pt_pages"] = mercury.pager.build_all(
                        cp, kernel.aspaces)
                    txn.did("shadow-build",
                            lambda c: mercury.pager.drop_all(c))
            else:
                state["pt_pages"] = transfer.transfer_page_tables_to_virtual(
                    cp, kernel, vmm, domain, mercury.strategy, txn=txn,
                    tracker=mercury.mmu_log)
            transfer.transfer_segments(cp, kernel, new_dpl=1, txn=txn)
            transfer.transfer_irq_bindings_to_virtual(cp, kernel, vmm, domain,
                                                      txn=txn)
            vmm.activate()
            trace.instant(cp.cpu_id, "vmm.activate")
            txn.did("vmm-activate", lambda c: vmm.deactivate())
            reload_control_processor(cp, kernel, PrivilegeLevel.PL1)
            txn.did("cp-reload",
                    lambda c: reload_control_processor(c, kernel,
                                                       PrivilegeLevel.PL0))
            old_vo = kernel.vo
            kernel.vo = mercury.virtual_vo
            trace.instant(cp.cpu_id, "switch.vo-swap", to="virtual")
            txn.did("vo-swap", lambda c: setattr(kernel, "vo", old_vo))
            if mercury.paging is PagingMode.SHADOW and \
                    kernel.scheduler.current is not None:
                # the hardware must run on the shadow root, not the guest's
                kernel.vo.write_cr3(
                    cp, kernel.scheduler.current.aspace.pgd_frame)

        rendezvous = self._run(cpu, cp_work, txn, PrivilegeLevel.PL1)
        return state["pt_pages"], rendezvous

    def _to_native(self, cpu: "Cpu", txn: SwitchTransaction
                   ) -> tuple[int, Optional[RendezvousResult]]:
        mercury = self.mercury
        kernel = mercury.kernel
        vmm = mercury.vmm
        domain = mercury.ensure_domain()
        state = {"pt_pages": 0}

        def cp_work(cp: "Cpu") -> None:
            from repro.core.mercury import PagingMode
            if mercury.paging is PagingMode.SHADOW:
                with trace.span(cp.cpu_id, "transfer.shadow-drop"):
                    if faults.fire(faults.PT_TRANSFER_ABORT):
                        raise TransferAborted(
                            "injected: shadow drop aborted before start")
                    mercury.pager.drop_all(cp)
                    txn.did("shadow-drop",
                            lambda c: mercury.pager.build_all(
                                c, kernel.aspaces))
                    for aspace in list(domain.aspaces):
                        domain.unregister_aspace(aspace)
                        txn.did(f"unregister-aspace-{aspace.pgd_frame}",
                                lambda c, a=aspace: domain.register_aspace(a))
                    state["pt_pages"] = sum(a.num_pt_pages()
                                            for a in kernel.aspaces)
            else:
                state["pt_pages"] = transfer.transfer_page_tables_to_native(
                    cp, kernel, vmm, domain, txn=txn,
                    tracker=mercury.mmu_log)
            transfer.transfer_segments(cp, kernel, new_dpl=0, txn=txn)
            vmm.deactivate()
            trace.instant(cp.cpu_id, "vmm.deactivate")
            txn.did("vmm-deactivate", lambda c: vmm.activate())
            transfer.transfer_irq_bindings_to_native(cp, kernel, txn=txn)
            reload_control_processor(cp, kernel, PrivilegeLevel.PL0)
            txn.did("cp-reload",
                    lambda c: reload_control_processor(c, kernel,
                                                       PrivilegeLevel.PL1))
            old_vo = kernel.vo
            kernel.vo = mercury.native_vo
            trace.instant(cp.cpu_id, "switch.vo-swap", to="native")
            txn.did("vo-swap", lambda c: setattr(kernel, "vo", old_vo))

        rendezvous = self._run(cpu, cp_work, txn, PrivilegeLevel.PL0)
        return state["pt_pages"], rendezvous

    def _run(self, cpu: "Cpu", cp_work, txn: SwitchTransaction,
             target_kernel_pl: PrivilegeLevel) -> Optional[RendezvousResult]:
        """Run ``cp_work`` on the control processor and, on SMP, every
        other core's reload (its undo journalled) under the rendezvous."""
        if len(self.machine.cpus) == 1:
            cp_work(cpu)
            return None
        kernel = self.mercury.kernel

        def secondary_work(c: "Cpu") -> None:
            reload_secondary(c, kernel, target_kernel_pl)
            txn.did(f"secondary-reload-cpu{c.cpu_id}",
                    lambda cp_, sec=c: reload_secondary_rollback(sec, kernel))

        return self.smp.coordinated_switch(cpu, cp_work, secondary_work)
