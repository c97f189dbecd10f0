"""State-transfer functions (§5.1.2): make virtualization-sensitive data
semantically equivalent in the target mode.

Three sets of kernel state move during a switch:

1. **Page-table pages** — read-only (pinned, validated) in virtual mode,
   writable in native mode.  Going virtual also requires the VMM's page
   type/count info to be correct: recomputed here (or trusted, under the
   ACTIVE strategy).
2. **Kernel segment privilege** — DPL 0 native, DPL 1 virtual; including
   the *stack-cached* copies in every suspended task's interrupt frame (the
   fixup stub of §5.1.2, without which the first IRET after a switch takes
   a general protection fault).
3. **Interrupt handlers and bindings** — the guest IDT drives the hardware
   directly in native mode; in virtual mode the hardware IDT is the VMM's
   and guest handlers are reached through its forwarding gates.

Every function takes an optional :class:`SwitchTransaction`: as each step
completes it journals an inverse operation, so a fault raised partway
through a switch (see :mod:`repro.faults`) unwinds exactly the completed
steps and the kernel lands back in a consistent pre-switch mode.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro import faults, trace
from repro.core.accounting import AccountingStrategy
from repro.errors import ConsistencyViolation, HypercallError, TransferAborted
from repro.hw.cpu import PrivilegeLevel

if TYPE_CHECKING:
    from repro.core.accounting import MmuAccounting
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu
    from repro.vmm.domain import Domain
    from repro.vmm.hypervisor import Hypervisor


class SwitchTransaction:
    """Undo log for one mode-switch attempt.

    Each completed transfer step registers the closure that reverses it;
    :meth:`rollback` runs them newest-first.  An undo closure must itself be
    infallible for state the simulator owns — if one raises anyway, the
    remaining entries still run and a :class:`ConsistencyViolation`
    surfaces afterwards (a failed unwind is a bug, not a recoverable
    condition)."""

    def __init__(self):
        self._undo: list[tuple[str, Callable[["Cpu"], None]]] = []

    def did(self, step: str, undo: Callable[["Cpu"], None]) -> None:
        """Journal one completed step and its inverse."""
        self._undo.append((step, undo))

    def rollback(self, cpu: "Cpu") -> int:
        """Unwind every journalled step, newest first; returns the number
        of undo entries executed."""
        errors: list[str] = []
        ran = 0
        while self._undo:
            step, undo = self._undo.pop()
            trace.instant(cpu.cpu_id, "rollback.step", step=step)
            try:
                undo(cpu)
            except Exception as exc:  # noqa: BLE001 - collected, re-raised
                errors.append(f"{step}: {exc!r}")
            ran += 1
        if errors:
            raise ConsistencyViolation(
                f"rollback itself failed: {errors}")
        return ran


def _fire_transfer_faults(processed: int) -> None:
    """The two injection seams every per-aspace transfer loop passes."""
    if faults.fire(faults.TRANSFER_HYPERCALL):
        raise HypercallError(
            "injected: transient hypercall failure during state transfer")
    if faults.fire(faults.PT_TRANSFER_ABORT):
        raise TransferAborted(
            f"injected: page-table transfer aborted after {processed} pages")


def transfer_page_tables_to_virtual(cpu: "Cpu", kernel: "Kernel",
                                    vmm: "Hypervisor", domain: "Domain",
                                    strategy: AccountingStrategy,
                                    txn: Optional[SwitchTransaction] = None,
                                    tracker: Optional["MmuAccounting"] = None
                                    ) -> int:
    """Hand the OS's page tables to the VMM: register every address space
    with the domain and make the page-info table correct.

    Under RECOMPUTE the table is normally rebuilt from scratch — the
    expensive, paper-default path.  When ``tracker`` still trusts the
    contributions it captured at the last detach, only roots dirtied (or
    created/destroyed) since then pay revalidation; the clean rest are
    merely re-pinned.  First attach, a table reset, or a rolled-back switch
    all force the full path.

    Returns the number of page-table pages processed (the dominant cost
    driver of the native→virtual switch, §7.4)."""
    processed = 0
    page_info = vmm.page_info
    with trace.span(cpu.cpu_id, "transfer.page-tables",
                    strategy=strategy.value):
        if strategy is AccountingStrategy.RECOMPUTE:
            if txn is not None:
                ck = tracker.checkpoint() if tracker is not None else None

                def undo_recompute(c: "Cpu") -> None:
                    # the wipe returns the table to native mode's "VMM lost
                    # track" rest state, which undoes a partial recompute
                    # and a partial incremental pass alike.  The tracker is
                    # restored exactly (no phantom-clean roots) but
                    # distrusted, so the retry takes the full path against
                    # the now-wiped table.
                    page_info.reset()
                    if tracker is not None:
                        tracker.restore(ck)
                        tracker.distrust()

                txn.did("pageinfo-recompute", undo_recompute)
            if tracker is not None and tracker.can_trust(page_info):
                processed = _revalidate_incremental(cpu, kernel, vmm, domain,
                                                    txn, tracker)
            else:
                # full re-validation from scratch
                page_info.reset()
                if tracker is not None:
                    tracker.full_recomputes += 1
                for aspace in kernel.aspaces:
                    _fire_transfer_faults(processed)
                    domain.register_aspace(aspace)
                    if txn is not None:
                        txn.did(f"register-aspace-{aspace.pgd_frame}",
                                lambda c, a=aspace: domain.unregister_aspace(a))
                    page_info.validate_pgd(cpu, aspace, domain.domain_id)
                    processed += aspace.num_pt_pages()
                if tracker is not None:
                    tracker.consume()
        else:
            # ACTIVE: counts were maintained from native mode; only the pin
            # markers and a light re-protection pass are needed
            for aspace in kernel.aspaces:
                _fire_transfer_faults(processed)
                domain.register_aspace(aspace)
                if txn is not None:
                    txn.did(f"register-aspace-{aspace.pgd_frame}",
                            lambda c, a=aspace: domain.unregister_aspace(a))
                added: list[int] = []
                for pt in aspace.pt_pages():
                    cpu.charge(cpu.cost.cyc_transfer_per_pt_page)
                    if page_info.pin_frame(pt.frame):
                        added.append(pt.frame)
                if txn is not None and added:
                    txn.did(f"pin-aspace-{aspace.pgd_frame}",
                            lambda c, fr=tuple(added):
                            page_info.unpin_frames(fr))
                processed += aspace.num_pt_pages()
    return processed


def _revalidate_incremental(cpu: "Cpu", kernel: "Kernel", vmm: "Hypervisor",
                            domain: "Domain", txn: Optional[SwitchTransaction],
                            tracker: "MmuAccounting") -> int:
    """The incremental attach recompute: subtract the captured contribution
    of every root that died while native, revalidate dirty/new roots, and
    re-pin the clean rest whose column state is still exact.

    Per-page work is charged at the transfer re-protection rate
    (``cyc_transfer_per_pt_page``) for trusted and subtracted roots — the
    same light pass the detach direction pays — while only revalidated
    roots pay the full-width ``validate_pgd`` scans."""
    page_info = vmm.page_info
    per_pt = cpu.cost.cyc_transfer_per_pt_page
    processed = 0
    n_dead = len(tracker.dead)
    for contrib in tracker.dead.values():
        cpu.charge(per_pt * contrib.num_pt_pages())
        page_info.subtract_root(contrib)
    dirty = tracker.dirty
    contributions = tracker.contributions
    trusted = revalidated = 0
    for aspace in kernel.aspaces:
        _fire_transfer_faults(processed)
        domain.register_aspace(aspace)
        if txn is not None:
            txn.did(f"register-aspace-{aspace.pgd_frame}",
                    lambda c, a=aspace: domain.unregister_aspace(a))
        contrib = contributions.get(aspace.pgd.frame)
        if contrib is not None and aspace.pgd.frame not in dirty:
            # clean root: detach removed only the pin marks, so the columns
            # already hold exactly what a full validation would rebuild
            cpu.charge(per_pt * contrib.num_pt_pages())
            page_info.repin_root(contrib)
            trusted += 1
        else:
            if contrib is not None:
                # dirtied since capture: drop the stale contribution first,
                # then validate the current structure from scratch
                cpu.charge(per_pt * contrib.num_pt_pages())
                page_info.subtract_root(contrib)
            page_info.validate_pgd(cpu, aspace, domain.domain_id)
            revalidated += 1
        processed += aspace.num_pt_pages()
    tracker.roots_trusted += trusted
    tracker.roots_revalidated += revalidated
    tracker.consume()
    trace.instant(cpu.cpu_id, "transfer.pt-incremental",
                  trusted=trusted, revalidated=revalidated, dead=n_dead)
    return processed


def transfer_page_tables_to_native(cpu: "Cpu", kernel: "Kernel",
                                   vmm: "Hypervisor", domain: "Domain",
                                   txn: Optional[SwitchTransaction] = None,
                                   tracker: Optional["MmuAccounting"] = None
                                   ) -> int:
    """Give the page tables back to the OS: unpin (make writable again) and
    unregister.  The page-info table is left as-is; it is stale from this
    moment (unless the ACTIVE accountant keeps it warm).

    When a ``tracker`` is present, the sweep also captures each pinned
    root's exact column contribution so the *next* attach can trust
    untouched roots (§5.1.2 made incremental).  The capture itself charges
    nothing: in a real kernel the page-info table simply persists — walking
    the structures here is a modeling artifact riding the per-page
    re-protection charge this loop already pays."""
    processed = 0
    page_info = vmm.page_info
    ck = tracker.checkpoint() if tracker is not None else None

    def _restore_tracker(c: "Cpu") -> None:
        # folded into the existing per-aspace undo closures (rollback runs
        # them newest-first, and restoring the same checkpoint twice is
        # idempotent) so the undo-log step names — and with them the golden
        # rollback traces — stay exactly as before
        if tracker is not None:
            tracker.restore(ck)

    with trace.span(cpu.cpu_id, "transfer.page-tables"):
        pinned_roots = [a for a in kernel.aspaces
                        if page_info.is_pinned(a.pgd.frame)]
        for aspace in list(kernel.aspaces):
            _fire_transfer_faults(processed)
            unpinned: list[int] = []
            for pt in aspace.pt_pages():
                cpu.charge(cpu.cost.cyc_transfer_per_pt_page)
                if page_info.unpin_frame(pt.frame):
                    unpinned.append(pt.frame)
                processed += 1
            if txn is not None and unpinned:
                def undo_unpin(c: "Cpu", fr=tuple(unpinned)) -> None:
                    _restore_tracker(c)
                    page_info.pin_frames(fr)
                txn.did(f"unpin-aspace-{aspace.pgd_frame}", undo_unpin)
            if aspace in domain.aspaces:
                domain.unregister_aspace(aspace)
                if txn is not None:
                    def undo_unregister(c: "Cpu", a=aspace) -> None:
                        _restore_tracker(c)
                        domain.register_aspace(a)
                    txn.did(f"unregister-aspace-{aspace.pgd_frame}",
                            undo_unregister)
        if tracker is not None:
            tracker.capture_at_detach(pinned_roots, page_info)
    return processed


def transfer_segments(cpu: "Cpu", kernel: "Kernel", new_dpl: int,
                      txn: Optional[SwitchTransaction] = None) -> int:
    """Re-privilege the kernel segments and fix every stack-cached selector
    (§5.1.2: 'a code stub to check and fix the cached segment selectors').

    Returns the number of task frames fixed."""
    with trace.span(cpu.cpu_id, "transfer.segments"):
        if txn is not None:
            old_dpl = kernel.vo.data.kernel_segment_dpl
            txn.did(f"segments-dpl{new_dpl}",
                    lambda c: transfer_segments(c, kernel, new_dpl=old_dpl))
        for c in kernel.machine.cpus:
            for desc in c.gdt.values():
                if desc.name.startswith("kernel"):
                    desc.dpl = new_dpl
        # NOTE: each VO's data table is mode-constant (NativeVO: DPL 0,
        # VirtualVO: DPL 1) — the switch installs the other object rather
        # than mutating this one, so nothing to update here beyond the
        # hardware.

        fixed = 0
        for task in kernel.procs.live_tasks():
            if task.stack_cached_selector_dpl is not None and \
                    task.stack_cached_selector_dpl != new_dpl:
                cpu.charge(cpu.cost.cyc_iret_fixup)
                task.stack_cached_selector_dpl = new_dpl
                fixed += 1
    return fixed


def _snapshot_idts(kernel: "Kernel") -> dict[int, object]:
    return {c.cpu_id: c.idt_base for c in kernel.machine.cpus}


def _restore_idts(kernel: "Kernel", old_idts: dict[int, object]) -> None:
    """Put back *exactly* the per-CPU hardware IDTs a failed switch found —
    including 'never loaded' on an AP that hasn't switched yet.  An undo
    must not re-derive which IDT is correct; it restores what was there."""
    for c in kernel.machine.cpus:
        prev = old_idts[c.cpu_id]
        saved, c.pl = c.pl, PrivilegeLevel.PL0
        try:
            if prev is not None:
                c.load_idt(prev)
            else:
                c.idt_base = None
        finally:
            c.pl = saved


def transfer_irq_bindings_to_virtual(cpu: "Cpu", kernel: "Kernel",
                                     vmm: "Hypervisor", domain: "Domain",
                                     txn: Optional[SwitchTransaction] = None
                                     ) -> None:
    """Move interrupt delivery under the VMM: register the guest's handlers
    as the domain trap table and install the VMM's forwarding IDT."""
    with trace.span(cpu.cpu_id, "transfer.irq-bindings"):
        if txn is not None:
            old_table = domain.trap_table
            old_idts = _snapshot_idts(kernel)

            def undo(c: "Cpu") -> None:
                domain.trap_table = old_table
                _restore_idts(kernel, old_idts)

            txn.did("irq-to-virtual", undo)
        table = {vec: entry.handler
                 for vec, entry in kernel.idt.gates.items()}
        domain.trap_table = table
        cpu.charge(cpu.cost.cyc_privop_native * max(1, len(table)))
        vmm.install_idt_for(domain)


def transfer_irq_bindings_to_native(cpu: "Cpu", kernel: "Kernel",
                                    txn: Optional[SwitchTransaction] = None
                                    ) -> None:
    """Point the hardware back at the guest's own IDT.  The journalled
    undo restores the captured per-CPU IDTs rather than re-deriving the
    forwarding IDT."""
    with trace.span(cpu.cpu_id, "transfer.irq-bindings"):
        if txn is not None:
            old_idts = _snapshot_idts(kernel)
            txn.did("irq-to-native",
                    lambda c: _restore_idts(kernel, old_idts))
        cpu.charge(cpu.cost.cyc_privop_native * max(1, len(kernel.idt.gates)))
        for c in kernel.machine.cpus:
            saved, c.pl = c.pl, PrivilegeLevel.PL0
            try:
                c.load_idt(kernel.idt)
            finally:
                c.pl = saved
