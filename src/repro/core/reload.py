"""State reloading of hardware control state (§5.1.3).

When the execution mode changes, the *hardware* must be told: the page-table
base, the interrupt descriptor table, the global/local descriptor tables all
get reloaded, and the privilege level the interrupted kernel will return to
is edited in the interrupt return frame ("this is accomplished by modifying
the privileged level in the return stack of the interrupt").

Reloading must not be interrupted — it runs inside Mercury's switch
interrupt handler with interrupts disabled (the handler itself guarantees
that), and this module asserts it.

Split per-CPU: the control processor runs
:func:`reload_control_processor` (fixed VMM (de)activation cost + its own
registers); every other core runs :func:`reload_secondary` for its own
registers inside the SMP rendezvous (§5.4), so the cost parallelizes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import faults, trace
from repro.errors import ConsistencyViolation, ReloadFailure
from repro.hw.cpu import PrivilegeLevel

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu


def _reload_own_registers(cpu: "Cpu", kernel: "Kernel",
                          native_target: bool) -> None:
    """Reload this CPU's GDT/IDT/CR3 (must already be at an uninterruptible
    point)."""
    saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
    try:
        cpu.load_gdt(cpu.gdt)
        trace.instant(cpu.cpu_id, "reload.gdt")
        if native_target:
            # native mode: the guest IDT goes live (virtual mode leaves the
            # VMM's forwarding IDT installed by the transfer step)
            cpu.load_idt(kernel.idt)
            trace.instant(cpu.cpu_id, "reload.idt")
        current = kernel.scheduler.current
        if current is not None:
            cpu.write_cr3(current.aspace.pgd_frame)
            trace.instant(cpu.cpu_id, "reload.cr3")
        cpu.tlb.flush()
        trace.instant(cpu.cpu_id, "reload.tlb-flush")
    finally:
        cpu.pl = saved


def reload_control_processor(cpu: "Cpu", kernel: "Kernel",
                             target_kernel_pl: PrivilegeLevel) -> None:
    """The control processor's reload: VMM (de)activation bookkeeping plus
    its own register state.  Caller must hold interrupts disabled."""
    if cpu.interrupts_enabled:
        raise ConsistencyViolation(
            "state reloading entered with interrupts enabled")
    with trace.span(cpu.cpu_id, "reload.cp"):
        cpu.charge(cpu.cost.cyc_reload_fixed)
        _reload_own_registers(
            cpu, kernel,
            native_target=(target_kernel_pl == PrivilegeLevel.PL0))

        # the interrupt frame we will IRET through: return the kernel at its
        # new privilege level (§5.1.3's "privileged-level switch right after
        # a mode switch")
        if hasattr(cpu, "_iret_pl"):
            cpu._iret_pl = target_kernel_pl


def reload_secondary(cpu: "Cpu", kernel: "Kernel",
                     target_kernel_pl: PrivilegeLevel) -> None:
    """A secondary core's share of the reload, run from its rendezvous IPI
    handler."""
    if faults.fire(faults.RELOAD_SECONDARY, cpu_id=cpu.cpu_id):
        raise ReloadFailure(
            f"injected: cpu{cpu.cpu_id} failed its state reload")
    _reload_own_registers(cpu, kernel,
                          native_target=(target_kernel_pl == PrivilegeLevel.PL0))


def reload_secondary_rollback(cpu: "Cpu", kernel: "Kernel") -> None:
    """Undo a committed secondary reload after the switch failed elsewhere:
    the CPU's GDT, CR3 and TLB are reloaded again, outside the
    fault-injection seam (a rollback must be infallible, so a fault still
    armed at the reload site must not re-fire while unwinding).  The IDT
    is left alone: which IDT each CPU holds is put back by the IRQ-binding
    transfer's undo, which both directions journal before any secondary
    reloads and so runs after this one."""
    _reload_own_registers(cpu, kernel, native_target=False)
