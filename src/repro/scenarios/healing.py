"""Self-healing of operating systems (§6.2).

The healer watches the OS through the laws of the invariant registry
(:data:`repro.core.invariants.REGISTRY`); when one is broken, the OS is
self-virtualized into partial-virtual mode, the pre-cached VMM — which has
full control over the operating system — repairs the tainted state, and is
detached again.  No remote repair machine (the paper's contrast with
Backdoors-style healing) and no steady-state overhead.

:data:`REPAIRERS` maps each guest-OS law the healer can mend to its
repairer: scheduler runqueue damage, process-table inconsistencies,
filesystem metadata corruption, and frame reference-count skew.  Detection
is the registry entry's own check, so the laws ``check_all`` enforces are
exactly the ones the healer repairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.invariants import REGISTRY
from repro.core.mercury import Mercury, Mode
from repro.errors import HealingError
from repro.guestos.process import TaskState

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: cycles the VMM spends introspecting + repairing per detected anomaly
CYC_REPAIR = 60_000


@dataclass
class HealingRecord:
    sensor_name: str
    detected_at_cycles: int
    repair_cycles: int
    healed: bool


class SelfHealer:
    """Monitors a self-virtualized OS and heals it through the VMM.

    One detection loop covers both damage domains: guest-OS anomalies
    (the :data:`REPAIRERS` laws, repaired *through* the attached VMM) and
    VMM-structure corruption (the VMI watchdog's verdicts, repaired by
    microrebooting the VMM via :meth:`~repro.core.recovery.
    RecoveryManager.recover`).  Pre-install a watchdog and a recovery
    manager on the Mercury instance to enable the VMM half."""

    def __init__(self, mercury: Mercury):
        self.mercury = mercury
        self.history: list[HealingRecord] = []
        #: repairs per registry entry name
        self.fires: dict[str, int] = {}

    def scan(self, cpu: Optional["Cpu"] = None) -> list[HealingRecord]:
        """One monitoring pass: check every law in :data:`REPAIRERS`; heal
        each one that is broken.  The VMM is attached at most once per
        pass (§6.2: 'it incurs no performance degradation as the VMM is
        only required during system healing')."""
        mercury = self.mercury
        kernel = mercury.kernel
        cpu = cpu or mercury.machine.boot_cpu

        records = self._scan_vmm(cpu)
        broken = [name for name in REPAIRERS if _violated(name, mercury)]
        if not broken:
            return records

        was_native = mercury.mode is Mode.NATIVE
        if was_native:
            mercury.attach(cpu)
        vmm_records, records = records, []
        try:
            for name in broken:
                self.fires[name] = self.fires.get(name, 0) + 1
                t0 = mercury.machine.clock.cycles
                cpu.charge(CYC_REPAIR)
                REPAIRERS[name](kernel, cpu)
                healed = not _violated(name, mercury)
                records.append(HealingRecord(
                    sensor_name=name,
                    detected_at_cycles=t0,
                    repair_cycles=mercury.machine.clock.cycles - t0,
                    healed=healed))
                if not healed:
                    raise HealingError(
                        f"law {name!r} could not be repaired")
        finally:
            self.history.extend(records)
            if was_native and mercury.mode is not Mode.NATIVE:
                mercury.detach(cpu)
        return vmm_records + records

    def _scan_vmm(self, cpu: "Cpu") -> list[HealingRecord]:
        """The VMM half of the loop: one detect → microreboot step."""
        recovery = self.mercury.recovery
        record = recovery.recover(cpu=cpu) if recovery is not None else None
        if record is None:  # clean stack, or re-entrant during a recovery
            return []
        healing = HealingRecord(
            sensor_name=f"vmm:{record.invariant}",
            detected_at_cycles=record.detected_at,
            repair_cycles=record.mttr_cycles or 0,
            healed=record.success)
        self.history.append(healing)
        if not record.success:
            raise HealingError(
                f"VMM recovery for {record.invariant!r} failed: "
                f"{record.error}")
        return [healing]


# ---------------------------------------------------------------------------
# repairers, one per registry law the healer mends
# ---------------------------------------------------------------------------

def _repair_runqueue(kernel: "Kernel", cpu: "Cpu") -> None:
    seen = set()
    fixed = []
    for task in kernel.scheduler.runqueue:
        if task.state != TaskState.ZOMBIE and task.pid not in seen:
            fixed.append(task)
            seen.add(task.pid)
    kernel.scheduler.runqueue.clear()
    kernel.scheduler.runqueue.extend(fixed)


def _repair_proc_table(kernel: "Kernel", cpu: "Cpu") -> None:
    fixed = {}
    for pid, task in kernel.procs.tasks.items():
        task.pid = pid
        if task.parent is not None and \
                task.parent.pid not in kernel.procs.tasks:
            task.parent = None  # reparent to init semantics
        fixed[pid] = task
    kernel.procs.tasks = fixed


def _repair_fs(kernel: "Kernel", cpu: "Cpu") -> None:
    from repro.guestos.fs import BLOCK_SIZE
    for inode in kernel.fs.inodes.values():
        if inode.nlink < 1:
            inode.nlink = 1
        if inode.size > len(inode.blocks) * BLOCK_SIZE:
            inode.size = len(inode.blocks) * BLOCK_SIZE


def _repair_frame_refs(kernel: "Kernel", cpu: "Cpu") -> None:
    """Re-derive every COW share count from the live mappings; a frame
    nobody maps goes back to the allocator."""
    actual: dict[int, int] = {}
    for aspace in kernel.aspaces:
        for frame in aspace.mapped_frames():
            actual[frame] = actual.get(frame, 0) + 1
    leaked = [f for f in kernel.vmem.shares() if f not in actual]
    kernel.vmem.set_shares(actual)
    for frame in leaked:
        if kernel.machine.memory.owner_of(frame) == kernel.owner_id:
            kernel.machine.memory.free(frame)


#: registry entry name -> repairer, in scan order (history records keep it)
REPAIRERS: dict[str, Callable[["Kernel", "Cpu"], None]] = {
    "runqueue": _repair_runqueue,
    "proc-table": _repair_proc_table,
    "fs-metadata": _repair_fs,
    "frame-refs": _repair_frame_refs,
}

_CHECKS = {inv.name: inv.check for inv in REGISTRY if inv.name in REPAIRERS}


def _violated(name: str, mercury: Mercury) -> bool:
    """Does the registry law ``name`` report a violation?"""
    return any(_CHECKS[name](mercury))
