"""Failure-resistant mode switching (the §8 extension, implemented).

"We have not considered the case where the operating systems might have
already been in an incorrect state during the mode switch.  An OS not in a
correct state might make the mode switch fail.  Hence, a failure-resistant
mode switch will be necessary to improve the dependability of Mercury
itself."

:class:`FailsafeSwitch` wraps Mercury's attach/detach with:

1. **pre-switch validation** — the §6.2 sensor suite runs *before* the
   switch commits; a corrupted OS never enters the transfer functions in
   an undefined state;
2. **repair-then-retry** — with ``repair=True`` the detected anomalies are
   healed (using the sensors' repairers, under the still-consistent
   current mode) and the switch retried;
3. **rollback backstop** — the switch engine itself is transactional (its
   undo log in :class:`~repro.core.transfer.SwitchTransaction` unwinds a
   faulted transfer, with bounded backoff retries before a terminal
   :class:`~repro.errors.SwitchAborted`); if an error still escapes, this
   layer re-runs the idempotent unwind from a mode snapshot so even a
   failed *rollback* cannot strand the OS half-transferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.mercury import Mercury, Mode
from repro.errors import ModeSwitchError
from repro.scenarios.healing import Sensor, default_sensors

if TYPE_CHECKING:
    from repro.core.switch import SwitchRecord
    from repro.hw.cpu import Cpu


@dataclass
class FailsafeReport:
    """What one guarded switch did."""

    committed: bool
    anomalies_found: list[str] = field(default_factory=list)
    repaired: list[str] = field(default_factory=list)
    rolled_back: bool = False
    #: engine-level rollbacks observed during this guarded switch (the
    #: transactional unwinds of :mod:`repro.core.switch`)
    engine_rollbacks: int = 0
    record: Optional["SwitchRecord"] = None


class SwitchVetoed(ModeSwitchError):
    """The pre-switch validation refused to proceed."""

    def __init__(self, anomalies: list[str]):
        super().__init__(
            f"mode switch vetoed; OS state anomalies: {anomalies}")
        self.anomalies = anomalies


class FailsafeSwitch:
    """A guarded attach/detach around one Mercury instance."""

    def __init__(self, mercury: Mercury,
                 sensors: Optional[list[Sensor]] = None,
                 repair: bool = True):
        self.mercury = mercury
        self.sensors = sensors if sensors is not None else default_sensors()
        self.repair = repair
        self.history: list[FailsafeReport] = []

    # ------------------------------------------------------------------

    def attach(self, cpu: Optional["Cpu"] = None) -> FailsafeReport:
        return self._guarded(cpu, to_virtual=True)

    def detach(self, cpu: Optional["Cpu"] = None) -> FailsafeReport:
        return self._guarded(cpu, to_virtual=False)

    # ------------------------------------------------------------------

    def _guarded(self, cpu: Optional["Cpu"], to_virtual: bool) -> FailsafeReport:
        mercury = self.mercury
        kernel = mercury.kernel
        cpu = cpu or mercury.machine.boot_cpu
        report = FailsafeReport(committed=False)

        # 1. pre-switch validation (in the current, consistent mode)
        firing = [s for s in self.sensors if s.detect(mercury)]
        report.anomalies_found = [s.name for s in firing]
        if firing:
            if not self.repair:
                self.history.append(report)
                raise SwitchVetoed(report.anomalies_found)
            for sensor in firing:
                cpu.charge(cpu.cost.cyc_refcount_check)
                sensor.repair(kernel, cpu)
                if sensor.detect(mercury):
                    self.history.append(report)
                    raise SwitchVetoed([sensor.name])
                report.repaired.append(sensor.name)

        # 2. transactional commit (the engine retries transient faults with
        # backoff and unwinds its own undo log; we keep a snapshot so even
        # an escaped error lands back in a consistent mode)
        snapshot = self._mode_snapshot()
        rollbacks_before = mercury.engine.switch_rollbacks
        try:
            record = (mercury.attach(cpu) if to_virtual
                      else mercury.detach(cpu))
            report.record = record
            report.committed = record is not None
        except Exception:
            self._rollback(cpu, snapshot)
            report.rolled_back = True
            report.engine_rollbacks = (mercury.engine.switch_rollbacks
                                       - rollbacks_before)
            self.history.append(report)
            raise
        report.engine_rollbacks = (mercury.engine.switch_rollbacks
                                   - rollbacks_before)
        self.history.append(report)
        return report

    # ------------------------------------------------------------------
    # rollback machinery
    # ------------------------------------------------------------------

    def _mode_snapshot(self) -> dict:
        mercury = self.mercury
        return {
            "mode": mercury.mode,
            "vo": mercury.kernel.vo,
            "vmm_active": mercury.vmm.active,
            "dpl": mercury.kernel.vo.data.kernel_segment_dpl,
        }

    def _rollback(self, cpu: "Cpu", snapshot: dict) -> None:
        """Return to the pre-switch mode after a mid-transfer failure.

        A to-virtual attempt may have died at any point: page tables
        possibly transferred, segments possibly re-privileged, the VMM
        possibly activated.  Every unwind step below is idempotent, so we
        run them all regardless of how far the attempt got."""
        from repro.core import transfer
        from repro.core.reload import reload_control_processor
        from repro.hw.cpu import PrivilegeLevel

        mercury = self.mercury
        kernel = mercury.kernel
        mercury.mode = snapshot["mode"]
        kernel.vo = snapshot["vo"]

        if snapshot["mode"] is Mode.NATIVE:
            domain = mercury.ensure_domain()
            transfer.transfer_page_tables_to_native(cpu, kernel,
                                                    mercury.vmm, domain)
            transfer.transfer_segments(cpu, kernel, new_dpl=snapshot["dpl"])
            if mercury.vmm.active:
                mercury.vmm.deactivate()
            transfer.transfer_irq_bindings_to_native(cpu, kernel)
            saved, cpu.interrupts_enabled = cpu.interrupts_enabled, False
            try:
                reload_control_processor(cpu, kernel, PrivilegeLevel.PL0)
            finally:
                cpu.interrupts_enabled = saved
