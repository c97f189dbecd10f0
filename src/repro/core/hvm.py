"""Hardware-assisted self-virtualization (the §8 extension, implemented).

The software Mercury relocates the OS by swapping virtualization objects
and re-validating every page-table page.  With VT-x-style hardware
(:mod:`repro.hw.vtx`) the same attach becomes:

1. ``vmxon`` + fill the VMCS guest-state area (one capture — replaces the
   piecewise state transfer of §5.1.2/§5.1.3);
2. build the EPT from frame ownership (a vectorized pass — replaces the
   page type/count recompute that dominated the 0.22 ms software switch);
3. ``vmentry`` — the OS continues de-privileged, its own page tables
   untouched and still writable (EPT provides the isolation).

Detach is ``vmexit`` + ``vmxoff`` + restoring the host area.

:class:`HvmMercury` exposes the same attach/detach surface as
:class:`~repro.core.mercury.Mercury`, so the ablation bench can compare
the two switch implementations directly.  The guest kernel keeps using a
*native* VO while attached — exactly the OS-transparency gain the paper
anticipated ("more clear and independent to OS evolutions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.native_vo import NativeVO
from repro.errors import ModeSwitchError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.vtx import EptTable, Vmcs, VtxUnit

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine


class HvmMode(enum.Enum):
    NATIVE = "native"
    GUEST = "guest"         # running de-privileged under VT-x + EPT


@dataclass
class HvmSwitchRecord:
    """One hardware-assisted mode switch, RDTSC-measured like §7.4."""

    direction: str          # "to_guest" | "to_native"
    start_tsc: int
    end_tsc: int
    ept_frames: int = 0

    @property
    def cycles(self) -> int:
        return self.end_tsc - self.start_tsc

    def us(self, freq_mhz: int = 3000) -> float:
        return self.cycles / freq_mhz


class HvmVO(NativeVO):
    """The VO an HVM guest uses: structurally the *native* object — direct
    page-table writes, direct descriptor loads — because EPT isolation and
    VMCS interception make paravirtual rewriting unnecessary.  Only the
    exit-controlled operations pay a VM exit."""

    mode_name = "hvm-guest"

    def __init__(self, machine: "Machine", vtx: VtxUnit):
        super().__init__(machine)
        self.vtx = vtx
        self.data.kernel_segment_dpl = 0  # the guest *believes* it is PL0

    def write_cr3(self, cpu, pgd_frame: int) -> None:
        # CR3 writes are exit-controlled: one vmexit + emulated load
        if self.vtx.current_vmcs is not None:
            self.vtx.vmexit("write_cr3")
            saved, cpu.pl = cpu.pl, PrivilegeLevel.PL0
            try:
                cpu.write_cr3(pgd_frame)
            finally:
                cpu.pl = saved
            self.vtx.current_vmcs.vmentries += 1
            cpu.charge(900)  # the re-entry
        else:
            super().write_cr3(cpu, pgd_frame)


class HvmMercury:
    """Self-virtualization through VT-x + EPT instead of paravirt."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.vtx_units = [VtxUnit(c) for c in machine.cpus]
        self.vmcs = Vmcs(vm_id=1)
        self.native_vo = NativeVO(machine)
        self.hvm_vo: Optional[HvmVO] = None
        self.ept: Optional[EptTable] = None
        self.kernel: Optional["Kernel"] = None
        self.mode = HvmMode.NATIVE
        self.records: list[HvmSwitchRecord] = []

    def create_kernel(self, name: str = "hvm-linux", owner_id: int = 0,
                      image_pages: int = 96) -> "Kernel":
        from repro.guestos.kernel import Kernel
        if self.kernel is not None:
            raise ModeSwitchError("HvmMercury already has a kernel")
        self.kernel = Kernel(self.machine, self.native_vo,
                             owner_id=owner_id, name=name)
        self.kernel.boot(image_pages=image_pages)
        self.ept = EptTable(self.machine.memory, owner_id)
        self.hvm_vo = HvmVO(self.machine, self.vtx_units[0])
        return self.kernel

    # ------------------------------------------------------------------

    def attach(self, cpu: Optional["Cpu"] = None) -> HvmSwitchRecord:
        """Native -> guest mode, hardware-assisted."""
        if self.mode is not HvmMode.NATIVE:
            raise ModeSwitchError(f"attach from {self.mode}")
        cpu = cpu or self.machine.boot_cpu
        start = cpu.rdtsc()

        # the switch runs in (simulated) interrupt context at PL0, exactly
        # like the software engine's handler
        unit = self.vtx_units[cpu.cpu_id]
        saved_pl, cpu.pl = cpu.pl, PrivilegeLevel.PL0
        try:
            unit.vmxon()
            # 1. one capture into the VMCS replaces piecewise transfer+reload
            self.vmcs.capture_guest(cpu)
            self.vmcs.guest.privilege_level = int(saved_pl)
            # 2. EPT build replaces the page type/count recompute
            frames = self.ept.build(cpu)
            # 3. enter the guest
            unit.vmentry(self.vmcs, self.ept)
        finally:
            cpu.pl = saved_pl
        self.kernel.vo = self.hvm_vo
        self.mode = HvmMode.GUEST

        rec = HvmSwitchRecord("to_guest", start, cpu.rdtsc(),
                              ept_frames=frames)
        self.records.append(rec)
        return rec

    def detach(self, cpu: Optional["Cpu"] = None) -> HvmSwitchRecord:
        """Guest -> native mode."""
        if self.mode is not HvmMode.GUEST:
            raise ModeSwitchError(f"detach from {self.mode}")
        cpu = cpu or self.machine.boot_cpu
        start = cpu.rdtsc()
        unit = self.vtx_units[cpu.cpu_id]
        saved_pl, cpu.pl = cpu.pl, PrivilegeLevel.PL0
        try:
            unit.vmexit("detach")
            unit.vmxoff()
        finally:
            cpu.pl = saved_pl
        self.kernel.vo = self.native_vo
        self.mode = HvmMode.NATIVE
        rec = HvmSwitchRecord("to_native", start, cpu.rdtsc())
        self.records.append(rec)
        return rec

    # ------------------------------------------------------------------

    def mean_switch_us(self, direction: str) -> Optional[float]:
        recs = [r for r in self.records if r.direction == direction]
        if not recs:
            return None
        freq = self.machine.config.cost.freq_mhz
        return sum(r.us(freq) for r in recs) / len(recs)

    def enable_dirty_logging(self) -> None:
        """Write-protect every guest frame in the EPT (migration's dirty
        tracking without touching guest page tables — the EPT benefit)."""
        if self.ept is None:
            raise ModeSwitchError("no EPT yet")
        import numpy as np
        self.ept.writable[:] = False

    def dirty_frames_and_reset(self) -> list[int]:
        """Frames whose protection tripped since logging was enabled
        (simulated via write-enable on first touch)."""
        import numpy as np
        owned = self.machine.memory.owner_np == self.ept.domain_id
        dirty = np.flatnonzero(owned & self.ept.writable)
        self.ept.writable[:] = False
        return [int(f) for f in dirty]
