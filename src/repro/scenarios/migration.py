"""Live migration with iterative pre-copy (the Clark et al. algorithm the
paper cites as [39]; the primitive behind §6.3 online maintenance and §6.5
HPC availability).

Rounds: push every guest frame across the wire while the guest keeps
running (a mutator callback models that); frames dirtied during a round are
re-sent in the next; when the dirty set stops shrinking (or a round budget
is hit), the guest is paused for a brief stop-and-copy of the remainder and
its execution context — that pause is the measured *downtime*.

Dirty logging rides on :attr:`PhysicalMemory.generation`, the simulator's
per-frame write counter — the stand-in for the shadow-mode dirty bitmap a
real VMM keeps.  Device handling follows §5.2: disk state is assumed shared
(networked storage); network frontends are *re-created* on the target after
the migration completes rather than decoupled before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.mercury import Mercury, Mode
from repro.errors import MigrationError
from repro.scenarios.checkpoint import (CheckpointImage, checkpoint, restore,
                                        restore_as_guest, _snapshot)
from repro.params import PAGE_SIZE

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: cycles of CPU work to transmit one page (map, copy, packetize)
CYC_SEND_PER_PAGE = 900
#: wire nanoseconds per page at gigabit rate
WIRE_NS_PER_PAGE = 34_000


@dataclass
class RoundStats:
    round_no: int
    pages_sent: int
    cycles: int


@dataclass
class MigrationReport:
    """Outcome of one live migration."""

    rounds: list[RoundStats] = field(default_factory=list)
    stop_and_copy_pages: int = 0
    #: total wall-clock of the whole migration, cycles
    total_cycles: int = 0
    #: guest-visible pause (stop-and-copy + resume), cycles
    downtime_cycles: int = 0
    aborted: bool = False

    @property
    def total_pages_sent(self) -> int:
        return sum(r.pages_sent for r in self.rounds) + self.stop_and_copy_pages

    def downtime_ms(self, freq_mhz: int = 3000) -> float:
        return self.downtime_cycles / (freq_mhz * 1000.0)

    def total_ms(self, freq_mhz: int = 3000) -> float:
        return self.total_cycles / (freq_mhz * 1000.0)


class LiveMigration:
    """Migrate a self-virtualized OS from one Mercury machine to another.

    The source must be in full-virtual mode (§6.3: the operator switches
    the machine to full-virtual dynamically); the target must have an
    attached VMM in partial-virtual mode to accommodate the incomer."""

    def __init__(self, source: Mercury, target: Mercury,
                 max_rounds: int = 5, dirty_threshold: int = 32):
        if source.machine.clock is not target.machine.clock:
            raise MigrationError(
                "source and target machines must share a clock (link them)")
        self.source = source
        self.target = target
        self.max_rounds = max_rounds
        self.dirty_threshold = dirty_threshold

    def run(self, mutator: Optional[Callable[[int], None]] = None
            ) -> tuple["Kernel", MigrationReport]:
        """Execute the migration.  ``mutator(round_no)`` models the guest
        continuing to run (and dirty pages) during each pre-copy round.
        Returns the restored kernel on the target and the report."""
        src, dst = self.source, self.target
        if src.mode is not Mode.FULL_VIRTUAL:
            raise MigrationError(
                f"source must be in full-virtual mode, is {src.mode}")
        if dst.mode is Mode.NATIVE:
            raise MigrationError("target must have its VMM attached")

        clock = src.machine.clock
        cpu = src.machine.boot_cpu
        mem = src.machine.memory
        kernel = src.kernel
        report = MigrationReport()
        t0 = clock.cycles

        # -- iterative pre-copy -----------------------------------------
        owned = mem.frames_owned_by(kernel.owner_id)
        dirty = set(int(f) for f in owned)           # round 0: everything
        gen_seen = {int(f): -1 for f in owned}

        for round_no in range(self.max_rounds):
            # round 0 always pushes the full image; later rounds stop once
            # the dirty set is small enough to stop-and-copy cheaply
            if round_no > 0 and len(dirty) <= self.dirty_threshold:
                break
            r0 = clock.cycles
            for frame in sorted(dirty):
                self._send_page(cpu)
                gen_seen[frame] = int(mem.generation[frame])
            report.rounds.append(RoundStats(
                round_no=round_no, pages_sent=len(dirty),
                cycles=clock.cycles - r0))
            # the guest ran meanwhile and dirtied pages
            if mutator is not None:
                mutator(round_no)
            owned = mem.frames_owned_by(kernel.owner_id)
            dirty = {
                int(f) for f in owned
                if int(mem.generation[f]) != gen_seen.get(int(f), -1)
            }

        # -- stop-and-copy ------------------------------------------------
        pause_start = clock.cycles
        image = _snapshot(kernel, cpu, include_disk=True)  # networked FS: disk shared
        for _ in range(len(dirty)):
            self._send_page(cpu)
        report.stop_and_copy_pages = len(dirty)

        if dst.kernel is None:
            # target is an empty shell: the migrated OS becomes its OS
            restored = restore(image, dst, cpu=dst.machine.boot_cpu,
                               fresh_kernel=True)
            self._reconnect_devices(restored, dst)
        else:
            # target runs its own driver-domain OS: the incomer lands as a
            # hosted guest with split I/O (§6.3)
            restored = restore_as_guest(image, dst,
                                        cpu=dst.machine.boot_cpu)
        report.downtime_cycles = clock.cycles - pause_start
        report.total_cycles = clock.cycles - t0

        # the source instance is gone; release its frames and the VMM's
        # (now meaningless) validation state for them
        self._release_source(self.source)
        return restored, report

    # ------------------------------------------------------------------

    def _send_page(self, cpu: "Cpu") -> None:
        cpu.charge(CYC_SEND_PER_PAGE)
        cpu.charge(int(cpu.cost.cycles_from_ns(WIRE_NS_PER_PAGE)))

    def _reconnect_devices(self, restored: "Kernel", dst: Mercury) -> None:
        """Point the restored kernel's I/O at the target machine.

        When the restored kernel lands as the target's own (driver-domain)
        kernel, it gets native drivers on the target's devices; when it
        lands as a hosted guest, ``restore_as_guest`` wires its frontends
        through :meth:`~repro.core.mercury.Mercury.wire`."""
        from repro.guestos.drivers import NativeBlockDriver, NativeNetDriver
        if restored is dst.kernel:
            restored.block_driver = NativeBlockDriver(restored)
            restored.net_driver = NativeNetDriver(restored)

    def _release_source(self, source: Mercury) -> None:
        kernel = source.kernel
        mem = kernel.machine.memory
        kernel.scheduler.current = None
        kernel.scheduler.runqueue.clear()
        kernel.procs.tasks.clear()
        for aspace in list(kernel.aspaces):
            kernel.aspaces.remove(aspace)
            if source.domain is not None and aspace in source.domain.aspaces:
                source.domain.unregister_aspace(aspace)
        # the evacuated OS's page validations are void
        source.vmm.page_info.reset()
        for frame in list(mem.frames_owned_by(kernel.owner_id)):
            mem.free(int(frame))
        kernel.vmem._frame_refs.clear()
        kernel.booted = False
