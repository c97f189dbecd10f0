"""Live migration with iterative pre-copy (the Clark et al. algorithm the
paper cites as [39]; the primitive behind §6.3 online maintenance and §6.5
HPC availability).

Rounds: push every frame of the moving kernel across the wire while it
keeps running (a mutator callback models that); frames dirtied during a
round are re-sent in the next; when the dirty set is small enough (or a
round budget is hit), the kernel is paused for a brief stop-and-copy of
the remainder and its execution context — that pause is the measured
*downtime*.

Dirty logging rides on :attr:`PhysicalMemory.generation`, the simulator's
per-frame write counter — the stand-in for the shadow-mode dirty bitmap a
real VMM keeps.  Device handling follows §5.2: disk state is assumed shared
(networked storage); a kernel landing as a hosted guest gets its split
frontends *re-created* on the target after the migration completes rather
than decoupled before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.mercury import Mercury, Mode
from repro.errors import MigrationError
from repro.scenarios.checkpoint import (CYC_SNAPSHOT_PER_FRAME, capture,
                                        kernel_digest, restore,
                                        restore_as_guest, state_frames)

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: cycles of CPU work to transmit one page (map, copy, packetize)
CYC_SEND_PER_PAGE = 900
#: wire nanoseconds per page at gigabit rate
WIRE_NS_PER_PAGE = 34_000
#: pages of OS state one direction of a fleet maintenance or evacuation
#: stream charges (the fleet moves no state; see ``fleet/node.py``)
FLEET_STREAM_PAGES = 64


def send_pages(cpu: "Cpu", pages: int) -> None:
    """Charge ``cpu`` for streaming ``pages`` pages: per page, the send
    work plus the wire time rounded down to whole cycles."""
    cpu.charge(pages * (CYC_SEND_PER_PAGE
                        + int(cpu.cost.cycles_from_ns(WIRE_NS_PER_PAGE))))


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

    @property
    def total_pages_sent(self) -> int:
        return sum(r.pages_sent for r in self.rounds) + self.stop_and_copy_pages

    def downtime_ms(self, freq_mhz: int = 3000) -> float:
        return self.downtime_cycles / (freq_mhz * 1000.0)

    def total_ms(self, freq_mhz: int = 3000) -> float:
        return self.total_cycles / (freq_mhz * 1000.0)


class LiveMigration:
    """Move one kernel from ``source`` to ``target``: every §6 state move.

    ``kernel`` is the source's own OS (the default) or one of the source's
    hosted guests.  The own OS moves only from full-virtual mode (§6.3: the
    operator switches the machine dynamically), and never while the source
    still hosts guests: its departure resets the source VMM's validation
    state, which those guests run on.

    Landing rule: a target with no running kernel — none at all, or the
    unbooted shell an earlier migration left behind — takes the kernel as
    its own OS (a shell keeps its name and owner id).  A target with a
    running kernel must have its VMM attached, and hosts the kernel as a
    guest with split I/O (§6.3)."""

    def __init__(self, source: Mercury, target: Mercury,
                 kernel: Optional["Kernel"] = None,
                 max_rounds: int = 5, dirty_threshold: int = 32):
        if source.machine.clock is not target.machine.clock:
            raise MigrationError(
                "source and target machines must share a clock (link them)")
        self.source = source
        self.target = target
        self.kernel = kernel if kernel is not None else source.kernel
        self.max_rounds = max_rounds
        self.dirty_threshold = dirty_threshold

    def run(self, mutator: Optional[Callable[[int], None]] = None
            ) -> tuple["Kernel", MigrationReport]:
        """Execute the migration.  ``mutator(round_no)`` models the kernel
        continuing to run (and dirty pages) during each pre-copy round.
        Returns the restored kernel on the target and the report."""
        src, dst, kernel = self.source, self.target, self.kernel
        if kernel is src.kernel:
            if src.guests:
                raise MigrationError(
                    f"source still hosts {len(src.guests)} guest(s); "
                    "move them before its own OS")
            if src.mode is not Mode.FULL_VIRTUAL:
                raise MigrationError(
                    f"source must be in full-virtual mode, is {src.mode}")
        elif kernel not in src.guests:
            raise MigrationError(f"{kernel.name} is not hosted by the source")
        lands_as_guest = dst.kernel is not None and dst.kernel.booted
        if lands_as_guest and dst.mode is Mode.NATIVE:
            raise MigrationError("target must have its VMM attached")

        clock = src.machine.clock
        cpu = src.machine.boot_cpu
        generation = src.machine.memory.generation
        report = MigrationReport()
        t0 = clock.cycles

        # -- iterative pre-copy: round 0 pushes every frame --------------
        dirty = state_frames(kernel)
        sent: dict[int, int] = {}  # frame -> generation last sent
        for round_no in range(self.max_rounds):
            if round_no > 0 and len(dirty) <= self.dirty_threshold:
                break
            r0 = clock.cycles
            send_pages(cpu, len(dirty))
            sent.update((f, int(generation[f])) for f in dirty)
            report.rounds.append(RoundStats(
                round_no=round_no, pages_sent=len(dirty),
                cycles=clock.cycles - r0))
            # the kernel ran meanwhile and dirtied pages
            if mutator is not None:
                mutator(round_no)
            dirty = [f for f in state_frames(kernel)
                     if sent.get(f) != int(generation[f])]

        # -- stop-and-copy ------------------------------------------------
        pause_start = clock.cycles
        image = capture(kernel)  # networked FS: the disk is shared
        cpu.charge(image.num_frames * CYC_SNAPSHOT_PER_FRAME)
        send_pages(cpu, len(dirty))
        report.stop_and_copy_pages = len(dirty)

        dst_cpu = dst.machine.boot_cpu
        if lands_as_guest:
            restored = restore_as_guest(image, dst, cpu=dst_cpu)
        else:
            restored = restore(image, dst, cpu=dst_cpu, fresh_kernel=True)
            restored.booted = True
        report.downtime_cycles = clock.cycles - pause_start
        report.total_cycles = clock.cycles - t0

        expected = kernel_digest(image)
        landed = kernel_digest(capture(restored, include_disk=False))
        if landed != expected:
            _release(dst, restored)  # one live copy: the source's
            raise MigrationError(
                "restored state differs from the source at stop-and-copy: "
                + ", ".join(k for k in expected if landed[k] != expected[k]))
        _release(src, kernel)
        return restored, report


def _release(mercury: Mercury, kernel: "Kernel") -> None:
    """``kernel`` is gone from ``mercury``'s machine: free its frames.
    The own OS leaves an unbooted shell whose page validations are void;
    a guest is shut down first."""
    mem = mercury.machine.memory
    if kernel is mercury.kernel:
        kernel.scheduler.current = None
        kernel.scheduler.runqueue.clear()
        kernel.procs.tasks.clear()
        for aspace in list(kernel.aspaces):
            kernel.aspaces.remove(aspace)
            if mercury.domain is not None and aspace in mercury.domain.aspaces:
                mercury.domain.unregister_aspace(aspace)
        mercury.vmm.page_info.reset()
        kernel.vmem.set_shares({})
        kernel.booted = False
    else:
        mercury.shutdown_guest(kernel)
    mem.free_many(mem.frames_owned_by(kernel.owner_id).tolist())
