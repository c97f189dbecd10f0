"""The composed machine: CPUs + memory + interrupt controller + devices.

One :class:`Machine` is one physical box.  Scenario code (live migration,
HPC cluster) builds several and links their NICs; linked machines share a
clock so end-to-end timings stay coherent.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import HardwareError
from repro.hw.clock import Clock
from repro.hw.cpu import Cpu
from repro.hw.devices import BlockDevice, Link, Nic, TimerDevice
from repro.hw.interrupts import InterruptController
from repro.hw.memory import PhysicalMemory
from repro.params import MachineConfig


class MachineIdAllocator:
    """Deterministic source of machine ordinals.

    Machine names (``machine{n}``) and NIC addresses (``10.0.0.{n+1}``)
    derive from the ordinal, so identity must depend only on construction
    order *within a scenario* — never on how many machines earlier tests
    happened to build.  Scenarios needing full isolation pass their own
    allocator; the test suite resets the process-default one before every
    test."""

    def __init__(self):
        self._next = 0

    def allocate(self) -> int:
        seq = self._next
        self._next += 1
        return seq

    def reset(self) -> None:
        self._next = 0


#: process-default allocator, used when a Machine is built without one
_MACHINE_IDS = MachineIdAllocator()


def reset_machine_ids() -> None:
    """Restart default machine numbering (test fixtures call this)."""
    _MACHINE_IDS.reset()


@contextmanager
def isolated_machine_ids() -> Iterator[MachineIdAllocator]:
    """Number machines from a fresh allocator inside the with-block, then
    restore the previous one.

    Parallel-episode workers and fleet-shard builders construct whole
    stacks (machine + peer + guests) whose names and NIC addresses must be
    a pure function of the episode/machine parameters — never of how many
    machines the hosting process happened to build before.  Scoping the
    default allocator (instead of resetting it) keeps the caller's
    numbering intact."""
    global _MACHINE_IDS
    saved = _MACHINE_IDS
    _MACHINE_IDS = MachineIdAllocator()
    try:
        yield _MACHINE_IDS
    finally:
        _MACHINE_IDS = saved


class Machine:
    """One simulated physical machine."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 clock: Optional[Clock] = None, name: str = "",
                 ids: Optional[MachineIdAllocator] = None):
        self.config = config or MachineConfig()
        seq = (ids or _MACHINE_IDS).allocate()
        self.name = name or f"machine{seq}"
        self.clock = clock or Clock(freq_mhz=self.config.cost.freq_mhz)
        if self.clock.freq_mhz != self.config.cost.freq_mhz:
            raise HardwareError("shared clock frequency mismatch")
        self.memory = PhysicalMemory(self.config.num_frames)
        self.intc = InterruptController(self)
        self.cpus = [Cpu(i, self) for i in range(self.config.num_cpus)]
        self.disk = BlockDevice(self, name="sda")
        # historical numbering: machine0's NIC is 10.0.0.1
        self.nic = Nic(self, name="eth0", addr=f"10.0.0.{seq + 1}")
        self.timer = TimerDevice(self, hz=self.config.timer_hz)
        #: set by scenario code when the box "fails" (machine check)
        self.failed = False

    @property
    def boot_cpu(self) -> Cpu:
        return self.cpus[0]

    def link_to(self, other: "Machine") -> Link:
        """Wire this machine's NIC to another's.  Both must share a clock;
        construct the second machine with ``clock=first.clock``."""
        if other.clock is not self.clock:
            raise HardwareError(
                "linked machines must share a Clock (pass clock= at construction)")
        return Link(self.nic, other.nic)

    def quiet_until(self) -> float:
        """The clock value below which a poll services nothing: the current
        cycle while any CPU has a vector queued, else the event heap's head
        deadline (+inf on an empty heap).  Two O(1) reads; the scheduler's
        quiet horizon is this plus its own masking rules."""
        clock = self.clock
        if self.intc.any_pending():
            return clock.cycles
        return clock.head_deadline()

    def poll(self) -> int:
        """Fire due timer/device events, then deliver pending interrupts on
        every CPU.  Called by the guest OS at preemption points.

        Returns 0 at once when :meth:`quiet_until` lies ahead of the clock:
        the full pass would fire nothing and deliver nothing (it could only
        pop cancelled heads, which :meth:`Clock.peek` prunes anyway)."""
        if self.quiet_until() > self.clock.cycles:
            return 0
        fired = self.clock.run_due()
        delivered = 0
        for cpu in self.cpus:
            delivered += self.intc.deliver_pending(cpu)
        return fired + delivered

    def run_until_idle(self) -> None:
        """Drive the event loop until no events or interrupts remain."""
        for _ in range(100_000):
            if (self.clock.next_deadline() is None
                    and not self.intc.any_pending()):
                return
            deadline = self.clock.next_deadline()
            if deadline is not None and deadline > self.clock.cycles:
                self.clock.cycles = deadline
            self.poll()
        raise HardwareError("run_until_idle did not converge")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Machine({self.name!r}, cpus={len(self.cpus)}, "
                f"frames={self.memory.num_frames})")
