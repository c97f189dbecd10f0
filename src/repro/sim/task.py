"""Simulation tasks and the yield-point vocabulary.

A :class:`SimTask` wraps a plain Python generator.  The generator *is* the
task body; every ``yield`` hands control back to the
:class:`~repro.sim.scheduler.SimScheduler`, which may run other tasks and
fire due timer events before resuming it.  What is yielded says why:

- ``yield`` / ``yield Yield()`` — cooperative yield; resume at the current
  cycle, after anything already queued for this instant (FIFO).
- ``yield Sleep(cycles)`` — resume once simulated time has advanced.
- ``yield SleepUntil(cycle)`` — resume at an absolute cycle deadline
  (drift-free schedules: a fleet frontend's arrivals land on their
  planned cycles no matter how long the previous slice ran).
- ``yield WaitFor(predicate)`` — block until ``predicate()`` holds.
- ``yield Join(task)`` — block until another task finishes.

Tasks that drive a guest kernel carry their guest-process context across
yields: the scheduler records ``kernel.scheduler.current`` when a slice
ends and context-switches back before the next slice, so two workloads
interleaved on one kernel each see their own process running — and pay the
real context-switch cost for the privilege.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Generator, Optional

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.process import Task
    from repro.hw.cpu import Cpu


class Yield:
    """Plain cooperative yield (equivalent to yielding ``None``)."""

    __slots__ = ()


class Sleep:
    """Resume after ``cycles`` of simulated time."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError(f"cannot sleep {cycles} cycles")
        self.cycles = int(cycles)


class SleepUntil:
    """Resume once the clock reaches an absolute cycle deadline.  A deadline
    at or before the current cycle resumes immediately (FIFO)."""

    __slots__ = ("cycle",)

    def __init__(self, cycle: int):
        if cycle < 0:
            raise ValueError(f"cannot sleep until cycle {cycle}")
        self.cycle = int(cycle)


class WaitFor:
    """Block until ``predicate()`` returns truthy."""

    __slots__ = ("predicate", "desc")

    def __init__(self, predicate: Callable[[], bool], desc: str = ""):
        self.predicate = predicate
        self.desc = desc


class Join:
    """Block until another task reaches a terminal state."""

    __slots__ = ("task",)

    def __init__(self, task: "SimTask"):
        self.task = task


class SimState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class SimTask:
    """One cooperative task: a generator plus its scheduling state."""

    def __init__(self, gen: Generator, name: str, cpu: "Cpu",
                 kernel: Optional["Kernel"] = None,
                 proc: Optional["Task"] = None):
        self.gen = gen
        self.name = name
        self.cpu = cpu
        self.kernel = kernel
        #: guest process to re-install as ``scheduler.current`` before each
        #: slice; refreshed from the kernel after every slice
        self.guest_ctx: Optional["Task"] = proc
        self.state = SimState.READY
        self.result = None
        self.error: Optional[BaseException] = None
        self.slices = 0
        #: what the task is blocked on (WaitFor), if anything
        self.waiting: Optional[WaitFor] = None

    @property
    def finished(self) -> bool:
        return self.state in (SimState.DONE, SimState.FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimTask {self.name!r} {self.state.value} "
                f"slices={self.slices}>")
