"""The deterministic cooperative scheduler.

One :class:`SimScheduler` drives one machine's worth of tasks on the shared
:class:`~repro.hw.clock.Clock`.  The run loop is a two-source merge:

- the **task heap** — ``(resume_cycle, seq, task)`` for READY tasks;
- the **clock queue** — pending :class:`~repro.hw.clock.TimerHandle`s.

Whichever has the smaller ``(deadline, seq)`` key goes next; both draw
their seq tickets from the clock's single counter, so the interleaving is a
pure function of simulated time and FIFO order — bit-reproducible.

Between slices (and at every :func:`preempt_point` a slice crosses) the
scheduler pumps the machine: due timer events fire and pending interrupt
vectors are delivered.  That is how a mode-switch request lands *inside* a
running workload — and why it can find the VO refcount nonzero: the
``sensitive`` wrapper's preempt point sits before the refcount is released,
exactly the window §5.1.1's quiesce check exists for.

Pump sites, and what a delivered switch sees there:

==========================================  =========================
site                                        VO refcount at delivery
==========================================  =========================
between slices (this module)                0 — commit allowed
``Kernel.user_compute`` end                 0 — commit allowed
``kernel.syscall`` finally (machine.poll)   0 — commit allowed
``sensitive`` wrapper, before exit          >= 1 — busy, retry armed
==========================================  =========================

Every site passes through one idle test, :meth:`Machine.quiet_until
<repro.hw.machine.Machine.quiet_until>`: a poll below that clock value
services nothing, so it returns at once.  :func:`quiet_until` extends it
to a CPU's *quiet horizon* — +inf where :meth:`SimScheduler.pump` would
return 0 anyway (no scheduler, a pump on the stack, ``cpu`` masked).
Bulk page-table work uses the horizon to run ahead: a leaf whose preempt
points all fall below it goes in one VO call, because none of those
points could have serviced anything (see ``ProcessTable._cow_copy_leaf``).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Generator, Optional

from repro import trace
from repro.sim.task import (Join, SimState, SimTask, Sleep, SleepUntil,
                            WaitFor, Yield)

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.process import Task
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine


class SimError(RuntimeError):
    """Scheduler misuse or internal inconsistency."""


class SimDeadlock(SimError):
    """Every task is blocked and nothing can advance simulated time."""


#: the installed scheduler, if any (same pattern as ``repro.faults`` /
#: ``repro.trace``: one module-level slot, hot-path guard is one ``is None``
#: test)
_ACTIVE: Optional["SimScheduler"] = None


def active() -> Optional["SimScheduler"]:
    return _ACTIVE


def preempt_point(cpu: "Cpu") -> int:
    """An interrupt window: fire due events and deliver pending vectors.

    No-op unless a scheduler is running and ``cpu`` has interrupts enabled.
    Instrumented code (the ``sensitive`` wrapper, ``user_compute``) calls
    this so that timer deadlines landing mid-execution are serviced *where
    simulated time says they land*, not at the next run-to-completion
    boundary."""
    sched = _ACTIVE
    if sched is None:
        return 0
    return sched.pump(cpu)


def quiet_until(cpu: "Cpu") -> float:
    """``cpu``'s quiet horizon: the clock value below which every preempt
    point on ``cpu`` services nothing.  +inf when no scheduler runs (a
    preempt point is then a no-op); otherwise
    :meth:`SimScheduler.quiet_until`."""
    sched = _ACTIVE
    if sched is None:
        return math.inf
    return sched.quiet_until(cpu)


def run_to_completion(gen: Generator, clock=None):
    """Drive a task generator without a scheduler: every yield resumes
    immediately, so the result is cycle-identical to the pre-generator
    sequential code.  ``Sleep`` advances ``clock`` when one is given;
    ``WaitFor``/``Join`` are scheduler-only and raise here."""
    try:
        point = next(gen)
        while True:
            if isinstance(point, Sleep):
                if clock is not None:
                    clock.advance(point.cycles)
            elif isinstance(point, SleepUntil):
                if clock is not None and point.cycle > clock.cycles:
                    clock.cycles = point.cycle
            elif isinstance(point, WaitFor):
                if not point.predicate():
                    raise SimError(
                        "WaitFor cannot block outside a SimScheduler")
            elif isinstance(point, Join):
                if not point.task.finished:
                    raise SimError(
                        "Join cannot block outside a SimScheduler")
            point = gen.send(None)
    except StopIteration as stop:
        return stop.value


class SimScheduler:
    """Cooperative round-robin over generator tasks, merged with the
    machine's timer-event queue in global ``(cycle, seq)`` order."""

    def __init__(self, machine: "Machine", max_steps: int = 5_000_000):
        self.machine = machine
        self.clock = machine.clock
        self.max_steps = max_steps
        self.tasks: list[SimTask] = []
        self._ready: list[tuple[int, int, SimTask]] = []
        self._blocked: list[SimTask] = []
        self._pumping = False
        self.steps = 0

    # ------------------------------------------------------------------
    # task admission
    # ------------------------------------------------------------------

    def spawn(self, gen: Generator, *, name: str = "",
              cpu: Optional["Cpu"] = None,
              kernel: Optional["Kernel"] = None,
              proc: Optional["Task"] = None) -> SimTask:
        """Register a task.  ``kernel``/``proc`` enable guest-context
        save/restore across yields (see :mod:`repro.sim.task`)."""
        cpu = cpu or self.machine.boot_cpu
        if kernel is not None and proc is None:
            proc = kernel.scheduler.current
        task = SimTask(gen, name or f"task{len(self.tasks)}", cpu,
                       kernel=kernel, proc=proc)
        self.tasks.append(task)
        self._make_ready(task)
        trace.instant(cpu.cpu_id, "sim.task-spawn", task=task.name)
        return task

    def _make_ready(self, task: SimTask, at_cycle: Optional[int] = None
                    ) -> None:
        task.state = SimState.READY
        task.waiting = None
        when = self.clock.cycles if at_cycle is None else at_cycle
        heapq.heappush(self._ready, (when, self.clock.next_seq(), task))

    # ------------------------------------------------------------------
    # the interrupt window
    # ------------------------------------------------------------------

    def quiet_until(self, cpu: "Cpu") -> float:
        """The clock value below which :meth:`pump` on ``cpu`` services
        nothing: +inf while a pump is on the stack or ``cpu`` is masked
        (the pump returns 0 whatever is due), else the machine's
        :meth:`~repro.hw.machine.Machine.quiet_until`."""
        if self._pumping or not cpu.interrupts_enabled:
            return math.inf
        return self.machine.quiet_until()

    def pump(self, cpu: "Cpu") -> int:
        """Service due events + pending interrupts once, reentrancy-safe.

        Skipped while another pump is on the stack (a delivered handler's
        own sensitive calls must not recurse), while ``cpu`` has
        interrupts masked (a mode-switch commit must not be perturbed by
        unrelated events), and whenever the clock is below ``cpu``'s
        quiet horizon (nothing is due)."""
        if self.quiet_until(cpu) > self.clock.cycles:
            return 0
        self._pumping = True
        try:
            return self.machine.poll()
        finally:
            self._pumping = False

    def _service_clock(self) -> None:
        """Advance to the earliest pending deadline and pump."""
        handle = self.clock.peek()
        if handle is not None and handle.deadline > self.clock.cycles:
            self.clock.cycles = handle.deadline
        self._pumping = True
        try:
            self.machine.poll()
        finally:
            self._pumping = False

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Run until every task is finished.  Raises the first task
        exception, :class:`SimDeadlock` on a wedged system, or
        :class:`SimError` past ``max_steps``."""
        self._install()
        try:
            self._loop(None)
        finally:
            self._uninstall()

    def run_window(self, horizon: int) -> bool:
        """Advance every runnable work item keyed at or before ``horizon``.

        The windowed entry point for the sharded simulation: tasks and
        timer events whose ``(cycle, seq)`` key lies inside the window run
        exactly as :meth:`run` would run them; work keyed beyond the
        horizon stays queued for a later window.  Blocked tasks are *not* a
        deadlock here — a cross-shard message delivered at a later barrier
        may unblock them, so the fleet loop owns deadlock detection.
        Returns True once every task has finished."""
        self._install()
        try:
            self._loop(int(horizon))
        finally:
            self._uninstall()
        return self.finished

    def _install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise SimError("a SimScheduler is already installed")
        _ACTIVE = self

    def _uninstall(self) -> None:
        global _ACTIVE
        _ACTIVE = None

    @property
    def finished(self) -> bool:
        """True when every spawned task reached a terminal state."""
        return all(t.finished for t in self.tasks)

    def next_work_cycle(self) -> Optional[int]:
        """Earliest cycle at which this scheduler has runnable work (ready
        task or pending timer event), or None when only blocked tasks — or
        nothing at all — remain.  A blocked task whose predicate already
        holds is admitted (and counted) here, so the fleet barrier never
        mistakes it for a deadlock."""
        self._admit_unblocked()
        while self._ready and self._ready[0][2].state is not SimState.READY:
            heapq.heappop(self._ready)  # stale entries
        candidates = []
        if self._ready:
            candidates.append(self._ready[0][0])
        event = self.clock.peek()
        if event is not None:
            candidates.append(event.deadline)
        return min(candidates) if candidates else None

    def blocked_names(self) -> tuple:
        """Names of currently blocked tasks (fleet deadlock reporting)."""
        return tuple(t.name for t in self._blocked if not t.finished)

    def _loop(self, horizon: Optional[int]) -> None:
        while True:
            self.steps += 1
            if self.steps > self.max_steps:
                raise SimError(f"scheduler exceeded {self.max_steps} steps")
            self._admit_unblocked()

            head = self._ready[0] if self._ready else None
            event = self.clock.peek()

            if head is None:
                if event is not None:
                    if horizon is not None and event.deadline > horizon:
                        return  # beyond this window
                    self._service_clock()
                    continue
                if not self._blocked:
                    return  # all tasks finished
                # one last interrupt window before giving up —
                # a pending vector may unblock someone
                if self.pump(self.machine.boot_cpu):
                    continue
                if horizon is not None:
                    return  # a later barrier exchange may unblock them
                names = ", ".join(t.name for t in self._blocked)
                raise SimDeadlock(
                    f"all runnable work exhausted; blocked: {names}")

            when, seq, task = head
            if event is not None and (event.deadline, event.seq) < (when, seq):
                if horizon is not None and event.deadline > horizon:
                    return
                self._service_clock()
                continue
            if horizon is not None and when > horizon:
                return
            heapq.heappop(self._ready)
            if task.state is not SimState.READY:
                continue  # stale heap entry
            if when > self.clock.cycles:
                self.clock.cycles = when
            self._run_slice(task)

    def _admit_unblocked(self) -> None:
        """Move blocked tasks whose predicate now holds to the ready heap,
        in blocking order (deterministic)."""
        still: list[SimTask] = []
        for task in self._blocked:
            wait = task.waiting
            if wait is not None and wait.predicate():
                self._make_ready(task)
            else:
                still.append(task)
        self._blocked = still

    # ------------------------------------------------------------------
    # one slice
    # ------------------------------------------------------------------

    def _run_slice(self, task: SimTask) -> None:
        cpu = task.cpu
        task.state = SimState.RUNNING
        task.slices += 1
        if task.kernel is not None:
            self._restore_guest_context(task)
        try:
            with trace.span(cpu.cpu_id, "sim.slice", task=task.name):
                point = task.gen.send(None)
        except StopIteration as stop:
            task.state = SimState.DONE
            task.result = stop.value
            trace.instant(cpu.cpu_id, "sim.task-end", task=task.name)
            self._save_guest_context(task)
            return
        except BaseException as exc:
            task.state = SimState.FAILED
            task.error = exc
            trace.instant(cpu.cpu_id, "sim.task-fail", task=task.name)
            self._save_guest_context(task)
            raise
        self._save_guest_context(task)
        self._park(task, point)

    def _park(self, task: SimTask, point) -> None:
        """Requeue a task according to what it yielded."""
        if point is None or isinstance(point, Yield):
            self._make_ready(task)
        elif isinstance(point, Sleep):
            self._make_ready(task, at_cycle=self.clock.cycles + point.cycles)
            trace.instant(task.cpu.cpu_id, "sim.task-sleep", task=task.name,
                          cycles=point.cycles)
        elif isinstance(point, SleepUntil):
            self._make_ready(task,
                             at_cycle=max(self.clock.cycles, point.cycle))
            trace.instant(task.cpu.cpu_id, "sim.task-sleep", task=task.name,
                          until_cycle=point.cycle)
        elif isinstance(point, Join):
            target = point.task
            self._block(task, WaitFor(lambda: target.finished,
                                      desc=f"join {target.name}"))
        elif isinstance(point, WaitFor):
            self._block(task, point)
        else:
            raise SimError(
                f"task {task.name!r} yielded {point!r}; expected None, "
                f"Yield, Sleep, SleepUntil, WaitFor, or Join")

    def _block(self, task: SimTask, wait: WaitFor) -> None:
        # a predicate that already holds skips the blocked list entirely
        if wait.predicate():
            self._make_ready(task)
            return
        task.state = SimState.BLOCKED
        task.waiting = wait
        self._blocked.append(task)
        trace.instant(task.cpu.cpu_id, "sim.task-block", task=task.name)

    # ------------------------------------------------------------------
    # guest-process context
    # ------------------------------------------------------------------

    def _restore_guest_context(self, task: SimTask) -> None:
        ctx = task.guest_ctx
        if ctx is None:
            return
        task.kernel.scheduler.ensure_running(task.cpu, ctx)

    def _save_guest_context(self, task: SimTask) -> None:
        if task.kernel is not None:
            task.guest_ctx = task.kernel.scheduler.current
