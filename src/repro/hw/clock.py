"""Global simulated clock and timer event queue.

The clock counts **cycles** of the (single) crystal shared by all CPUs.
CPUs charge work to the clock; devices and the kernel schedule timer events
at absolute cycle deadlines.  Events fire when the machine polls
(:meth:`Clock.run_due`) — mirroring real hardware, where a raised interrupt
line is only serviced when the CPU checks for interrupts.

Every :meth:`Clock.schedule` returns a :class:`TimerHandle`; callers that
may need to disarm a timer (the mode-switch engine's backoff retry, a
delayed doorbell) keep the handle and :meth:`~TimerHandle.cancel` it.
Cancelled handles stay in the heap and are skipped lazily, so cancellation
is O(1).

Event order is a pure function of ``(deadline, seq)`` where ``seq`` is a
FIFO ticket from one shared counter — the determinism contract the
simulation scheduler (:mod:`repro.sim`) builds on.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional


class TimerHandle:
    """One scheduled event: fire-at-most-once, cancellable."""

    __slots__ = ("deadline", "seq", "_fn", "_fired", "_cancelled")

    def __init__(self, deadline: int, seq: int, fn: Callable[[], None]):
        self.deadline = deadline
        self.seq = seq
        self._fn = fn
        self._fired = False
        self._cancelled = False

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        return not (self._fired or self._cancelled)

    def cancel(self) -> bool:
        """Disarm the event.  Returns True if it had not fired yet (the
        cancel took effect), False if it already ran or was cancelled."""
        if not self.pending:
            return False
        self._cancelled = True
        self._fn = None
        return True

    def _fire(self) -> bool:
        """Run the callback exactly once; False if already done."""
        if not self.pending:
            return False
        self._fired = True
        fn, self._fn = self._fn, None
        fn()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("fired" if self._fired else
                 "cancelled" if self._cancelled else "pending")
        return f"<TimerHandle @{self.deadline} seq={self.seq} {state}>"


class Clock:
    """Monotonic cycle counter plus a deadline-ordered event queue."""

    def __init__(self, freq_mhz: int = 3000):
        self.freq_mhz = freq_mhz
        self.cycles: int = 0
        self._events: list[tuple[int, int, TimerHandle]] = []
        self._counter = itertools.count()

    # -- time ------------------------------------------------------------

    def advance(self, cycles: int) -> None:
        """Advance simulated time by ``cycles`` (>= 0)."""
        if cycles < 0:
            raise ValueError(f"cannot advance clock by {cycles} cycles")
        self.cycles += int(cycles)

    def advance_us(self, us: float) -> None:
        self.advance(int(us * self.freq_mhz))

    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self.cycles / self.freq_mhz

    def now_ms(self) -> float:
        return self.cycles / (self.freq_mhz * 1000.0)

    def next_seq(self) -> int:
        """A FIFO ticket from the shared ordering counter.  Timer events
        and simulation-task wakeups draw from the same sequence, so
        same-deadline ties break identically run after run."""
        return next(self._counter)

    # -- timer events ------------------------------------------------------

    def schedule(self, delay_cycles: int, fn: Callable[[], None]
                 ) -> TimerHandle:
        """Arrange for ``fn()`` to run once ``delay_cycles`` from now have
        elapsed *and* the machine polls for due events.  Returns a handle
        the caller may :meth:`~TimerHandle.cancel`."""
        return self.schedule_at(self.cycles + max(0, int(delay_cycles)), fn)

    def schedule_at(self, deadline_cycles: int, fn: Callable[[], None]
                    ) -> TimerHandle:
        """Schedule at an *absolute* cycle deadline.  The sharded simulation
        uses this to inject cross-shard events at their agreed delivery
        cycle; a deadline already in the past is legal and fires at the next
        poll (a shard whose current slice ran ahead of the barrier horizon
        services late deliveries exactly where its next interrupt window
        sits — deterministically)."""
        deadline = int(deadline_cycles)
        handle = TimerHandle(deadline, next(self._counter), fn)
        heapq.heappush(self._events, (deadline, handle.seq, handle))
        return handle

    def schedule_us(self, delay_us: float, fn: Callable[[], None]
                    ) -> TimerHandle:
        return self.schedule(int(delay_us * self.freq_mhz), fn)

    def _prune(self) -> None:
        """Drop fired/cancelled handles off the head of the heap."""
        while self._events and not self._events[0][2].pending:
            heapq.heappop(self._events)

    def run_due(self) -> int:
        """Fire every event whose deadline has passed; return how many ran."""
        ran = 0
        events = self._events
        pop = heapq.heappop
        # self.cycles is re-read per event: handlers charge cycles, which
        # can bring further deadlines due within the same call
        while events:
            deadline, _, handle = events[0]
            if not handle.pending:
                pop(events)
                continue
            if deadline > self.cycles:
                break
            pop(events)
            if handle._fire():
                ran += 1
        return ran

    def head_deadline(self) -> float:
        """Deadline at the head of the event heap (+inf when it is empty),
        read in O(1) without pruning.  The head may be a cancelled handle:
        its deadline is still a lower bound on every live one, so
        ``head_deadline() > cycles`` proves no event is due."""
        events = self._events
        return events[0][0] if events else math.inf

    def peek(self) -> Optional[TimerHandle]:
        """The earliest still-pending event, or None (does not fire it)."""
        self._prune()
        return self._events[0][2] if self._events else None

    def next_deadline(self) -> int | None:
        """Deadline of the earliest pending event, or None."""
        handle = self.peek()
        return handle.deadline if handle is not None else None

    def fire(self, handle: TimerHandle) -> bool:
        """Fire one specific handle now, advancing time to its deadline if
        that lies ahead.  Used where a caller must run *its own* event
        without releasing unrelated due events (the SMP rendezvous gathers
        acknowledgement events this way while interrupts are masked)."""
        if not handle.pending:
            return False
        if handle.deadline > self.cycles:
            self.cycles = handle.deadline
        return handle._fire()

    def drain_until_idle(self, max_events: int = 100_000) -> int:
        """Advance time to each pending deadline in turn, firing events,
        until the queue is empty.  Used by scenario drivers to let timers
        (e.g. Mercury's 10 ms switch-retry timer) make progress."""
        ran = 0
        while ran < max_events:
            deadline = self.next_deadline()
            if deadline is None:
                return ran
            if deadline > self.cycles:
                self.cycles = deadline
            ran += self.run_due()
        return ran
