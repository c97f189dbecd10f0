"""Barrier-protocol unit tests: timer cancellation across shard windows,
lookahead enforcement, cross-shard unblocking, fleet deadlock, stepping
only the nodes that are due, request/answer calls, and worker failures.

The timer-cancel pair is the regression the sharded refactor must never
reintroduce: a :class:`~repro.hw.clock.TimerHandle` cancelled as the
result of a cross-shard message must stay dead after the barrier
exchange — the cancellation serializes into the event batch like any
other local effect, so a later window can never resurrect the handle.
"""

from __future__ import annotations

import os

import pytest

from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.sim import (FleetNode, Shard, ShardedSim, ShardError,
                       SimDeadlock, Sleep, SleepUntil, WaitFor)

WINDOW = 200_000


def _machine() -> Machine:
    return Machine(MachineConfig(num_cpus=1, mem_kb=1024))


class TimerNode(FleetNode):
    """Arms a local timer well past several barrier windows; an inbound
    ``cancel`` message disarms it."""

    TIMER_AT = 5 * WINDOW + 17

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.timer_fired = False
        self.handle = self.machine.clock.schedule_at(
            self.TIMER_AT, self._fire)

    def _fire(self):
        self.timer_fired = True

    def on_message(self, msg):
        super().on_message(msg)
        if msg.kind == "cancel":
            self.handle.cancel()

    def result(self):
        out = super().result()
        out["timer_fired"] = self.timer_fired
        out["handle_pending"] = self.handle.pending
        return out


class CancelNode(FleetNode):
    """Sends the cancel (or nothing) early in the first window."""

    def __init__(self, index, seed, send_cancel=True, **kwargs):
        super().__init__(index, _machine())
        if send_cancel:
            self.spawn_traced(self._task(), name="canceller")

    def _task(self):
        yield Sleep(1_000)
        self.post(0, "cancel")


def _cancel_fleet(send_cancel, workers):
    def build(index, seed, **kwargs):
        if index == 0:
            return TimerNode(index, seed)
        return CancelNode(index, seed, send_cancel=send_cancel)

    sim = ShardedSim(build, 2, workers=workers, transport="inline",
                     window_cycles=WINDOW)
    return sim.run()


@pytest.mark.parametrize("workers", [1, 2])
def test_cancelled_timer_never_fires_after_barrier(workers):
    """The cancel message lands at ~window 2; the timer deadline sits in
    window 6.  Whatever shard hosts which node, the handle must be dead
    by the time its window arrives."""
    res = _cancel_fleet(send_cancel=True, workers=workers)
    assert res.node_results[0]["timer_fired"] is False
    assert res.node_results[0]["handle_pending"] is False
    assert res.node_results[0]["messages_received"] == 1
    # the dead timer leaves no phantom window behind: the fleet ends in
    # the window that delivered the cancel
    assert res.windows == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_uncancelled_timer_fires(workers):
    """Positive control: without the cancel the timer must fire — proving
    the test above passes because of the cancel, not because barrier
    windows silently drop pending timers."""
    res = _cancel_fleet(send_cancel=False, workers=workers)
    assert res.node_results[0]["timer_fired"] is True


def test_cancel_path_is_worker_invariant():
    outs = [_cancel_fleet(True, k).canonical_output() for k in (1, 2)]
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# lookahead enforcement
# ---------------------------------------------------------------------------

def test_post_below_window_latency_is_rejected():
    node = FleetNode(0, _machine())
    shard = Shard(0, min_latency=WINDOW)
    shard.add(node)
    with pytest.raises(ShardError, match="latency"):
        node.post(1, "too-fast", latency_cycles=WINDOW - 1)
    # at exactly the window it is legal (delivers strictly after this
    # window's end barrier for any send cycle > 0, and deterministically
    # at the next poll for send cycle 0)
    msg = node.post(1, "ok", latency_cycles=WINDOW)
    assert msg.deliver_cycle == node.machine.clock.cycles + WINDOW


def test_min_latency_below_window_is_rejected():
    with pytest.raises(ShardError, match="min_latency"):
        ShardedSim(lambda i, s: FleetNode(i, _machine()), 2,
                   window_cycles=WINDOW, min_latency=WINDOW // 2)


# ---------------------------------------------------------------------------
# cross-shard unblocking and fleet deadlock
# ---------------------------------------------------------------------------

class WaiterNode(FleetNode):
    """Blocks on a WaitFor that only an inbound message can satisfy."""

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.woken_at = None
        self.spawn_traced(self._task(), name="waiter")

    def _task(self):
        yield WaitFor(lambda: self.messages_received > 0,
                      desc="fleet message")
        self.woken_at = self.machine.clock.cycles

    def result(self):
        out = super().result()
        out["woken_at"] = self.woken_at
        return out


class PokeNode(FleetNode):
    def __init__(self, index, seed, poke=True, **kwargs):
        super().__init__(index, _machine())
        if poke:
            self.spawn_traced(self._task(), name="poker")

    def _task(self):
        yield Sleep(50_000)
        self.post(0, "poke")


def _build_waiter(index, seed, poke=True):
    """Module-level, so spawned shard workers can import it."""
    if index == 0:
        return WaiterNode(index, seed)
    return PokeNode(index, seed, poke=poke)


def _waiter_fleet(poke, workers, transport="inline"):
    return ShardedSim(_build_waiter, 2, workers=workers,
                      transport=transport, window_cycles=WINDOW,
                      builder_kwargs={"poke": poke})


@pytest.mark.parametrize("workers", [1, 2])
def test_message_unblocks_waiter_across_shards(workers):
    res = _waiter_fleet(poke=True, workers=workers).run()
    woken = res.node_results[0]["woken_at"]
    # delivery cycle = 50_000 + WINDOW; the waiter resumes at (or after —
    # late delivery lands at the next poll) that instant
    assert woken is not None and woken >= 50_000 + WINDOW


@pytest.mark.parametrize("workers,transport",
                         [(1, "inline"), (2, "inline"), (2, "process")],
                         ids=["1", "2", "2-process"])
def test_blocked_fleet_with_no_messages_deadlocks(workers, transport):
    """Every shard handle answers the pool's blocked-task request, so the
    report names the waiter whichever process hosts it."""
    with pytest.raises(SimDeadlock, match="blocked: m0:waiter$"):
        _waiter_fleet(poke=False, workers=workers,
                      transport=transport).run()


# ---------------------------------------------------------------------------
# only due nodes are stepped
# ---------------------------------------------------------------------------

class SleeperNode(FleetNode):
    """Sleeps 50 windows ahead; records every window it is advanced in."""

    WAKE_AT = 50 * WINDOW + 7

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.advanced = []
        self.pinged_at = None
        self.woken_at = None
        self.spawn_traced(self._task(), name="sleeper")

    def _task(self):
        yield SleepUntil(self.WAKE_AT)
        self.woken_at = self.machine.clock.cycles

    def advance(self, horizon):
        self.advanced.append(horizon)
        return super().advance(horizon)

    def on_message(self, msg):
        super().on_message(msg)
        self.pinged_at = self.machine.clock.cycles

    def result(self):
        out = super().result()
        out["pinged_at"] = self.pinged_at
        out["woken_at"] = self.woken_at
        return out


class TickerNode(FleetNode):
    """Has work in each of 60 windows and pings machine 0 in window 21."""

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.spawn_traced(self._task(), name="ticker")

    def _task(self):
        for k in range(1, 60):
            yield SleepUntil(k * WINDOW + 11)
            if k == 20:
                self.post(0, "ping")


def test_idle_node_is_stepped_only_when_due():
    """The sleeper is advanced in the first window, in the window its
    ping lands in, and in the window it wakes in — not in the 57 others
    the ticker keeps the fleet running for — and its result is what
    stepping it in every window gives."""
    nodes = {}

    def build(index, seed):
        node = nodes[index] = (SleeperNode if index == 0
                               else TickerNode)(index, seed)
        return node

    res = ShardedSim(build, 2, window_cycles=WINDOW).run()
    assert res.windows == 60
    assert nodes[0].advanced == [WINDOW, 22 * WINDOW, 51 * WINDOW]
    assert res.node_results[0] == {
        "cycles": SleeperNode.WAKE_AT, "messages_received": 1,
        "messages_sent": 0, "pinged_at": 21 * WINDOW + 11,
        "woken_at": SleeperNode.WAKE_AT}


class RunAheadNode(FleetNode):
    """One slice runs the clock five windows ahead, then the task waits
    for a message."""

    def __init__(self, index, seed, **kwargs):
        super().__init__(index, _machine())
        self.woken_at = None
        self.spawn_traced(self._task(), name="run-ahead")

    def _task(self):
        self.machine.clock.advance(5 * WINDOW)
        yield WaitFor(lambda: self.messages_received > 0,
                      desc="fleet message")
        self.woken_at = self.machine.clock.cycles

    def result(self):
        out = super().result()
        out["woken_at"] = self.woken_at
        return out


@pytest.mark.parametrize("workers", [1, 2])
def test_message_behind_receiver_clock_still_wakes_it(workers):
    """The poke is due at 50_000 + WINDOW, long behind the receiver's
    clock; the receiver has no work of its own, yet the inbound message
    makes it due, and the late delivery fires at its next poll."""
    def build(index, seed):
        if index == 0:
            return RunAheadNode(index, seed)
        return PokeNode(index, seed)

    res = ShardedSim(build, 2, workers=workers, transport="inline",
                     window_cycles=WINDOW).run()
    assert res.node_results[0]["messages_received"] == 1
    assert res.node_results[0]["woken_at"] == 5 * WINDOW


# ---------------------------------------------------------------------------
# request/answer calls
# ---------------------------------------------------------------------------

class CallerNode(FleetNode):
    """Machine 0 files every message it gets as an answer.  ``mode``
    "call" calls machine 1 once, "ask" asks it and never takes the
    answer, "none" asks nothing."""

    def __init__(self, index, seed, mode="call", **kwargs):
        super().__init__(index, _machine())
        self.reply = self.resumed_at = None
        if mode != "none":
            self.spawn_traced(self._task(mode), name="caller")

    def _task(self, mode):
        yield Sleep(1_000)
        if mode == "ask":
            self.ask(1, "ping", "pong", payload=7)
            return
        self.reply = yield from self.call(1, "ping", "pong", payload=7)
        self.resumed_at = self.machine.clock.cycles

    def on_message(self, msg):
        super().on_message(msg)
        self.file_answer(msg)

    def result(self):
        out = super().result()
        out["reply"] = self.reply
        out["resumed_at"] = self.resumed_at
        return out


class EchoNode(FleetNode):
    """Machine 1 answers a ``ping`` with ``echoes`` pongs carrying six
    times its payload; ``stray`` sends machine 0 one pong unasked."""

    def __init__(self, index, seed, echoes=1, stray=False, **kwargs):
        super().__init__(index, _machine())
        self.echoes = echoes
        if stray:
            self.spawn_traced(self._stray(), name="stray")

    def _stray(self):
        yield Sleep(1_000)
        self.post(0, "pong", payload=1)

    def on_message(self, msg):
        super().on_message(msg)
        for _ in range(self.echoes):
            self.post(msg.src, "pong", payload=msg.payload * 6)


def _call_fleet(workers, caller="call", **echo):
    def build(index, seed):
        if index == 0:
            return CallerNode(index, seed, mode=caller)
        return EchoNode(index, seed, **echo)

    return ShardedSim(build, 2, workers=workers, transport="inline",
                      window_cycles=WINDOW).run()


@pytest.mark.parametrize("workers", [1, 2])
def test_call_returns_the_answer_when_it_is_delivered(workers):
    """The ping leaves at cycle 1_000 and reaches machine 1 one window
    later; its pong takes one more window, and the caller resumes at
    that delivery with the pong's payload."""
    res = _call_fleet(workers)
    assert res.node_results[0]["reply"] == 42
    assert res.node_results[0]["resumed_at"] == 1_000 + 2 * WINDOW
    assert res.node_results[1]["messages_received"] == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("caller,echo,error", [
    ("none", {"stray": True},
     "machine 0 got 'pong' from machine 1, which no call waits for"),
    ("call", {"echoes": 2},
     "machine 0 got a second 'pong' from machine 1 before the first was "
     "taken"),
    ("ask", {},
     r"machine 0 ended its run with answers never taken: \[\('pong', 1\)\]"),
], ids=["unasked", "duplicate", "never-taken"])
def test_answer_protocol_errors_raise(workers, caller, echo, error):
    with pytest.raises(ShardError, match=error):
        _call_fleet(workers, caller, **echo)


# ---------------------------------------------------------------------------
# shard-side trace finalisation and worker failures
# ---------------------------------------------------------------------------

def _build_bad_trace(index, seed):
    """Machine 0's ring holds an END with no BEGIN and nothing dropped."""
    node = FleetNode(index, _machine())
    if index == 0:
        node.tracer.end(0, "orphan")
    return node


@pytest.mark.parametrize("workers", [1, 2])
def test_ill_formed_node_trace_is_reported(workers):
    sim = ShardedSim(_build_bad_trace, 2, workers=workers,
                     window_cycles=WINDOW)
    with pytest.raises(ShardError, match="machine 0 trace ill-formed: "
                       "cpu0: end 'orphan' with no open span"):
        sim.run()


def _build_dying(index, seed):
    """Kills shard 0's worker process while it builds machine 0."""
    if index == 0:
        os._exit(3)
    return FleetNode(index, _machine())


def test_dead_worker_reports_its_exitcode():
    sim = ShardedSim(_build_dying, 2, workers=2, transport="process",
                     window_cycles=WINDOW)
    with pytest.raises(ShardError,
                       match=r"shard 0 worker died \(exitcode=3\)"):
        sim.run()


def test_snapshot_ignores_process_global_fault_counter():
    """A fleet node's snapshot must be a pure function of the node: a
    fault counter leaked into this process by unrelated code (earlier
    tests, a co-hosted episode) must not show up — otherwise the serial
    run and a spawned worker's run disagree."""
    from repro import faults

    plan = faults.FaultPlan()
    plan.arm("transfer.hypercall-error", trigger_at=1)
    baseline = faults.injected_total()
    with faults.injected(plan):
        assert faults.fire("transfer.hypercall-error")
    assert faults.injected_total() == baseline + 1
    node = FleetNode(0, _machine())
    assert node.snapshot().faults_injected == 0
    node.faults_injected = 3
    assert node.snapshot().faults_injected == 3


def test_duplicate_machine_index_rejected():
    shard = Shard(0, min_latency=WINDOW)
    shard.add(FleetNode(0, _machine()))
    with pytest.raises(ShardError, match="duplicate"):
        shard.add(FleetNode(0, _machine()))
