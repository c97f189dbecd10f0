"""Fleet sharding: machines, messages, and the per-shard step engine.

The sharded simulation (:mod:`repro.sim.pool`) partitions a fleet of
machines across shards — each shard a plain object here, hosted either
in-process or in a worker process.  Every machine keeps its *own*
:class:`~repro.hw.clock.Clock`, :class:`~repro.sim.scheduler.SimScheduler`
and :class:`~repro.trace.Tracer`; machines interact **only** through
:class:`FleetMessage` values exchanged at time-window barriers.

The determinism contract has three legs:

1. **Local purity.**  A machine's evolution is a pure function of its
   build parameters and the sequence of inbound messages (with their
   delivery cycles).  Nothing else crosses the machine boundary: in
   particular a task's ``WaitFor`` predicate reads only its own node's
   state, so it can turn true only when that node runs (a task, a timer,
   or a delivered message) — the rule :meth:`Shard.step` relies on to
   leave idle nodes alone.
2. **Conservative lookahead.**  Every message carries latency >= the
   barrier window, so a message posted during one window can only take
   effect in a later one — no shard can ever need information another
   shard has not yet produced.
3. **Canonical batch order.**  At each barrier the pool sorts the global
   batch by ``(deliver_cycle, src, src_seq, dst)`` before handing shards
   their slice.  Each machine therefore sees its inbound messages in the
   same order whatever the partition, and schedules them with the same
   local seq tickets.

Together these make a ``workers=k`` run byte-identical to the
``workers=1`` serial fallback, which executes the very same barrier
algorithm on a single shard.

A request that needs an answer is one :meth:`FleetNode.call`.  Answers
are filed in one store per node, keyed by ``(answer kind, sender)``: an
answer no call waits for, a second one before the first is taken, and
one never taken are each a :class:`ShardError`.  Nodes keep no other
record of delivered messages.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro import trace
from repro.hw.machine import Machine
from repro.metrics import MetricsCollector, MetricsSnapshot
from repro.sim.scheduler import SimError, SimScheduler
from repro.sim.task import WaitFor


class ShardError(SimError):
    """Fleet misuse: lookahead violation, unknown destination, an answer
    no call waits for, a worker process that died, or a barrier loop that
    cannot make progress."""


@dataclass(frozen=True)
class FleetMessage:
    """One cross-machine event, exchanged at a barrier.

    ``src_seq`` is the sender's local FIFO ticket
    (:meth:`~repro.hw.clock.Clock.next_seq`) at post time; it makes the
    global sort key a total order without consulting any global state."""

    src: int
    dst: int
    kind: str
    payload: Any
    deliver_cycle: int
    src_seq: int

    def sort_key(self) -> tuple:
        return (self.deliver_cycle, self.src, self.src_seq, self.dst)


def sort_batch(messages: list[FleetMessage]) -> list[FleetMessage]:
    """Canonical barrier-batch order (see module docstring, leg 3)."""
    return sorted(messages, key=FleetMessage.sort_key)


#: an answer slot that :meth:`FleetNode.ask` opened and no answer filled
_UNANSWERED = object()


class FleetNode:
    """One machine of the fleet: scheduler + tracer + message endpoints.

    Subclass per scenario: build the machine stack in ``__init__`` (the
    pool runs builders under :func:`~repro.hw.machine.isolated_machine_ids`
    so identity is a pure function of ``(index, seed)``), spawn workload
    tasks with :meth:`spawn_traced`, react to messages in
    :meth:`on_message` (passing answers to :meth:`file_answer`), exchange
    request and answer with :meth:`call`, and report scenario numbers
    from :meth:`result`.
    """

    def __init__(self, index: int, machine: Machine,
                 trace_capacity: int = trace.DEFAULT_CAPACITY):
        self.index = index
        self.machine = machine
        self.sched = SimScheduler(machine)
        self.tracer = trace.Tracer(machine.clock,
                                   capacity_per_cpu=trace_capacity)
        #: minimum cross-machine latency, imposed by the pool (= the
        #: barrier window); set when the node joins a shard
        self.min_latency = 0
        self._outbox: list[FleetMessage] = []
        #: the answer store: ``(answer kind, sender) -> payload``, holding
        #: ``_UNANSWERED`` from :meth:`ask` until the answer is filed
        self._answers: dict[tuple[str, int], Any] = {}
        self.messages_sent = 0
        self.messages_received = 0
        #: node-local fault attribution — scenarios that inject faults
        #: into this machine's stack increment this themselves; the
        #: process-global plan counter is meaningless in a fleet
        self.faults_injected = 0

    # -- messaging -------------------------------------------------------

    def post(self, dst: int, kind: str, payload: Any = None,
             latency_cycles: Optional[int] = None) -> FleetMessage:
        """Queue a message to machine ``dst``; picked up at the next
        barrier.  Latency defaults to the minimum (the window) and may be
        anything above it; below it is a lookahead violation."""
        latency = self.min_latency if latency_cycles is None \
            else int(latency_cycles)
        if latency < self.min_latency:
            raise ShardError(
                f"machine {self.index} posted {kind!r} with latency "
                f"{latency} < window {self.min_latency}; conservative "
                f"barriers need latency >= the window")
        now = self.machine.clock.cycles
        msg = FleetMessage(src=self.index, dst=dst, kind=kind,
                           payload=payload, deliver_cycle=now + latency,
                           src_seq=self.machine.clock.next_seq())
        self._outbox.append(msg)
        self.messages_sent += 1
        trace.instant(0, "fleet.msg-post", kind=kind)
        return msg

    def take_outbox(self) -> list[FleetMessage]:
        out, self._outbox = self._outbox, []
        return out

    def on_message(self, msg: FleetMessage) -> None:
        """Delivery callback, fired by the node's own clock at
        ``deliver_cycle`` (or at the next poll if the local clock already
        ran past it).  Default: count the delivery."""
        self.messages_received += 1
        trace.instant(0, "fleet.msg-deliver", kind=msg.kind)

    # -- calls -----------------------------------------------------------

    def ask(self, dst: int, kind: str, answer: str,
            payload: Any = None) -> tuple[str, int]:
        """Post ``kind`` to machine ``dst`` and open the store slot its
        ``answer`` fills; returns the slot's key."""
        key = (answer, dst)
        if key in self._answers:
            raise ShardError(f"machine {self.index} already waits for "
                             f"{answer!r} from machine {dst}")
        self._answers[key] = _UNANSWERED
        self.post(dst, kind, payload)
        return key

    def take_answers(self, keys: list, desc: str) -> Generator:
        """Wait until every slot in ``keys`` is filled, then empty them;
        returns their payloads in ``keys`` order."""
        answers = self._answers
        yield WaitFor(lambda: all(answers[key] is not _UNANSWERED
                                  for key in keys), desc=desc)
        return [answers.pop(key) for key in keys]

    def call(self, dst: int, kind: str, answer: str,
             payload: Any = None) -> Generator:
        """Post ``kind`` to machine ``dst``, wait until ``dst`` sends
        ``answer``, and return that message's payload."""
        key = self.ask(dst, kind, answer, payload)
        (reply,) = yield from self.take_answers(
            [key], desc=f"{answer} from m{dst}")
        return reply

    def file_answer(self, msg: FleetMessage) -> None:
        """Fill the slot of the call waiting for ``msg``."""
        key, answers = (msg.kind, msg.src), self._answers
        if key not in answers:
            raise ShardError(
                f"machine {self.index} got {msg.kind!r} from machine "
                f"{msg.src}, which no call waits for")
        if answers[key] is not _UNANSWERED:
            raise ShardError(
                f"machine {self.index} got a second {msg.kind!r} from "
                f"machine {msg.src} before the first was taken")
        answers[key] = msg.payload

    # -- execution -------------------------------------------------------

    def spawn_traced(self, gen: Generator, **kwargs):
        """Spawn a task with this node's tracer installed, so the spawn
        event lands in this node's ring (builders run outside
        :meth:`advance`)."""
        with trace.tracing(self.tracer):
            return self.sched.spawn(gen, **kwargs)

    def advance(self, horizon: int) -> bool:
        """Run this machine's window under its own tracer."""
        with trace.tracing(self.tracer):
            return self.sched.run_window(horizon)

    # -- reporting -------------------------------------------------------

    def collector(self) -> MetricsCollector:
        """Override to wire kernel/VMM/Mercury counters into snapshots."""
        return MetricsCollector(self.machine)

    def snapshot(self) -> MetricsSnapshot:
        snap = self.collector().snapshot()
        # The collector reads two process-globals — the installed fault
        # plan's counter and the *active* tracer — that cannot be
        # attributed to one machine of a fleet and would make the
        # snapshot depend on which process hosts the node (breaking leg
        # 1 of the determinism contract).  Rebind them to this node's
        # own structures.
        snap.faults_injected = self.faults_injected
        snap.trace_events = self.tracer.recorded
        snap.trace_dropped = self.tracer.dropped
        return snap

    def result(self) -> dict:
        """Scenario-visible numbers; subclasses extend.  Everything here
        must be deterministic (it feeds ``FleetResult.canonical_output``).
        """
        return {
            "cycles": self.machine.clock.cycles,
            "messages_received": self.messages_received,
            "messages_sent": self.messages_sent,
        }


#: builder signature the pool expects: ``builder(index, seed, **kwargs)``
NodeBuilder = Callable[..., FleetNode]


@dataclass
class ShardReport:
    """What a shard tells the pool after one window (picklable)."""

    outbound: list[FleetMessage]
    finished: bool
    #: earliest cycle any hosted machine has runnable work at, or None
    next_cycle: Optional[int]


class Shard:
    """A bundle of fleet nodes stepped together between barriers."""

    def __init__(self, shard_id: int, min_latency: int):
        self.shard_id = shard_id
        self.min_latency = min_latency
        self.nodes: dict[int, FleetNode] = {}
        #: each node's ``next_work_cycle()`` as of its last step
        self._key: dict[int, Optional[int]] = {}
        #: ``(key, index)`` heap; an entry whose cycle no longer equals
        #: ``_key[index]`` is stale and skipped
        self._work: list[tuple[int, int]] = []
        self._unfinished: set[int] = set()

    def add(self, node: FleetNode) -> None:
        if node.index in self.nodes:
            raise ShardError(f"duplicate machine index {node.index}")
        node.min_latency = self.min_latency
        self.nodes[node.index] = node
        # keyed at cycle 0, so every node runs in the first window
        self._key[node.index] = 0
        heapq.heappush(self._work, (0, node.index))
        self._unfinished.add(node.index)

    def _deliver(self, msg: FleetMessage) -> None:
        node = self.nodes.get(msg.dst)
        if node is None:
            raise ShardError(
                f"message {msg.kind!r} addressed to machine {msg.dst}, "
                f"not hosted on shard {self.shard_id}")
        node.machine.clock.schedule_at(
            msg.deliver_cycle, lambda m=msg, n=node: n.on_message(m))

    def step(self, horizon: int, inbound: list[FleetMessage]) -> ShardReport:
        """Inject this window's batch, run every *due* node to ``horizon``,
        and report outbound messages plus progress state.

        ``inbound`` arrives pre-sorted in canonical order; scheduling the
        deliveries in that order assigns each machine's clock tickets
        identically under every partition.

        A node is due when it gets an inbound message in this window or
        its key (``next_work_cycle()`` after its last step, 0 before its
        first) is at or before ``horizon``.  Skipping the others is
        exact: for a node with no inbound message whose key is None or
        beyond the horizon, ``run_window(horizon)`` would change nothing
        but ``sched.steps``.  Its blocked predicates read only its own
        state (leg 1), unchanged since its last ``_admit_unblocked``; its
        ready head and clock head lie past the horizon, so the loop
        returns at once; with neither, its last step ended on a
        ``machine.poll()`` that returned 0.  Its clock, seq tickets,
        trace ring and outbox stay untouched, and so do its key and
        whether it has finished.  Only stepped nodes are re-keyed, so no
        per-window work here scales with the number of nodes."""
        due: set[int] = set()
        for msg in inbound:
            self._deliver(msg)
            due.add(msg.dst)
        key, work = self._key, self._work
        while work and work[0][0] <= horizon:
            cycle, index = heapq.heappop(work)
            if key[index] == cycle:
                due.add(index)
        outbound: list[FleetMessage] = []
        for index in sorted(due):
            node = self.nodes[index]
            if node.advance(horizon):
                self._unfinished.discard(index)
            else:
                self._unfinished.add(index)
            outbound.extend(node.take_outbox())
            old = key[index]
            cycle = key[index] = node.sched.next_work_cycle()
            # an unchanged key beyond the horizon still has its entry
            if cycle is not None and not (cycle == old and old > horizon):
                heapq.heappush(work, (cycle, index))
        while work and key[work[0][1]] != work[0][0]:
            heapq.heappop(work)
        return ShardReport(
            outbound=outbound,
            finished=not self._unfinished,
            next_cycle=work[0][0] if work else None)

    def blocked(self) -> list:
        """(machine index, task name) of every blocked task; the pool asks
        only when it is about to report a deadlock."""
        return [(index, name) for index in sorted(self.nodes)
                for name in self.nodes[index].sched.blocked_names()]

    def collect(self) -> dict:
        """Final per-node data, in picklable primitives + dataclasses.
        Each node's trace is finalised here, next to its ring: its
        canonical lines and the ring's :func:`~repro.trace.validate`
        errors."""
        data: dict = {"results": {}, "snapshots": {}, "traces": {}}
        for index in sorted(self.nodes):
            node = self.nodes[index]
            if node._answers:
                raise ShardError(
                    f"machine {index} ended its run with answers never "
                    f"taken: {sorted(node._answers)}")
            events = node.tracer.events()
            data["results"][index] = node.result()
            data["snapshots"][index] = node.snapshot()
            data["traces"][index] = (
                trace.canonical_lines(events),
                trace.validate(events, node.tracer.dropped))
        return data
