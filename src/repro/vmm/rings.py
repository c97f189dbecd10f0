"""Shared-memory I/O rings — the Xen frontend/backend transport (§5.2).

One ring lives in a shared page and carries fixed-size request and response
slots with free-running producer/consumer indices (Xen's ``RING_*`` macros).
The frontend produces requests and consumes responses; the backend does the
opposite.  Indices only ever increase; slot positions are ``index % size``.
Protocol violations (overrun, consuming past the producer) raise
:class:`~repro.errors.RingError` — property tests hammer these invariants.

Notification avoidance
----------------------
Besides the four data indices the ring carries two *event* indices,
``req_event`` and ``rsp_event``, exactly as Xen's shared ring does.  A
consumer that is about to go idle advertises the producer index at which it
wants to be woken (``final_check_for_requests``: set ``req_event =
req_cons + 1`` *then* re-check for work — that ordering is what makes the
protocol lost-wakeup free).  A producer that has just published a batch
only notifies when its push crossed the advertised wakeup index
(``push_requests_and_check_notify``); while the consumer is known to be
awake and polling, the event channel stays silent.  This is the
``RING_PUSH_REQUESTS_AND_CHECK_NOTIFY`` / ``RING_FINAL_CHECK_FOR_*``
pairing that lets the split-driver datapath amortize one notification over
a whole batch of requests.  :func:`publish` is the one place a producer —
any frontend or backend — runs that check and counts, traces and sends the
resulting notification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generic, Optional, TypeVar

from repro import trace
from repro.errors import RingError

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu

T = TypeVar("T")


@dataclass
class RingCounters:
    req_prod: int = 0
    req_cons: int = 0
    rsp_prod: int = 0
    rsp_cons: int = 0
    #: producer index at which the request consumer wants a wakeup
    #: (Xen: notify iff a push crosses this index)
    req_event: int = 1
    #: producer index at which the response consumer wants a wakeup
    rsp_event: int = 1


@dataclass
class IoStats:
    """Datapath-wide notification and batching counters.

    One instance is shared by every frontend/backend a hypervisor wires
    (``vmm.io_stats``); standalone drivers get a private one.  The metrics
    layer surfaces these as the §5.2 notification-avoidance figures.
    """

    notifies_sent: int = 0
    notifies_suppressed: int = 0
    ring_batches: int = 0
    ring_batched_entries: int = 0
    rx_dropped: int = 0


def publish(cpu: "Cpu", ring: "IoRing", side: str, stats: IoStats,
            notify: Callable[["Cpu"], None], batch: int = 0,
            dev: Optional[str] = None) -> None:
    """The §5.2 publish step every frontend and backend shares.

    Publishes what the producer pushed on ``side`` of ``ring`` (``"req"``:
    requests, ``"resp"``: responses) and calls ``notify`` only when the
    push crossed the consumer's advertised wakeup index, counting the
    notify as sent or suppressed.  ``batch`` entries count as one ring
    batch, and ``dev`` names the ``io.doorbell`` event traced just before
    the notify; netback's single-frame RX forward passes neither."""
    if batch:
        stats.ring_batches += 1
        stats.ring_batched_entries += batch
    if side == "req":
        kick = ring.push_requests_and_check_notify()
    else:
        kick = ring.push_responses_and_check_notify()
    if not kick:
        stats.notifies_suppressed += 1
        return
    stats.notifies_sent += 1
    # hot path: skip the hook call when no tracer is installed
    if dev is not None and trace._ACTIVE is not None:
        trace.instant(cpu.cpu_id, "io.doorbell", dev=dev, ring=side)
    notify(cpu)


class IoRing(Generic[T]):
    """One front/back ring pair of ``size`` slots (power of two)."""

    def __init__(self, size: int = 32):
        if size <= 0 or size & (size - 1):
            raise RingError(f"ring size must be a power of two, got {size}")
        self.size = size
        self.c = RingCounters()
        self._req: list[Optional[T]] = [None] * size
        self._rsp: list[Optional[T]] = [None] * size
        #: producer indices already published at the last notify check —
        #: the ``old`` of Xen's PUSH_AND_CHECK macros
        self._req_pub = 0
        self._rsp_pub = 0

    # -- frontend side ----------------------------------------------------

    def push_request(self, req: T) -> None:
        # A request slot is reusable once its *response* has been consumed;
        # in-flight work (produced requests + pending responses) may never
        # exceed the ring size.
        if self.c.req_prod - self.c.rsp_cons >= self.size:
            raise RingError("request ring full")
        self._req[self.c.req_prod % self.size] = req
        self.c.req_prod += 1

    def pop_response(self) -> T:
        if self.c.rsp_cons >= self.c.rsp_prod:
            raise RingError("no responses to consume")
        rsp = self._rsp[self.c.rsp_cons % self.size]
        self.c.rsp_cons += 1
        return rsp  # type: ignore[return-value]

    def has_responses(self) -> bool:
        return self.c.rsp_cons < self.c.rsp_prod

    def free_request_slots(self) -> int:
        return self.size - (self.c.req_prod - self.c.rsp_cons)

    # -- backend side --------------------------------------------------------

    def pop_request(self) -> T:
        if self.c.req_cons >= self.c.req_prod:
            raise RingError("no requests to consume")
        req = self._req[self.c.req_cons % self.size]
        self.c.req_cons += 1
        return req  # type: ignore[return-value]

    def has_requests(self) -> bool:
        return self.c.req_cons < self.c.req_prod

    def push_response(self, rsp: T) -> None:
        # every response answers a consumed request, so rsp_prod can never
        # pass req_cons
        if self.c.rsp_prod >= self.c.req_cons:
            raise RingError("response without a consumed request")
        self._rsp[self.c.rsp_prod % self.size] = rsp
        self.c.rsp_prod += 1

    # -- notification-avoidance protocol -----------------------------------

    def push_requests_and_check_notify(self) -> bool:
        """Publish pushed requests; True iff the consumer needs a kick.

        Xen's ``RING_PUSH_REQUESTS_AND_CHECK_NOTIFY``: notify only when the
        new producer index crossed the consumer's advertised ``req_event``
        — i.e. the consumer declared itself idle somewhere inside the span
        this push just published."""
        old, new = self._req_pub, self.c.req_prod
        self._req_pub = new
        return old < self.c.req_event <= new

    def final_check_for_requests(self) -> bool:
        """Consumer is about to sleep: advertise the wakeup index, *then*
        re-check.  True means requests slipped in and the consumer must do
        another pass instead of sleeping (``RING_FINAL_CHECK_FOR_REQUESTS``
        — the re-check after publishing ``req_event`` is what closes the
        lost-wakeup window)."""
        self.c.req_event = self.c.req_cons + 1
        return self.has_requests()

    def push_responses_and_check_notify(self) -> bool:
        """Backend twin of :meth:`push_requests_and_check_notify`."""
        old, new = self._rsp_pub, self.c.rsp_prod
        self._rsp_pub = new
        return old < self.c.rsp_event <= new

    def final_check_for_responses(self) -> bool:
        """Frontend twin of :meth:`final_check_for_requests`."""
        self.c.rsp_event = self.c.rsp_cons + 1
        return self.has_responses()

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        c = self.c
        if not (c.rsp_cons <= c.rsp_prod <= c.req_cons <= c.req_prod):
            raise RingError(f"index ordering violated: {c}")
        if c.req_prod - c.rsp_cons > self.size:
            raise RingError(f"ring overcommitted: {c}")
        if not (self._req_pub <= c.req_prod and self._rsp_pub <= c.rsp_prod):
            raise RingError(f"published past produced: {c}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IoRing(size={self.size}, {self.c})"
