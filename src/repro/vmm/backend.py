"""Backend drivers (blkback / netback) hosted in the driver domain (§5.2).

The backend end of the split-driver model: it consumes requests from a
shared-memory ring, maps the granted payload pages, performs the real device
operation through the driver domain's own (native or para-virtual) driver,
and pushes responses back, notifying the frontend over an event channel.

Every backend is a NAPI-style polled consumer: a frontend notification
masks the event channel and enters a poll loop that drains requests under a
bounded budget (``io_poll_budget``), maps grants once per drain batch,
pushes the whole batch of responses with at most one coalesced completion
notify (:meth:`_NapiBackend._respond`, through the shared
:func:`~repro.vmm.rings.publish` step), and only goes back to sleep after
unmasking and running the lost-wakeup-free final check
(:meth:`~repro.vmm.rings.IoRing.final_check_for_requests`).

The paper's dbench observation — domainU *faster* than native because the
split model batches and caches writes (§7.3) — comes from
:class:`BlkBack`'s write-behind cache: the backend acknowledges writes once
they are in its cache, flushing asynchronously, "at the cost of possible
inconsistency during crash" (the paper cites EXPLODE for that caveat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import RingError
from repro.hw.devices import BlockRequest, Packet
from repro.vmm.rings import IoRing, IoStats, publish

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.vmm.domain import Domain
    from repro.vmm.events import Channel, EventChannels
    from repro.vmm.grants import GrantTable
    from repro.vmm.hypervisor import Hypervisor


@dataclass
class BlkRingEntry:
    """One block request as carried on the ring."""

    op: str                # "read" | "write" | "flush"
    block: int
    grant_ref: Optional[int] = None
    data: object = None
    result: object = None
    ok: bool = True
    tag: object = None
    #: set by the frontend once the response has been consumed
    completed: bool = False


@dataclass
class NetRingEntry:
    """One packet handed between netfront and netback."""

    pkt: Packet = None
    tag: object = None


@dataclass
class BalloonRingEntry:
    """One balloon message as carried on the ring.

    ``inflate`` surrenders frames: ``frames`` holds ``(frame, grant_ref)``
    pairs the guest granted to the driver domain.  ``deflate`` asks for
    ``count`` pages back; the backend fills ``frames`` with the granted
    frame numbers in the response."""

    op: str                               # "inflate" | "deflate"
    frames: tuple = ()
    count: int = 0
    tag: object = None                    # granting (guest) domain id
    ok: bool = True
    #: set by the frontend once the response has been consumed
    completed: bool = False


class _NapiBackend:
    """Shared poll-loop machinery: channel masking, budgeted drain rounds,
    the response publish, and the unmask + final-check sleep protocol."""

    #: device name on this backend's ``io.doorbell`` trace events
    DEV = ""

    def __init__(self, vmm: "Hypervisor", driver_domain: "Domain",
                 notify_frontend: Callable[["Cpu"], None],
                 stats: Optional[IoStats]):
        self.vmm = vmm
        self.driver_domain = driver_domain
        self.notify_frontend = notify_frontend
        self.stats = stats if stats is not None else IoStats()
        #: the backend's end of the event channel, when wired through one
        self.channel: Optional["Channel"] = None
        self._in_poll = False

    def bind_channel(self, channel: "Channel") -> None:
        self.channel = channel

    def _drain(self, cpu: "Cpu") -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _main_ring(self) -> IoRing:  # pragma: no cover - abstract
        raise NotImplementedError

    def _respond(self, cpu: "Cpu", ring: IoRing, batch: list) -> int:
        """Push a drained batch's responses on ``ring`` and publish them
        with at most one coalesced completion notify."""
        for entry in batch:
            ring.push_response(entry)
        if batch:
            publish(cpu, ring, "resp", self.stats, self.notify_frontend,
                    len(batch), self.DEV)
        return len(batch)

    def poll(self, cpu: "Cpu") -> int:
        """Service the request ring: mask, drain in budgeted rounds, then
        unmask and final-check before going idle.  Returns entries handled.

        Re-entrant calls (the unmask replaying a pending event into the
        handler mid-poll) are absorbed — the outer loop's final check picks
        up whatever the replay would have signalled."""
        if self._in_poll:
            return 0
        self._in_poll = True
        ch = self.channel
        events = self.vmm.events if self.vmm is not None else None
        try:
            total = 0
            guard = 0
            if ch is not None and events is not None:
                events.mask(ch)
            while True:
                total += self._drain(cpu)
                if ch is not None and events is not None:
                    events.unmask(cpu, ch)
                if not self._main_ring().final_check_for_requests():
                    return total
                if ch is not None and events is not None:
                    events.mask(ch)
                guard += 1
                if guard > 1_000_000:  # pragma: no cover - defensive
                    raise RingError("backend poll did not converge")
        finally:
            self._in_poll = False


class BlkBack(_NapiBackend):
    """Block backend: bridges a frontend ring to the real disk."""

    DEV = "blk"

    def __init__(self, vmm: "Hypervisor", driver_domain: "Domain",
                 ring: IoRing, notify_frontend: Callable[["Cpu"], None],
                 submit: Callable[["Cpu", BlockRequest], None],
                 stats: Optional[IoStats] = None):
        super().__init__(vmm, driver_domain, notify_frontend, stats)
        self.ring = ring
        self._submit = submit
        #: write-behind cache: writes are acknowledged from it (the split
        #: model's throughput win on dbench)
        self._cache: dict[int, object] = {}
        #: async flushes in flight (bounded write-behind)
        self._in_flight: list[BlockRequest] = []
        self.requests_handled = 0
        self.flushes = 0

    #: max cached-acked writes in flight before the backend throttles
    FLUSH_DEPTH = 4

    def _main_ring(self) -> IoRing:
        return self.ring

    def _reap_flushes(self) -> None:
        self._in_flight = [r for r in self._in_flight if not r.done]

    def _wait_tick(self) -> None:
        """Advance to the next device event (while throttled)."""
        machine = self.vmm.machine
        deadline = machine.clock.next_deadline()
        if deadline is None:
            self._in_flight.clear()
            return
        if deadline > machine.clock.cycles:
            machine.clock.cycles = deadline
        machine.clock.run_due()

    def _drain(self, cpu: "Cpu") -> int:
        """One budgeted drain round: batch-consume requests, map each
        distinct grant once, push the batch of responses with a single
        coalesced completion notify."""
        budget = cpu.cost.io_poll_budget
        batch: list[BlkRingEntry] = []
        mapped: dict[tuple, None] = {}
        while self.ring.has_requests() and len(batch) < budget:
            entry: BlkRingEntry = self.ring.pop_request()
            cpu.charge(cpu.cost.cyc_ring_hop if not batch
                       else cpu.cost.cyc_ring_entry_batched)
            key = (entry.tag, entry.grant_ref)
            if entry.grant_ref is not None and key not in mapped:
                # map the frontend's payload page once for the whole drain
                self.vmm.grants.map(cpu, self.driver_domain.domain_id,
                                    entry.tag, entry.grant_ref)
                mapped[key] = None
            self._handle(cpu, entry)
            batch.append(entry)
            self.requests_handled += 1
        for tag, ref in mapped:
            self.vmm.grants.unmap(cpu, tag, ref)
        return self._respond(cpu, self.ring, batch)

    def _handle(self, cpu: "Cpu", entry: BlkRingEntry) -> None:
        if entry.op == "read":
            if entry.block in self._cache:
                entry.result = self._cache[entry.block]
                return
            req = BlockRequest(op="read", block=entry.block)
            self._submit(cpu, req)
            self._wait(req)
            entry.result = req.result
        elif entry.op == "write":
            self._cache[entry.block] = entry.data
            # async flush: cheap ack now, device work deferred
            req = BlockRequest(op="write", block=entry.block, data=entry.data)
            self._in_flight.append(req)
            self.vmm.machine.clock.schedule(
                cpu.cost.cyc_disk_submit,
                lambda r=req: self.vmm.machine.disk.submit(r))
            # bounded write-behind: past FLUSH_DEPTH the backend stops
            # acking from cache and lets the backlog drain
            self._reap_flushes()
            while len(self._in_flight) > self.FLUSH_DEPTH:
                self._wait_tick()
                self._reap_flushes()
        elif entry.op == "flush":
            self.flushes += 1
            self._cache.clear()
        else:
            entry.ok = False

    def _wait(self, req: BlockRequest) -> None:
        """Drive the machine's event loop until the device completes."""
        machine = self.vmm.machine
        guard = 0
        while not req.done:
            deadline = machine.clock.next_deadline()
            if deadline is None:
                raise RingError("blkback waiting with no pending device event")
            if deadline > machine.clock.cycles:
                machine.clock.cycles = deadline
            machine.clock.run_due()
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - defensive
                raise RingError("blkback wait did not converge")


class BalloonBack(_NapiBackend):
    """Balloon backend: commits reservation changes for one guest domain.

    Inflate requests carry granted frames; the backend takes each grant
    (paying the map/unmap cost — the ownership check rides the grant
    machinery), retires the frame's page-info columns and returns it to the
    host free pool.  Deflate requests allocate frames back to the guest.
    The reservation ledger on the :class:`~repro.vmm.domain.Domain` is
    adjusted only here, so ledger and owner column move together."""

    DEV = "balloon"

    def __init__(self, vmm: "Hypervisor", driver_domain: "Domain",
                 guest_domain: "Domain", ring: IoRing,
                 notify_frontend: Callable[["Cpu"], None],
                 stats: Optional[IoStats] = None):
        super().__init__(vmm, driver_domain, notify_frontend, stats)
        self.guest_domain = guest_domain
        self.ring = ring
        #: pages moved guest -> host pool / host pool -> guest, lifetime
        self.inflated = 0
        self.deflated = 0
        self.requests_handled = 0
        #: reservation target + (hypervisor-driven only) explicit victim
        #: frames, posted by the elastic controller; the frontend reads
        #: them on the target upcall — the xenstore-watch analogue
        self.target_pages: Optional[int] = None
        self.victim_frames: tuple = ()

    def _main_ring(self) -> IoRing:
        return self.ring

    def set_target(self, cpu: "Cpu", pages: int, victims=()) -> None:
        """Post a new reservation target (and, for hypervisor-driven
        reclaim, the exact frames to surrender) and kick the frontend."""
        self.target_pages = pages
        self.victim_frames = tuple(victims)
        cpu.charge(cpu.cost.cyc_event_channel)
        self.notify_frontend(cpu)

    def _drain(self, cpu: "Cpu") -> int:
        """One budgeted drain round: commit a batch of reservation changes,
        push the batch of responses with a single coalesced notify."""
        budget = cpu.cost.io_poll_budget
        batch: list[BalloonRingEntry] = []
        while self.ring.has_requests() and len(batch) < budget:
            entry: BalloonRingEntry = self.ring.pop_request()
            cpu.charge(cpu.cost.cyc_ring_hop if not batch
                       else cpu.cost.cyc_ring_entry_batched)
            self._handle(cpu, entry)
            batch.append(entry)
            self.requests_handled += 1
        return self._respond(cpu, self.ring, batch)

    def _handle(self, cpu: "Cpu", entry: BalloonRingEntry) -> None:
        mem = self.vmm.machine.memory
        dom = self.guest_domain
        if entry.op == "inflate":
            for frame, ref in entry.frames:
                # take the grant (ownership was checked when the guest
                # created it; the map checks it is really for us) ...
                self.vmm.grants.map(cpu, self.driver_domain.domain_id,
                                    dom.domain_id, ref)
                self.vmm.grants.unmap(cpu, dom.domain_id, ref)
                self.vmm.grants.revoke(dom.domain_id, ref)
                # ... then move the frame to the host free pool.  The
                # page-info release refuses pinned/PT/still-mapped frames,
                # so a buggy frontend cannot leak dangling references.
                self.vmm.page_info.release_frame(frame)
                mem.free(frame)
            dom.balloon_adjust(-len(entry.frames))
            self.inflated += len(entry.frames)
        elif entry.op == "deflate":
            frames = mem.alloc_many(dom.domain_id, entry.count)
            cpu.charge(cpu.cost.cyc_page_alloc * entry.count)
            entry.frames = tuple(frames)
            dom.balloon_adjust(entry.count)
            self.deflated += entry.count
        else:
            entry.ok = False


class NetBack(_NapiBackend):
    """Network backend: bridges netfront rings to the real NIC."""

    DEV = "net"

    def __init__(self, vmm: "Hypervisor", driver_domain: "Domain",
                 tx_ring: IoRing, rx_ring: IoRing,
                 notify_frontend: Callable[["Cpu"], None],
                 transmit: Callable[["Cpu", Packet], None],
                 stats: Optional[IoStats] = None):
        super().__init__(vmm, driver_domain, notify_frontend, stats)
        self.tx_ring = tx_ring      # frontend -> backend (guest transmits)
        self.rx_ring = rx_ring      # backend -> frontend (guest receives)
        self._transmit = transmit
        self.tx_handled = 0
        self.rx_forwarded = 0

    def _main_ring(self) -> IoRing:
        return self.tx_ring

    def _drain(self, cpu: "Cpu") -> int:
        """One budgeted TX drain round: forward a batch to the wire, then
        push the whole batch of completions with one coalesced notify."""
        self._reap_rx_completions()
        cost = cpu.cost
        budget = cost.io_poll_budget
        clk = cpu.clock
        batch: list[NetRingEntry] = []
        while self.tx_ring.has_requests() and len(batch) < budget:
            entry: NetRingEntry = self.tx_ring.pop_request()
            # ring hop (first entry) or batched-entry cost, plus the payload
            # copy out of the granted page and the per-packet netback tax
            # (grant map/unmap, page-flip mmu work, softirq, bridge) — one
            # direct clock add per packet on the datapath's hottest loop
            clk.cycles += ((cost.cyc_ring_hop if not batch
                            else cost.cyc_ring_entry_batched)
                           + cost.cyc_net_copy_per_kb
                           * max(1, entry.pkt.size_bytes // 1024)
                           + cost.cyc_netback_per_packet)
            self._transmit(cpu, entry.pkt)
            batch.append(entry)
            self.tx_handled += 1
        return self._respond(cpu, self.tx_ring, batch)

    def _reap_rx_completions(self) -> None:
        """Reclaim RX buffers the frontend has consumed (frees rx slots)."""
        while self.rx_ring.has_responses():
            self.rx_ring.pop_response()

    def forward_rx(self, cpu: "Cpu", pkt: Packet) -> None:
        """Push a received wire packet up to the frontend.

        Notification rides the check-notify protocol: only the push that
        finds the guest idle fires the channel (and so pays the guest
        wakeup); a burst arriving while the guest's upcall is still in
        flight coalesces onto the already-pending event.  A ring with no
        free slots drops the frame, as real netback does — reliability is
        the transport protocol's job (§5.2)."""
        self._reap_rx_completions()
        if self.rx_ring.free_request_slots() == 0:
            self.stats.rx_dropped += 1
            return
        cpu.charge(cpu.cost.cyc_ring_hop)
        cpu.charge(cpu.cost.cyc_net_copy_per_kb * max(1, pkt.size_bytes // 1024))
        self.rx_ring.push_request(NetRingEntry(pkt=pkt))
        # rings are symmetric; the frontend consumes rx entries as requests
        self.rx_forwarded += 1
        publish(cpu, self.rx_ring, "req", self.stats, self.notify_frontend)
