"""Para-virtual frontend drivers (blkfront / netfront) and split-I/O wiring.

DomainU guests have no direct device access: their block and network
traffic crosses shared-memory rings to the backend drivers in the driver
domain (§5.2).  The batched flow per *burst* of requests:

    frontend: push a batch of requests on the ring
              -> push_requests_and_check_notify: event-channel notify only
                 if the backend had advertised itself idle
    backend : poll loop — mask the channel, drain the batch, push the batch
              of responses with one coalesced completion notify, unmask,
              final-check, sleep
    frontend: consume the response batch on the (single) completion event

Every hop charges ring/copy/event/grant costs on the CPU, which is where
domainU's I/O overhead in Fig. 3/4 (and its dbench *win*, via the backend
write cache) comes from.  The notification-avoidance protocol
(:mod:`repro.vmm.rings`) is what keeps the event channel quiet while both
sides are streaming — one notify amortizes over a whole TX queue flush or
blkfront submission batch instead of firing per packet/block.

:func:`connect_split_block` / :func:`connect_split_net` /
:func:`connect_split_balloon` wire a guest kernel to a driver-domain kernel
through a hypervisor, all through one channel setup.  Mercury's one wiring
path (:meth:`~repro.core.mercury.Mercury.wire`) calls them when its
self-virtualized OS hosts an unmodified guest (the M-U configuration), when
a migrated guest lands (§5.2: frontends reconnect to the new host's
backends) and when a VMM microreboot re-hosts its guests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import NetworkError, RingError
from repro.hw.devices import Packet
from repro.hw.paging import PTE_FRAME_SHIFT, PTE_P
from repro.params import PAGE_SIZE
from repro.vmm.backend import (BalloonBack, BalloonRingEntry, BlkBack,
                               BlkRingEntry, NetBack, NetRingEntry)
from repro.vmm.rings import IoRing, IoStats, publish

if TYPE_CHECKING:
    from repro.core.accounting import MmuAccounting
    from repro.guestos.kernel import Kernel
    from repro.guestos.process import Task
    from repro.hw.cpu import Cpu
    from repro.vmm.hypervisor import Hypervisor


class _RingFront:
    """The frontend end of one request ring, shared by blkfront and the
    balloon: queued submit, one publish per batch, response reaping."""

    #: device name on this frontend's ``io.doorbell`` trace events
    DEV = ""
    #: names in the errors raised when the ring stays full and when an
    #: awaited response never arrives
    RING_NAME = ""
    BACKEND_NAME = ""

    def __init__(self, kernel: "Kernel", ring: IoRing, notify_backend,
                 stats: Optional[IoStats]):
        self.kernel = kernel
        self.ring = ring
        self.notify_backend = notify_backend
        self.stats = stats if stats is not None else IoStats()
        #: responses reaped, lifetime
        self.requests = 0
        #: entries pushed since the last publish (for per-batch charging)
        self._batch_n = 0

    def submit(self, cpu: "Cpu", entry) -> None:
        """Queue one request on the ring without notifying.  The first
        entry of a batch pays the full ring crossing; later entries ride
        the same cachelines."""
        if self.ring.free_request_slots() == 0:
            # publish what is queued so the backend can drain, then reap
            self.flush_submissions(cpu)
            self.complete(cpu)
            if self.ring.free_request_slots() == 0:
                raise RingError(f"{self.RING_NAME} ring wedged: no free "
                                f"slots and no completions arriving")
        cpu.charge(cpu.cost.cyc_ring_hop if self._batch_n == 0
                   else cpu.cost.cyc_ring_entry_batched)
        self.ring.push_request(entry)
        self._batch_n += 1

    def flush_submissions(self, cpu: "Cpu") -> None:
        """Publish queued requests; notify at most once, and only when the
        backend had advertised itself idle."""
        n, self._batch_n = self._batch_n, 0
        if n:
            publish(cpu, self.ring, "req", self.stats, self.notify_backend,
                    n, self.DEV)

    def complete(self, cpu: "Cpu") -> int:
        """Reap completed responses (the completion-event upcall).  The
        final check re-advertises the wakeup index before going idle, so
        the backend's next completion push notifies."""
        done = 0
        while True:
            while self.ring.has_responses():
                entry = self.ring.pop_response()
                entry.completed = True
                self.requests += 1
                done += 1
            if not self.ring.final_check_for_responses():
                return done

    def _await(self, cpu: "Cpu", entry):
        if not entry.completed:
            self.complete(cpu)
        if not entry.completed:
            raise RingError(f"{self.BACKEND_NAME} did not respond")
        return entry


class BlkFront(_RingFront):
    """Block frontend: presents the kernel's block-driver interface on top
    of a request ring to blkback, with queued submit/complete semantics."""

    DEV = "blk"
    RING_NAME = "blkfront"
    BACKEND_NAME = "blkback"

    def __init__(self, kernel: "Kernel", ring: IoRing, notify_backend,
                 grant_ref: Optional[int] = None,
                 stats: Optional[IoStats] = None):
        super().__init__(kernel, ring, notify_backend, stats)
        self.grant_ref = grant_ref

    # -- kernel-facing API ----------------------------------------------

    def _one(self, cpu: "Cpu", entry: BlkRingEntry) -> BlkRingEntry:
        self.submit(cpu, entry)
        self.flush_submissions(cpu)
        return self._await(cpu, entry)

    def read_block(self, cpu: "Cpu", block: int) -> object:
        entry = BlkRingEntry(op="read", block=block, grant_ref=self.grant_ref,
                             tag=self.kernel.owner_id)
        return self._one(cpu, entry).result

    def write_block(self, cpu: "Cpu", block: int, data: object) -> None:
        entry = BlkRingEntry(op="write", block=block, data=data,
                             grant_ref=self.grant_ref, tag=self.kernel.owner_id)
        self._one(cpu, entry)

    def write_blocks(self, cpu: "Cpu", blocks: list[tuple[int, object]]) -> None:
        """Batch write: fill the ring, notify at most once per chunk, reap
        the response batch.  A backend that stops responding raises
        :class:`~repro.errors.RingError` instead of silently spinning on a
        stale ``free_request_slots``."""
        i = 0
        while i < len(blocks):
            chunk = blocks[i:i + self.ring.free_request_slots()]
            if not chunk:
                raise RingError("blkfront ring wedged: no free slots and "
                                "no completions arriving")
            entries = [BlkRingEntry(op="write", block=block, data=data,
                                    grant_ref=self.grant_ref,
                                    tag=self.kernel.owner_id)
                       for block, data in chunk]
            for entry in entries:
                self.submit(cpu, entry)
            self.flush_submissions(cpu)
            self.complete(cpu)
            if not entries[-1].completed:
                raise RingError(
                    "blkback wedged: batch submitted but responses never "
                    "arrived")
            i += len(chunk)

    def flush(self, cpu: "Cpu") -> None:
        entry = BlkRingEntry(op="flush", block=0, tag=self.kernel.owner_id)
        self._one(cpu, entry)


class NetFront:
    """Network frontend: TX queue flushed onto the tx ring with at most one
    notify per flush; batched RX drain from the rx ring fed by netback."""

    def __init__(self, kernel: "Kernel", tx_ring: IoRing, rx_ring: IoRing,
                 notify_backend, stats: Optional[IoStats] = None):
        self.kernel = kernel
        self.tx_ring = tx_ring
        self.rx_ring = rx_ring
        self.notify_backend = notify_backend
        self.stats = stats if stats is not None else IoStats()
        self.tx = 0
        self.rx = 0
        #: packets queued by ``transmit(..., more=True)`` awaiting a flush
        self._txq: list[Packet] = []
        self._flush_timer_armed = False

    # -- transmit --------------------------------------------------------

    def transmit(self, cpu: "Cpu", pkt: Packet, more: bool = False) -> None:
        """Queue one packet.  ``more=True`` is the xmit_more hint from the
        stack: the caller promises another packet (or a flush) follows, so
        the doorbell is deferred and the whole burst shares one notify."""
        cpu.clock.cycles += (cpu.cost.cyc_net_copy_per_kb
                             * max(1, pkt.size_bytes // 1024))
        self._txq.append(pkt)
        self.tx += 1
        if more and len(self._txq) < cpu.cost.io_tx_coalesce_max:
            # delayed doorbell: if the promised flush never comes, a short
            # timer pushes the tail out
            if not self._flush_timer_armed:
                self._flush_timer_armed = True
                self.kernel.machine.clock.schedule(
                    cpu.cost.cyc_tx_coalesce_delay,
                    lambda: self._timer_flush(cpu))
            return
        self.tx_flush(cpu)

    def _timer_flush(self, cpu: "Cpu") -> None:
        self._flush_timer_armed = False
        if self._txq:
            self.tx_flush(cpu)

    def tx_flush(self, cpu: "Cpu") -> int:
        """Move the TX queue onto the ring and notify at most once."""
        flushed = 0
        n = 0
        while self._txq:
            self._reap_tx_completions()
            if self.tx_ring.free_request_slots() == 0:
                # publish the partial batch so the backend can drain it
                self._publish(cpu, n)
                n = 0
                self._reap_tx_completions()
                if self.tx_ring.free_request_slots() == 0:
                    raise NetworkError(
                        "netfront tx ring wedged: backend reaps nothing")
            pkt = self._txq.pop(0)
            cpu.clock.cycles += (cpu.cost.cyc_ring_hop if n == 0
                                 else cpu.cost.cyc_ring_entry_batched)
            self.tx_ring.push_request(NetRingEntry(pkt=pkt))
            n += 1
            flushed += 1
        self._publish(cpu, n)
        return flushed

    def _publish(self, cpu: "Cpu", n: int) -> None:
        if n:
            publish(cpu, self.tx_ring, "req", self.stats, self._wake_backend,
                    n, "net")

    def _wake_backend(self, cpu: "Cpu") -> None:
        # the notification wakes the driver domain's vcpu — paid only when
        # a notify is actually delivered, not per packet
        cpu.charge(cpu.cost.cyc_guest_sched_latency)
        self.notify_backend(cpu)

    def _reap_tx_completions(self) -> None:
        while self.tx_ring.has_responses():
            self.tx_ring.pop_response()

    # -- receive ---------------------------------------------------------

    def upcall(self, cpu: "Cpu") -> int:
        """Event-channel upcall: reap TX completions lazily (no wakeup
        advertised for them — netfront reclaims slots on the next flush)
        and drain the RX ring."""
        self._reap_tx_completions()
        return self.rx_poll(cpu)

    def rx_poll(self, cpu: "Cpu") -> int:
        """Drain the rx ring into the guest's network stack; re-advertise
        the wakeup index and re-check before going idle."""
        drained = 0
        while True:
            while self.rx_ring.has_requests():
                entry: NetRingEntry = self.rx_ring.pop_request()
                cpu.charge(cpu.cost.cyc_ring_hop if drained == 0
                           else cpu.cost.cyc_ring_entry_batched)
                self.rx_ring.push_response(entry)
                self.rx += 1
                drained += 1
                self.kernel.net_rx(cpu, entry.pkt)
            if not self.rx_ring.final_check_for_requests():
                return drained


class BalloonFront(_RingFront):
    """Memory-balloon frontend: drives the guest's reservation toward the
    target posted by the host's elastic controller.

    The driver keeps two kinds of elastic memory: a *pool* of cold frames
    the guest owns but has unmapped (surrendered first — nobody faults on
    them), and *balloon regions* — populated anonymous mappings whose
    frames are registered in a reverse map so the host's hypervisor-driven
    reclaim can name them as victims.  Surrender always rides the grant
    mechanism: the frontend grants each frame to the driver domain and the
    backend takes the grant before moving the frame to the host free pool.

    ``back`` is the frontend's read-only view of the backend's target state
    (the xenstore-watch analogue: both ends of a real balloon share the
    target through a store key, not the ring)."""

    DEV = "balloon"
    RING_NAME = "balloon"
    BACKEND_NAME = "balloon backend"

    #: (frame, grant_ref) pairs carried per inflate ring entry (extents)
    INFLATE_EXTENTS = 16

    def __init__(self, kernel: "Kernel", ring: IoRing, notify_backend,
                 back: BalloonBack, grant_frame,
                 mmu_log: Optional["MmuAccounting"] = None,
                 stats: Optional[IoStats] = None):
        super().__init__(kernel, ring, notify_backend, stats)
        self.back = back
        #: ``frame -> grant ref`` factory (wired to the VMM's grant table)
        self.grant_frame = grant_frame
        self.mmu_log = mmu_log
        #: cold frames owned by the guest, unmapped, surrendered first
        self.pool: list[int] = []
        #: balloon-region reverse map: frame -> (task, vaddr)
        self._rmap: dict[int, tuple] = {}
        #: frames in populate order (lazy-deleted; guest-delegated picks
        #: from the tail when the pool runs dry)
        self._order: list[int] = []
        self.victim_unmaps = 0
        self._in_upcall = False

    def adopt(self, old: "BalloonFront") -> None:
        """Take over ``old``'s cold pool and balloon regions.  They are
        guest-owned state: across a VMM microreboot they survive with the
        kernel, like its page tables, and move into the fresh frontend."""
        self.pool.extend(old.pool)
        self._rmap = old._rmap
        self._order = old._order
        self.victim_unmaps = old.victim_unmaps

    # -- region bookkeeping ----------------------------------------------

    @property
    def resident_frames(self) -> list[int]:
        """Frames the balloon driver could surrender (pool + regions), in
        deterministic order.  The host's hypervisor-driven strategy picks
        victims from this view — its P2M-table analogue."""
        self._drop_stale()
        return sorted(self.pool) + sorted(self._rmap)

    def _drop_stale(self) -> None:
        """Forget every region page whose vaddr no longer maps the frame
        recorded for it — a COW break gave the task a copy, or the task
        exited — so the region map names only frames its tasks map.  The
        old frame is not the region's to surrender: it lives on in the
        task that shared it, or is free.  ``_order`` drops it lazily."""
        rmap = self._rmap
        for frame, (task, vaddr) in list(rmap.items()):
            word = task.aspace.get_pte(vaddr)
            if (word is None or not word & PTE_P
                    or word >> PTE_FRAME_SHIFT != frame):
                del rmap[frame]

    def fill_pool(self, cpu: "Cpu", n: int) -> list[int]:
        """Reserve ``n`` cold frames for the guest (balloon-connect top-up:
        the elastic share of the domain's initial reservation)."""
        mem = self.kernel.machine.memory
        frames = mem.alloc_many(self.kernel.owner_id, n)
        cpu.charge(cpu.cost.cyc_page_alloc * n)
        self.pool.extend(frames)
        return frames

    def map_pool_frames(self, cpu: "Cpu", task: "Task", n: int) -> int:
        """Hand ``n`` pool frames to users: map them into a fresh balloon
        region of ``task``.  This is the guest allocator consuming returned
        memory — in native mode every region mapped here marks its root
        dirty, which is exactly how balloon churn turns into attach-time
        drift."""
        n = min(n, len(self.pool))
        if n == 0:
            return 0
        vmem = self.kernel.vmem
        base = vmem.mmap(cpu, task, n * PAGE_SIZE, name="balloon")
        frames = [self.pool.pop() for _ in range(n)]
        cpu.charge(cpu.cost.cyc_mem_touch_per_kb * 4 * n)
        vmem.claim_frames(frames)
        vmem.map_run(cpu, task, base, frames, writable=True)
        for i, f in enumerate(frames):
            self._rmap[f] = (task, base + i * PAGE_SIZE)
            self._order.append(f)
        if self.mmu_log is not None:
            self.mmu_log.on_balloon(task.aspace)
        return n

    # -- target processing (the xenstore watch) --------------------------

    def upcall(self, cpu: "Cpu") -> None:
        """Event-channel upcall: reap responses, then chase the target."""
        if self._in_upcall:
            return
        self._in_upcall = True
        try:
            self.complete(cpu)
            self.process_target(cpu)
        finally:
            self._in_upcall = False

    def process_target(self, cpu: "Cpu") -> None:
        target = self.back.target_pages
        if target is None:
            return
        current = self.back.guest_domain.mem_pages
        if target < current:
            self.inflate(cpu, current - target,
                         victims=self.back.victim_frames)
        elif target > current:
            self.deflate(cpu, target - current)

    # -- inflate (surrender frames) --------------------------------------

    def inflate(self, cpu: "Cpu", n: int, victims=()) -> int:
        """Surrender ``n`` frames.  With ``victims`` (hypervisor-driven)
        the host has already chosen; mapped victims are unmapped first and
        their next guest touch is a victim-page fault.  Without (Demeter's
        guest-delegated mode) the guest picks its own coldest memory: the
        pool first, then region tails — no faults follow."""
        picked = self._pick_victims(cpu, n, victims)
        if not picked:
            return 0
        refs = [(frame, self.grant_frame(frame)) for frame in picked]
        last = None
        for i in range(0, len(refs), self.INFLATE_EXTENTS):
            last = BalloonRingEntry(
                op="inflate", frames=tuple(refs[i:i + self.INFLATE_EXTENTS]),
                tag=self.kernel.owner_id)
            self.submit(cpu, last)
        self.flush_submissions(cpu)
        self._await(cpu, last)
        return len(picked)

    def _pick_victims(self, cpu: "Cpu", n: int, victims) -> list[int]:
        """Up to ``n`` frames to surrender.  A region page a fork shares is
        no victim: it stays mapped and in the region map."""
        self._drop_stale()
        picked: list[int] = []
        if victims:
            for frame in victims:
                if len(picked) == n:
                    break
                if frame in self._rmap:
                    if self._steal_region_page(cpu, frame, picked):
                        self.victim_unmaps += 1
                else:
                    try:
                        self.pool.remove(frame)
                    except ValueError:
                        continue    # stale victim: already gone
                    picked.append(frame)
            return picked
        while len(picked) < n and self.pool:
            picked.append(self.pool.pop())
        kept = []
        while len(picked) < n and self._order:
            frame = self._order.pop()
            if frame not in self._rmap:
                continue            # lazily deleted: a victim or stale
            if not self._steal_region_page(cpu, frame, picked):
                kept.append(frame)
        self._order.extend(reversed(kept))    # back in place, in order
        return picked

    def _steal_region_page(self, cpu: "Cpu", frame: int,
                           picked: list[int]) -> bool:
        """Unmap region page ``frame`` from its task and add it to
        ``picked``; False, leaving it mapped and in the region map, when a
        fork shares it — surrendering it would take a page from under the
        other mapping."""
        vmem = self.kernel.vmem
        if vmem.frame_refs(frame) > 1:
            return False
        task, vaddr = self._rmap.pop(frame)
        got = vmem.steal_page(cpu, task, vaddr)
        if self.mmu_log is not None:
            self.mmu_log.on_balloon(task.aspace)
        if got is not None:
            picked.append(got)
        return True

    # -- deflate (get frames back) ---------------------------------------

    def deflate(self, cpu: "Cpu", n: int) -> int:
        """Ask the host for ``n`` pages; they land cold in the pool (the
        guest allocator faults them in via :meth:`map_pool_frames`)."""
        entry = BalloonRingEntry(op="deflate", count=n,
                                 tag=self.kernel.owner_id)
        self.submit(cpu, entry)
        self.flush_submissions(cpu)
        self._await(cpu, entry)
        self.pool.extend(entry.frames)
        return len(entry.frames)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _connect(guest: "Kernel", driver: "Kernel", vmm: "Hypervisor",
             make_back, make_front, on_front_event) -> tuple:
    """The one split-driver setup under every ``connect_split_*``.

    Allocates and connects the event-channel pair between ``guest``'s
    domain and the driver domain, builds the backend with
    ``make_back(driver_domain, notify_frontend)`` and the frontend with
    ``make_front(back, notify_backend)`` — each notify fires the other
    end's channel — then routes the backend's channel into its poll loop
    and the frontend's into ``on_front_event(front)``."""
    guest_dom = vmm.domains[guest.owner_id]
    driver_dom = vmm.domains[driver.owner_id]
    front_ch = vmm.events.alloc(guest_dom.domain_id)
    back_ch = vmm.events.alloc(driver_dom.domain_id)
    vmm.events.connect(front_ch, back_ch)
    back = make_back(driver_dom, lambda c: vmm.events.send(c, back_ch))
    back.bind_channel(back_ch)
    front = make_front(back, lambda c: vmm.events.send(c, front_ch))
    back_ch.handler = lambda: back.poll(driver.boot_cpu)
    front_ch.handler = lambda: on_front_event(front)
    return front, back


def connect_split_block(guest: "Kernel", driver: "Kernel",
                        vmm: "Hypervisor") -> tuple[BlkFront, BlkBack]:
    """Connect ``guest``'s block layer to ``driver``'s disk via a ring."""
    ring = IoRing(size=32)
    # one persistent granted buffer page for request payloads
    buf_frame = guest.machine.memory.alloc(guest.owner_id)
    grant = vmm.grants.grant(guest.owner_id, buf_frame, driver.owner_id)
    front, back = _connect(
        guest, driver, vmm,
        lambda dom, notify: BlkBack(
            vmm, dom, ring, notify,
            submit=lambda c, req: driver.vo.disk_submit(c, req),
            stats=vmm.io_stats),
        lambda back, notify: BlkFront(guest, ring, notify,
                                      grant_ref=grant.ref,
                                      stats=vmm.io_stats),
        lambda front: front.complete(guest.boot_cpu))
    guest.install_block_driver(front)
    return front, back


def connect_split_balloon(guest: "Kernel", driver: "Kernel",
                          vmm: "Hypervisor",
                          mmu_log: Optional["MmuAccounting"] = None
                          ) -> tuple[BalloonFront, BalloonBack]:
    """Connect ``guest``'s memory reservation to the host's elastic
    controller through a balloon ring.

    ``mmu_log`` is the driver-domain's incremental-attach tracker when the
    balloon belongs to the self-virtualized OS itself (dom0 ballooning);
    hosted guests pass None."""
    ring = IoRing(size=32)
    front, back = _connect(
        guest, driver, vmm,
        lambda dom, notify: BalloonBack(
            vmm, dom, vmm.domains[guest.owner_id], ring, notify,
            stats=vmm.io_stats),
        lambda back, notify: BalloonFront(
            guest, ring, notify, back=back,
            grant_frame=lambda frame: vmm.grants.grant(
                back.guest_domain.domain_id, frame,
                back.driver_domain.domain_id).ref,
            mmu_log=mmu_log, stats=vmm.io_stats),
        lambda front: front.upcall(guest.boot_cpu))
    return front, back


def connect_split_net(guest: "Kernel", driver: "Kernel", vmm: "Hypervisor",
                      guest_addr: str) -> tuple[NetFront, NetBack]:
    """Connect ``guest``'s network stack to ``driver``'s NIC.

    ``guest_addr`` is the guest's address on the wire; the driver domain
    routes inbound frames for it up through netback.  Both notification
    directions run through :meth:`~repro.vmm.events.EventChannels.send`, so
    every fire is charged and counted; the guest-bound direction models the
    domU vcpu wakeup by scheduling the frontend upcall
    ``cyc_guest_rx_latency`` in the future — inbound bursts landing inside
    that window coalesce in the rx ring and drain in one batch."""
    tx_ring = IoRing(size=64)
    rx_ring = IoRing(size=64)
    clock = guest.machine.clock
    latency = guest.machine.config.cost.cyc_guest_rx_latency
    front, back = _connect(
        guest, driver, vmm,
        lambda dom, notify: NetBack(
            vmm, dom, tx_ring, rx_ring, notify,
            transmit=lambda c, pkt: driver.vo.net_transmit(c, pkt),
            stats=vmm.io_stats),
        lambda back, notify: NetFront(guest, tx_ring, rx_ring, notify,
                                      stats=vmm.io_stats),
        # domU vcpu wakeup latency; the deferred drain is what lets an
        # inbound burst coalesce into one rx_poll pass
        lambda front: clock.schedule(
            latency, lambda: front.upcall(guest.boot_cpu)))
    guest.install_net_driver(front, addr=guest_addr)
    driver.route_table[guest_addr] = lambda c, pkt: back.forward_rx(c, pkt)
    return front, back
