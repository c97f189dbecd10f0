"""Split-driver I/O: blkfront/blkback and netfront/netback end to end."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.virtual_vo import VirtualVO
from repro.errors import RingError
from repro.guestos.fs import BLOCK_SIZE, BufferCache
from repro.guestos.kernel import Kernel
from repro.guestos.splitio import (BlkFront, NetFront, connect_split_block,
                                   connect_split_net)
from repro.hw.devices import Packet
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.rings import IoRing


@pytest.fixture
def xen_pair():
    """An active VMM with a dom0 (driver) kernel and a domU kernel wired
    over split I/O — the X-U topology."""
    machine = Machine(small_config(mem_kb=32768))
    vmm = Hypervisor(machine)
    vmm.warm_up()
    dom0 = vmm.create_domain("dom0", domain_id=0, is_driver_domain=True)
    vmm.activate()
    k0 = Kernel(machine, VirtualVO(machine, vmm, dom0), owner_id=0,
                name="dom0")
    dom0.guest = k0
    k0.boot(image_pages=8)
    domU = vmm.create_domain("domU", domain_id=1)
    kU = Kernel(machine, VirtualVO(machine, vmm, domU), owner_id=1,
                name="domU", has_devices=False)
    domU.guest = kU
    front_b, back_b = connect_split_block(kU, k0, vmm)
    front_n, back_n = connect_split_net(kU, k0, vmm,
                                        guest_addr="10.0.0.77:u")
    kU.boot(image_pages=8)
    return machine, vmm, k0, kU, front_b, back_b, front_n, back_n


def test_guest_block_write_read_roundtrip(xen_pair):
    machine, vmm, k0, kU, front_b, *_ = xen_pair
    cpu = machine.boot_cpu
    fd = kU.syscall(cpu, "open", "/guestfile", True, task=kU.scheduler.current)
    kU.syscall(cpu, "write", fd, "through-the-ring", BLOCK_SIZE)
    kU.syscall(cpu, "fsync", fd)
    block = kU.fs.inodes["/guestfile"].blocks[0]
    # the data must eventually land on the physical disk via blkback
    machine.run_until_idle()
    assert machine.disk.blocks[block] == "through-the-ring"
    assert front_b.requests > 0


def test_guest_cold_read_through_backend(xen_pair):
    machine, vmm, k0, kU, front_b, *_ = xen_pair
    cpu = machine.boot_cpu
    fd = kU.syscall(cpu, "open", "/cold", True)
    kU.syscall(cpu, "write", fd, "cold-data", BLOCK_SIZE)
    kU.syscall(cpu, "fsync", fd)
    machine.run_until_idle()
    kU.fs.cache.invalidate()
    kU.syscall(cpu, "lseek", fd, 0)
    assert kU.syscall(cpu, "read", fd, BLOCK_SIZE) == ["cold-data"]


def test_backend_grants_are_exercised(xen_pair):
    machine, vmm, k0, kU, front_b, back_b, *_ = xen_pair
    cpu = machine.boot_cpu
    fd = kU.syscall(cpu, "open", "/g", True)
    kU.syscall(cpu, "write", fd, "x", BLOCK_SIZE)
    kU.syscall(cpu, "fsync", fd)
    grants = vmm.grants.active_grants_of(1)
    assert len(grants) == 1
    assert grants[0].active_maps == 0  # mapped and unmapped per request


def test_guest_tx_reaches_wire(xen_pair):
    machine, vmm, k0, kU, _, _, front_n, back_n = xen_pair
    peer_machine = Machine(small_config(), clock=machine.clock)
    machine.link_to(peer_machine)
    cpu = machine.boot_cpu
    sock = kU.syscall(cpu, "socket", "udp")
    kU.syscall(cpu, "sendto", sock, "10.0.0.250", 1000)
    machine.clock.run_due()
    assert machine.nic.tx_packets == 1
    assert back_n.tx_handled == 1


def test_inbound_for_guest_routed_through_netback(xen_pair):
    machine, vmm, k0, kU, _, _, front_n, back_n = xen_pair
    cpu = machine.boot_cpu
    kU.syscall(cpu, "socket", "udp")
    pkt = Packet("10.0.0.250", "10.0.0.77:u", "udp", 700, payload="inbound")
    # the frame arrives at the physical NIC; dom0 routes it up, and the
    # guest's vcpu wakeup (a scheduled event) drains the rx ring
    machine.nic.deliver(pkt)
    machine.run_until_idle()
    assert back_n.rx_forwarded == 1
    got = kU.syscall(cpu, "recvfrom", 1, False)
    assert got == "inbound"


def test_guest_io_costs_more_than_driver_domain(xen_pair):
    """The per-request ring/grant/event overhead must be visible — it is
    the X-U column's I/O tax."""
    machine, vmm, k0, kU, *_ = xen_pair
    cpu = machine.boot_cpu

    t0 = cpu.rdtsc()
    fd0 = k0.syscall(cpu, "open", "/d0", True)
    k0.syscall(cpu, "write", fd0, "x", BLOCK_SIZE)
    dom0_cost = cpu.rdtsc() - t0

    t0 = cpu.rdtsc()
    fdU = kU.syscall(cpu, "open", "/dU", True)
    kU.syscall(cpu, "write", fdU, "x", BLOCK_SIZE)
    domU_cost = cpu.rdtsc() - t0
    # cached writes don't touch the device in either domain, so the two
    # should be comparable; the ring tax appears on the flush path
    t0 = cpu.rdtsc()
    kU.syscall(cpu, "fsync", fdU)
    domU_flush = cpu.rdtsc() - t0
    assert domU_flush > cpu.cost.cyc_ring_hop  # the ring tax is visible
    assert kU.fs.cache.dirty == set()


# ---------------------------------------------------------------------------
# batched datapath: notification coalescing and wedge guards
# ---------------------------------------------------------------------------

def _guest_channel_sends(vmm, domain_id=1):
    return sum(ch.sends for (dom, _), ch in vmm.events._channels.items()
               if dom == domain_id)


def test_rx_notification_rides_the_event_channel(xen_pair):
    """The guest-bound rx kick must go through ``vmm.events.send`` —
    charged, counted, and coalescible — never a direct frontend call."""
    machine, vmm, k0, kU, _, _, front_n, back_n = xen_pair
    cpu = machine.boot_cpu
    kU.syscall(cpu, "socket", "udp")
    sends0 = _guest_channel_sends(vmm)
    machine.nic.deliver(Packet("10.0.0.250", "10.0.0.77:u", "udp", 700,
                               payload="ding"))
    machine.run_until_idle()
    assert front_n.rx == 1
    assert _guest_channel_sends(vmm) - sends0 >= 1


def test_rx_burst_coalesces_into_one_upcall(xen_pair):
    """Frames landing inside the guest's wakeup window share the pending
    event and drain in a single rx_poll pass."""
    machine, vmm, k0, kU, _, _, front_n, back_n = xen_pair
    cpu = machine.boot_cpu
    kU.syscall(cpu, "socket", "udp")
    stats = vmm.io_stats
    sent0, supp0 = stats.notifies_sent, stats.notifies_suppressed
    for i in range(6):
        machine.nic.deliver(Packet("10.0.0.250", "10.0.0.77:u", "udp", 700,
                                   payload=f"p{i}"))
    machine.run_until_idle()
    assert back_n.rx_forwarded == 6
    assert front_n.rx == 6
    assert stats.notifies_sent - sent0 <= 2  # not one notify per frame
    assert stats.notifies_suppressed - supp0 >= 4


def test_tx_burst_shares_one_doorbell(xen_pair):
    """A multi-segment send rides the xmit_more hint: the whole burst is
    queued, flushed onto the ring once, and rings the doorbell once."""
    machine, vmm, k0, kU, _, _, front_n, back_n = xen_pair
    from repro.bench.configs import BareMetalVO
    peer_machine = Machine(small_config(), clock=machine.clock, name="peer")
    peer_kernel = Kernel(peer_machine, BareMetalVO(peer_machine),
                         owner_id=0, name="peer")
    peer_kernel.boot()
    machine.link_to(peer_machine)
    cpu = machine.boot_cpu
    stats = vmm.io_stats
    sock = kU.syscall(cpu, "socket", "udp")
    sent0 = stats.notifies_sent
    kU.syscall(cpu, "sendto", sock, "10.0.0.250", 8 * 1448)  # 8 segments
    machine.run_until_idle()
    assert back_n.tx_handled == 8
    # one tx doorbell + at most one coalesced completion notify — not 8
    assert stats.notifies_sent - sent0 <= 2


def test_tx_sched_latency_paid_per_notify_not_per_packet(xen_pair):
    """The driver-domain wakeup cost is charged only when a doorbell is
    actually delivered; queued packets in the same flush ride for free."""
    machine, vmm, k0, kU, *_ = xen_pair
    cpu = machine.boot_cpu
    notified = []
    tx, rx = IoRing(size=64), IoRing(size=64)
    front = NetFront(kU, tx, rx, notify_backend=lambda c: notified.append(1))
    pkts = [Packet("a", "b", "udp", 512, payload=i) for i in range(6)]
    t0 = cpu.rdtsc()
    for pkt in pkts[:-1]:
        front.transmit(cpu, pkt, more=True)
    front.transmit(cpu, pkts[-1], more=False)
    cost = cpu.cost
    expected = (6 * cost.cyc_net_copy_per_kb           # per-packet copy
                + cost.cyc_ring_hop                    # first ring entry
                + 5 * cost.cyc_ring_entry_batched      # batched entries
                + cost.cyc_guest_sched_latency)        # ONE wakeup
    assert cpu.rdtsc() - t0 == expected
    assert notified == [1]
    assert front.stats.ring_batches == 1
    assert front.stats.ring_batched_entries == 6


def test_tx_coalesce_timer_flushes_a_stranded_tail(xen_pair):
    """A burst that promises ``more`` but never flushes is pushed out by
    the delayed-doorbell timer — the hint can defer, not lose, packets."""
    machine, vmm, k0, kU, *_ = xen_pair
    cpu = machine.boot_cpu
    notified = []
    tx, rx = IoRing(size=64), IoRing(size=64)
    front = NetFront(kU, tx, rx, notify_backend=lambda c: notified.append(1))
    front.transmit(cpu, Packet("a", "b", "udp", 256, payload="tail"),
                   more=True)
    assert tx.has_requests() is False  # still queued, not published
    machine.run_until_idle()
    assert tx.has_requests()  # the timer flushed it onto the ring
    assert notified == [1]


def test_blkfront_wedged_backend_raises(xen_pair):
    """Satellite guard: a backend that never responds must surface as a
    RingError, not an infinite retry loop on stale free_request_slots."""
    machine, vmm, k0, kU, *_ = xen_pair
    cpu = machine.boot_cpu
    ring = IoRing(size=4)
    front = BlkFront(kU, ring, notify_backend=lambda c: None)
    with pytest.raises(RingError, match="wedged"):
        front.write_blocks(cpu, [(i, f"d{i}") for i in range(3)])


def test_blkfront_single_write_wedged_backend_raises(xen_pair):
    machine, vmm, k0, kU, *_ = xen_pair
    cpu = machine.boot_cpu
    ring = IoRing(size=4)
    front = BlkFront(kU, ring, notify_backend=lambda c: None)
    with pytest.raises(RingError, match="did not respond"):
        front.write_block(cpu, 7, "data")


def test_fsync_batch_notifies_once(xen_pair):
    """An fsync of a multi-block file submits the whole dirty set as one
    ring batch with at most one doorbell."""
    machine, vmm, k0, kU, front_b, back_b, *_ = xen_pair
    cpu = machine.boot_cpu
    stats = vmm.io_stats
    fd = kU.syscall(cpu, "open", "/batched", True)
    for i in range(6):
        kU.syscall(cpu, "lseek", fd, i * BLOCK_SIZE)
        kU.syscall(cpu, "write", fd, f"blk{i}", BLOCK_SIZE)
    sent0, batches0 = stats.notifies_sent, stats.ring_batches
    entries0 = stats.ring_batched_entries
    kU.syscall(cpu, "fsync", fd)
    # the 6 dirty blocks go out as ONE submission batch (plus the barrier
    # flush op): one doorbell per batch, never one per block
    assert stats.notifies_sent - sent0 <= 4
    assert stats.ring_batches - batches0 >= 2
    assert stats.ring_batched_entries - entries0 >= 12  # 6 reqs + 6 rsps
    machine.run_until_idle()
    assert kU.fs.cache.dirty == set()


@pytest.mark.parametrize("hosted", [False, True], ids=["native", "guest"])
def test_dirty_eviction_leaves_through_the_block_driver(hosted):
    """Eight blocks written through a 4-block buffer cache evict the four
    oldest dirty ones before any fsync, through ``Kernel.block_write`` and
    the driver's ``write_block``.  A native kernel's land on the disk at
    once; a hosted guest's take the split block path and land once the
    backend's write-behind drains."""
    mercury = Mercury(Machine(small_config()))
    kernel = mercury.create_kernel(image_pages=16)
    if hosted:
        mercury.attach()
        kernel = mercury.host_guest(image_pages=8)
    machine = mercury.machine
    cpu = machine.boot_cpu
    kernel.fs.cache = BufferCache(capacity=4)
    driver = kernel.block_driver
    assert isinstance(driver, BlkFront) is hosted
    via_kernel, via_driver = [], []
    block_write, write_block = kernel.block_write, driver.write_block

    def kernel_spy(c, block, data):
        via_kernel.append(block)
        block_write(c, block, data)

    def driver_spy(c, block, data):
        via_driver.append(block)
        write_block(c, block, data)

    kernel.block_write, driver.write_block = kernel_spy, driver_spy
    fd = kernel.syscall(cpu, "open", "/evict", True)
    for i in range(8):
        kernel.syscall(cpu, "write", fd, f"blk{i}", BLOCK_SIZE)

    blocks = kernel.fs.inodes["/evict"].blocks
    assert via_kernel == via_driver == blocks[:4]
    assert kernel.fs.journal_commits == 0  # no fsync ran
    assert kernel.fs.cache.dirty == set(blocks[4:])
    on_disk = lambda: [machine.disk.blocks.get(b) for b in blocks[:4]]
    if hosted:
        assert on_disk() != ["blk0", "blk1", "blk2", "blk3"]  # write-behind
        machine.run_until_idle()
    assert on_disk() == ["blk0", "blk1", "blk2", "blk3"]
