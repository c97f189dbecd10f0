"""Backend drivers: blkback request handling and write caching, netback."""

import pytest

from repro.hw.devices import BlockRequest, Packet
from repro.vmm.backend import BlkBack, BlkRingEntry, NetBack, NetRingEntry
from repro.vmm.rings import IoRing


@pytest.fixture
def blk_env(machine, warm_vmm):
    dom0 = warm_vmm.create_domain("dom0", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    ring = IoRing(size=8)
    notified = []

    def submit(cpu, req):
        machine.disk.submit(req)
        # dom0's native driver would wait; tests drive the clock directly
        while not req.done:
            deadline = machine.clock.next_deadline()
            machine.clock.cycles = max(machine.clock.cycles, deadline)
            machine.clock.run_due()

    # the disk line must be bound for completion interrupts
    from repro.hw.interrupts import Idt, VEC_DISK
    idt = Idt("t")
    idt.set_gate(VEC_DISK, lambda c, v: None)
    machine.boot_cpu.load_idt(idt)
    machine.intc.bind_line("sda", 0, VEC_DISK)

    back = BlkBack(warm_vmm, dom0, ring,
                   notify_frontend=lambda cpu: notified.append(1),
                   submit=submit)
    return machine.boot_cpu, machine, ring, back, notified


def test_blkback_write_then_read_cached(blk_env):
    cpu, machine, ring, back, notified = blk_env
    ring.push_request(BlkRingEntry(op="write", block=2000, data="v1"))
    assert back.poll(cpu) == 1
    assert notified == [1]
    ring.pop_response()
    ring.push_request(BlkRingEntry(op="read", block=2000))
    back.poll(cpu)
    assert ring.pop_response().result == "v1"


def test_blkback_cached_write_eventually_hits_disk(blk_env):
    cpu, machine, ring, back, notified = blk_env
    ring.push_request(BlkRingEntry(op="write", block=3000, data="persist"))
    back.poll(cpu)
    ring.pop_response()
    machine.run_until_idle()  # async flush completes
    assert machine.disk.blocks[3000] == "persist"


def test_blkback_cached_ack_is_fast(blk_env):
    """The dbench-inversion mechanism: a cached write ack must cost far
    less than a device write."""
    cpu, machine, ring, back, notified = blk_env
    t0 = machine.clock.cycles
    ring.push_request(BlkRingEntry(op="write", block=4000, data="x"))
    back.poll(cpu)
    ring.pop_response()
    ack_cycles = machine.clock.cycles - t0
    device_cycles = int(cpu.cost.cycles_from_ns(
        cpu.cost.disk_xfer_ns_per_kb * 4))
    assert ack_cycles < device_cycles


def test_blkback_read_miss_goes_to_device(blk_env):
    cpu, machine, ring, back, notified = blk_env
    machine.disk.write_sync(7000, "from-disk")
    ring.push_request(BlkRingEntry(op="read", block=7000))
    back.poll(cpu)
    assert ring.pop_response().result == "from-disk"


def test_blkback_flush_clears_cache(blk_env):
    cpu, machine, ring, back, notified = blk_env
    ring.push_request(BlkRingEntry(op="write", block=2000, data="v1"))
    back.poll(cpu)
    ring.pop_response()
    ring.push_request(BlkRingEntry(op="flush", block=0))
    back.poll(cpu)
    ring.pop_response()
    assert back.flushes == 1
    assert back._cache == {}


def test_blkback_unknown_op_flagged(blk_env):
    cpu, machine, ring, back, notified = blk_env
    ring.push_request(BlkRingEntry(op="format", block=0))
    back.poll(cpu)
    assert ring.pop_response().ok is False


def test_netback_tx_forwards_to_wire(machine, warm_vmm):
    dom0 = warm_vmm.create_domain("dom0", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    tx, rx = IoRing(size=8), IoRing(size=8)
    wire = []
    back = NetBack(warm_vmm, dom0, tx, rx,
                   notify_frontend=lambda c: None,
                   transmit=lambda c, pkt: wire.append(pkt))
    pkt = Packet("a", "b", "udp", 1000)
    tx.push_request(NetRingEntry(pkt=pkt))
    assert back.poll(machine.boot_cpu) == 1
    assert wire == [pkt]
    assert tx.pop_response().pkt is pkt


def test_netback_rx_forwards_up(machine, warm_vmm):
    dom0 = warm_vmm.create_domain("dom0", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    tx, rx = IoRing(size=8), IoRing(size=8)
    kicked = []
    back = NetBack(warm_vmm, dom0, tx, rx,
                   notify_frontend=lambda c: kicked.append(1),
                   transmit=lambda c, p: None)
    pkt = Packet("peer", "guest", "tcp", 512)
    back.forward_rx(machine.boot_cpu, pkt)
    assert kicked == [1]
    assert rx.pop_request().pkt is pkt
