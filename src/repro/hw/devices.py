"""Simulated devices: SCSI-like block device, NIC + link, periodic timer.

Device timing follows the testbed in §7.1: a 10k RPM SCSI disk (seek +
rotational + media transfer) and a gigabit-class NIC behind a switch.
Devices complete asynchronously: a request is submitted, the device
schedules a completion on the machine clock, and completion raises the
device's interrupt line.  The guest OS (native driver) or the VMM backend
(split driver) fields the interrupt.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import DeviceError

if TYPE_CHECKING:
    from repro.hw.machine import Machine


@dataclass
class BlockRequest:
    """One block I/O request (4 KiB granularity)."""

    op: str                      # "read" | "write"
    block: int
    data: object = None          # payload for writes
    tag: object = None           # opaque caller cookie
    result: object = None        # filled in on completion (reads)
    done: bool = False


class BlockDevice:
    """A single spindle with a seek/rotation/transfer latency model and a
    persistent block store (survives guest reboots, backs the filesystem)."""

    def __init__(self, machine: "Machine", name: str = "sda"):
        self.machine = machine
        self.name = name
        self.num_blocks = 1 << 20
        self.blocks: dict[int, object] = {}
        # boot-time journal replay leaves the head at the data area
        self._head = 1024
        self.completed: deque[BlockRequest] = deque()
        self.requests_served = 0

    def submit(self, req: BlockRequest) -> None:
        """Queue a request; completion will raise the device's line."""
        if not (0 <= req.block < self.num_blocks):
            raise DeviceError(f"{self.name}: block {req.block} out of range")
        cost = self.machine.config.cost
        # Seek model: near-sequential access streams at media rate (the
        # drive's track cache absorbs it); real seeks pay head travel plus
        # half a rotation.
        distance = abs(req.block - self._head)
        if distance <= 128:
            seek_ns = 0
        else:
            seek_ns = min(cost.disk_seek_ns,
                          int(cost.disk_seek_ns * (0.25 + 0.75 * distance / self.num_blocks)))
            seek_ns += cost.disk_rot_ns // 2
        xfer_ns = cost.disk_xfer_ns_per_kb * 4  # 4 KiB blocks
        self._head = req.block

        def complete() -> None:
            if req.op == "read":
                req.result = self.blocks.get(req.block)
            elif req.op == "write":
                self.blocks[req.block] = req.data
            else:
                raise DeviceError(f"unknown block op {req.op!r}")
            req.done = True
            self.completed.append(req)
            self.requests_served += 1
            self.machine.intc.raise_line(self.name)

        self.machine.clock.schedule(
            int(cost.cycles_from_ns(seek_ns + xfer_ns)), complete)

    # -- synchronous convenience used by boot-time setup (no interrupts yet)

    def write_sync(self, block: int, data: object) -> None:
        if not (0 <= block < self.num_blocks):
            raise DeviceError(f"{self.name}: block {block} out of range")
        self.blocks[block] = data

    def read_sync(self, block: int) -> object:
        if not (0 <= block < self.num_blocks):
            raise DeviceError(f"{self.name}: block {block} out of range")
        return self.blocks.get(block)


@dataclass(slots=True)
class Packet:
    """One network frame."""

    src: str
    dst: str
    proto: str              # "tcp" | "udp" | "icmp"
    size_bytes: int
    payload: object = None
    seq: int = 0


class Nic:
    """A network interface.  Two NICs are joined by a :class:`Link`."""

    def __init__(self, machine: "Machine", name: str = "eth0", addr: str = "10.0.0.1"):
        self.machine = machine
        self.name = name
        self.addr = addr
        self.link: Optional["Link"] = None
        self.rx_queue: deque[Packet] = deque()
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def transmit(self, pkt: Packet) -> None:
        """Put a frame on the wire; the peer's line is raised on arrival."""
        if self.link is None:
            raise DeviceError(f"{self.name}: no link attached")
        self.tx_packets += 1
        self.tx_bytes += pkt.size_bytes
        self.link.carry(self, pkt)

    def deliver(self, pkt: Packet) -> None:
        self.rx_packets += 1
        self.rx_bytes += pkt.size_bytes
        self.rx_queue.append(pkt)
        self.machine.intc.raise_line(self.name)


class Link:
    """A full-duplex wire between two NICs with bandwidth + latency.

    Wire time is charged to the *global* clock via scheduled delivery, so
    end-to-end measurements (ping RTT, iperf goodput) include both hosts'
    CPU costs and the wire."""

    def __init__(self, a: Nic, b: Nic):
        self.a, self.b = a, b
        a.link = self
        b.link = self
        #: cycle time until which the wire is occupied (serialization /
        #: NIC back-pressure: a sender cannot outpace the physical link)
        self.busy_until = 0
        #: fault injection: drop the next N frames (migration blackouts,
        #: lossy-switch tests)
        self.drop_next = 0
        self.dropped = 0

    def carry(self, from_nic: Nic, pkt: Packet) -> None:
        to_nic = self.b if from_nic is self.a else self.a
        if self.drop_next > 0:
            self.drop_next -= 1
            self.dropped += 1
            return  # the frame vanishes on the wire
        clock = from_nic.machine.clock
        cost = from_nic.machine.config.cost
        xfer_cycles = int(cost.cycles_from_ns(
            cost.net_wire_ns_per_kb * pkt.size_bytes / 1024.0))
        # back-pressure: the NIC blocks the sender while the wire drains
        start = max(clock.cycles, self.busy_until)
        if start > clock.cycles:
            clock.cycles = start
        self.busy_until = start + xfer_cycles
        arrive_in = (self.busy_until - clock.cycles
                     + int(cost.cycles_from_ns(cost.net_latency_ns)))
        clock.schedule(arrive_in, lambda: to_nic.deliver(pkt))


class TimerDevice:
    """The periodic timer (100 Hz in the paper's setup)."""

    def __init__(self, machine: "Machine", hz: int):
        self.machine = machine
        self.hz = hz
        self.ticks = 0
        self._armed = False

    @property
    def period_cycles(self) -> int:
        cycles_per_second = self.machine.config.cost.freq_mhz * 1_000_000
        return cycles_per_second // self.hz

    def start(self) -> None:
        if self._armed:
            return
        self._armed = True
        self._arm()

    def stop(self) -> None:
        self._armed = False

    def _arm(self) -> None:
        def tick() -> None:
            if not self._armed:
                return
            self.ticks += 1
            self.machine.intc.raise_line("timer")
            self._arm()
        self.machine.clock.schedule(self.period_cycles, tick)
