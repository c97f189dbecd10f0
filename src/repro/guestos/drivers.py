"""Native device drivers: direct hardware access through the VO.

The block driver submits requests straight to the disk controller and
fields its completion interrupts; the network driver hands frames to the
NIC and drains its receive queue.  These are the drivers a native OS — or
the *driver domain* under Xen/Mercury, which keeps direct device access
(§5.2) — uses.  DomainU guests use :mod:`repro.guestos.splitio` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import DeviceError
from repro.hw.devices import BlockRequest, Packet

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu


class NativeBlockDriver:
    """Direct-attached disk driver (synchronous request API over the
    asynchronous device, as the kernel's block layer presents it)."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    def read_block(self, cpu: "Cpu", block: int) -> object:
        req = BlockRequest(op="read", block=block)
        self.kernel.vo.disk_submit(cpu, req)
        self.kernel.wait_for(cpu, lambda: req.done)
        return req.result

    def write_block(self, cpu: "Cpu", block: int, data: object) -> None:
        req = BlockRequest(op="write", block=block, data=data)
        self.kernel.vo.disk_submit(cpu, req)
        self.kernel.wait_for(cpu, lambda: req.done)

    def write_blocks(self, cpu: "Cpu", blocks: list[tuple[int, object]]) -> None:
        """Batch write: submit everything, then wait once — requests
        overlap at the device, so a sorted batch pays one head move."""
        reqs = [BlockRequest(op="write", block=b, data=d) for b, d in blocks]
        for req in reqs:
            self.kernel.vo.disk_submit(cpu, req)
        self.kernel.wait_for(cpu, lambda: all(r.done for r in reqs))

    def flush(self, cpu: "Cpu") -> None:
        """Barrier: nothing buffered in this driver, so nothing to do
        beyond the controller cost."""
        cpu.charge(cpu.cost.cyc_disk_submit)

    def irq(self, cpu: "Cpu", vector: int) -> None:
        """Disk completion interrupt: acknowledge completions."""
        cpu.charge(cpu.cost.cyc_disk_irq)
        self.kernel.machine.disk.completed.clear()


class NativeNetDriver:
    """Direct-attached NIC driver."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    def transmit(self, cpu: "Cpu", pkt: Packet, more: bool = False) -> None:
        # ``more`` is the stack's batching hint; a direct-attached NIC has
        # no doorbell worth deferring, so it is ignored here
        self.kernel.vo.net_transmit(cpu, pkt)

    def irq(self, cpu: "Cpu", vector: int) -> None:
        """NIC receive interrupt: push frames into the network stack."""
        nic = self.kernel.machine.nic
        while nic.rx_queue:
            pkt = nic.rx_queue.popleft()
            self.kernel.net_rx(cpu, pkt)
