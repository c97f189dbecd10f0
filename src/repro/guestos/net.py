"""Socket layer and a TCP/UDP-lite network stack.

Supports the paper's network benchmarks: ping (ICMP echo RTT) and
iperf-style TCP/UDP bulk transfer (§7.3).  Transmission leaves through the
installed network driver — native (direct NIC via the VO) or netfront
(rings to the driver domain) — so per-packet costs diverge across the six
configurations without any per-configuration code here.

TCP is modelled at the level that matters for goodput accounting: MSS-sized
segments, a static window that forces periodic ACK waits, and per-segment
stack costs.  There is no loss/retransmission on the simulated switch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import NetworkError
from repro.hw.devices import Packet

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: maximum segment size (standard ethernet MTU minus headers)
MSS = 1448
#: static send window in segments (enough to keep a LAN pipe full)
TCP_WINDOW = 44


@dataclass
class Socket:
    sock_id: int
    proto: str
    rx: deque = field(default_factory=deque)
    tx_bytes: int = 0
    rx_bytes: int = 0
    # --- reliable-delivery state (the §5.2 "solved at the network
    # protocol level" machinery) ---
    #: sender: seq -> (size, payload) awaiting cumulative ack
    tx_unacked: dict = field(default_factory=dict)
    tx_acked_through: int = -1
    retransmissions: int = 0
    #: receiver: next in-order sequence + out-of-order stash
    rx_next_seq: int = 0
    rx_ooo: dict = field(default_factory=dict)
    #: receiver: in-order reassembled payload chunks
    rx_delivered: list = field(default_factory=list)


class NetworkStack:
    """Per-kernel network state."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.sockets: dict[int, Socket] = {}
        self._next_sock = 1
        self.icmp_replies = 0
        self.rx_packets = 0
        #: RTT of the last completed ping, in cycles
        self.last_ping_rtt_cycles: Optional[int] = None
        self._ping_sent_at: Optional[int] = None
        self._awaiting_pong = False

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------

    def socket(self, cpu: "Cpu", proto: str) -> int:
        if proto not in ("tcp", "udp"):
            raise NetworkError(f"unknown protocol {proto!r}")
        sock = Socket(self._next_sock, proto)
        self._next_sock += 1
        self.sockets[sock.sock_id] = sock
        return sock.sock_id

    def sendto(self, cpu: "Cpu", sock_id: int, dst: str, nbytes: int,
               payload: object = None) -> int:
        """Send ``nbytes`` as MSS-sized segments.  For TCP, waits for the
        window to reopen every TCP_WINDOW segments (ACK round trip)."""
        sock = self._sock(sock_id)
        kernel = self.kernel
        src = kernel.machine.nic.addr
        proto = sock.proto
        is_tcp = proto == "tcp"
        net_transmit = kernel.net_transmit  # reads net_driver per call
        sent = 0
        in_window = 0
        seq = 0
        while sent < nbytes:
            seg = min(MSS, nbytes - sent)
            pkt = Packet(src=src, dst=dst, proto=proto, size_bytes=seg,
                         payload=payload, seq=seq)
            # xmit_more: another segment follows unless this one ends the
            # transfer or closes the TCP window — batching drivers coalesce
            # the burst behind one doorbell
            more = sent + seg < nbytes
            if is_tcp and in_window + 1 >= TCP_WINDOW:
                more = False
            net_transmit(cpu, pkt, more=more)
            sent += seg
            seq += 1
            sock.tx_bytes += seg
            in_window += 1
            if is_tcp and in_window >= TCP_WINDOW:
                # wait for the cumulative ACK before reopening the window
                kernel.drain_events(cpu)
                in_window = 0
        kernel.net_tx_flush(cpu)
        return sent

    def recvfrom(self, cpu: "Cpu", sock_id: int, block: bool = True) -> object:
        sock = self._sock(sock_id)
        if block:
            self.kernel.wait_for(cpu, lambda: len(sock.rx) > 0)
        if not sock.rx:
            return None
        pkt = sock.rx.popleft()
        return pkt.payload

    # ------------------------------------------------------------------
    # receive path (invoked by the network driver for each packet)
    # ------------------------------------------------------------------

    def rx(self, cpu: "Cpu", pkt: Packet) -> None:
        """Protocol demultiplex for one received frame."""
        cost = cpu.cost
        cpu.clock.cycles += cost.cyc_net_per_packet  # constant: direct add
        self.rx_packets += 1
        if pkt.proto == "icmp":
            if pkt.payload == "echo":
                # reflect an echo reply
                self.icmp_replies += 1
                reply = Packet(src=self.kernel.machine.nic.addr, dst=pkt.src,
                               proto="icmp", size_bytes=pkt.size_bytes,
                               payload="echo-reply")
                self.kernel.net_transmit(cpu, reply)
            elif pkt.payload == "echo-reply" and self._awaiting_pong:
                self.last_ping_rtt_cycles = cpu.rdtsc() - self._ping_sent_at
                self._awaiting_pong = False
            return
        # tcp/udp: deliver to every socket of that protocol (the simulator
        # does not model ports; workloads use one socket per protocol)
        cpu.clock.cycles += (cost.cyc_net_copy_per_kb
                             * max(1, pkt.size_bytes // 1024))
        for sock in self.sockets.values():
            if sock.proto == pkt.proto:
                if isinstance(pkt.payload, tuple) and pkt.payload and \
                        pkt.payload[0] in ("rdata", "rack"):
                    self._rx_reliable(cpu, sock, pkt)
                else:
                    sock.rx.append(pkt)
                    sock.rx_bytes += pkt.size_bytes
                break

    # ------------------------------------------------------------------
    # reliable delivery (selective-repeat-lite with cumulative acks)
    # ------------------------------------------------------------------

    def _rx_reliable(self, cpu: "Cpu", sock: Socket, pkt: Packet) -> None:
        kind = pkt.payload[0]
        if kind == "rack":
            _, acked_through = pkt.payload
            if acked_through > sock.tx_acked_through:
                sock.tx_acked_through = acked_through
                for seq in [s for s in sock.tx_unacked
                            if s <= acked_through]:
                    del sock.tx_unacked[seq]
            return
        # data segment
        _, seq, size, payload = pkt.payload
        if seq == sock.rx_next_seq:
            sock.rx_delivered.append(payload)
            sock.rx_bytes += size
            sock.rx_next_seq += 1
            while sock.rx_next_seq in sock.rx_ooo:  # drain the stash
                s, p = sock.rx_ooo.pop(sock.rx_next_seq)
                sock.rx_delivered.append(p)
                sock.rx_bytes += s
                sock.rx_next_seq += 1
        elif seq > sock.rx_next_seq:
            sock.rx_ooo[seq] = (pkt.payload[2], pkt.payload[3])
        # duplicate (seq < next) falls through to the cumulative ack
        ack = Packet(src=self.kernel.machine.nic.addr, dst=pkt.src,
                     proto=sock.proto, size_bytes=40,
                     payload=("rack", sock.rx_next_seq - 1))
        self.kernel.net_transmit(cpu, ack)

    def reliable_send_window(self, cpu: "Cpu", sock_id: int, dst: str,
                             segments: list, window: int = 8) -> int:
        """(Re)transmit up to ``window`` of the oldest unacked segments.

        ``segments`` is the full list of (seq, size, payload); the caller
        drives rounds (transmit → drain both hosts → repeat) until
        :meth:`reliable_done`.  Returns frames put on the wire."""
        sock = self._sock(sock_id)
        sent = 0
        for seq, size, payload in segments:
            if seq <= sock.tx_acked_through:
                continue
            if sent >= window:
                break
            if seq in sock.tx_unacked:
                sock.retransmissions += 1
            sock.tx_unacked[seq] = (size, payload)
            pkt = Packet(src=self.kernel.machine.nic.addr, dst=dst,
                         proto=sock.proto, size_bytes=size,
                         payload=("rdata", seq, size, payload), seq=seq)
            self.kernel.net_transmit(cpu, pkt, more=True)
            sock.tx_bytes += size
            sent += 1
        self.kernel.net_tx_flush(cpu)
        return sent

    def reliable_done(self, sock_id: int, total_segments: int) -> bool:
        return self._sock(sock_id).tx_acked_through >= total_segments - 1

    def _sock(self, sock_id: int) -> Socket:
        try:
            return self.sockets[sock_id]
        except KeyError:
            raise NetworkError(f"bad socket {sock_id}") from None
