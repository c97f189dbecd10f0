"""APIC-style interrupt controller: lines, vectors, IPIs, IDTs.

Mercury triggers mode switches through a dedicated interrupt line (§4.1) and
coordinates multicore switches with inter-processor interrupts (§5.4), so
the interrupt fabric is a first-class substrate here.

The model: devices (or software) raise *vectors* targeted at a CPU; each CPU
has a pending queue; vectors are delivered when the machine polls and the
target CPU has interrupts enabled.  Delivery dispatches through the IDT
*installed on that CPU* — which is exactly what a mode switch swaps
(native-mode IDT handled by the OS vs. VMM-owned IDT that forwards events).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import HardwareError
from repro.hw.cpu import PrivilegeLevel

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine

# Well-known vectors (loosely after x86/Linux conventions).
VEC_TIMER = 0x20
VEC_DISK = 0x21
VEC_NET = 0x22
#: the dedicated self-virtualization vectors (§5.1.3: two handlers, one per
#: switch direction)
VEC_SV_ATTACH = 0xF0
VEC_SV_DETACH = 0xF1
#: IPI vector used by Mercury's SMP rendezvous (§5.4)
VEC_SV_RENDEZVOUS = 0xF2


@dataclass
class IdtEntry:
    """One interrupt gate: a handler plus the privilege level the handler
    runs at (hardware raises the PL to this on delivery)."""

    handler: Callable[["Cpu", int], None]
    handler_pl: PrivilegeLevel = PrivilegeLevel.PL0
    name: str = ""


class Idt:
    """An interrupt descriptor table — a vector-indexed gate collection.

    Owned by whoever installed it (the native OS, or the VMM when active)."""

    def __init__(self, owner: str):
        self.owner = owner
        self.gates: dict[int, IdtEntry] = {}

    def set_gate(self, vector: int, handler: Callable[["Cpu", int], None],
                 handler_pl: int = 0, name: str = "") -> None:
        if not (0 <= vector <= 0xFF):
            raise HardwareError(f"vector {vector:#x} out of range")
        # the level is resolved once here, not on every delivery
        self.gates[vector] = IdtEntry(handler, PrivilegeLevel(handler_pl),
                                      name or f"vec{vector:#x}")


@dataclass(slots=True)
class _PendingVector:
    vector: int
    payload: object = None


class InterruptController:
    """The machine's (IO-)APIC: routes device lines and IPIs to CPUs."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self._pending: list[deque[_PendingVector]] = [
            deque() for _ in range(machine.config.num_cpus)
        ]
        #: device line -> (target cpu, vector); rebindable (a mode switch
        #: re-binds lines between the OS and the VMM, §5.1.2)
        self.line_bindings: dict[str, tuple[int, int]] = {}
        self.delivered = 0
        self.sent_ipis = 0

    # -- raising ----------------------------------------------------------

    def bind_line(self, line: str, cpu_id: int, vector: int) -> None:
        self._check_cpu(cpu_id)
        self.line_bindings[line] = (cpu_id, vector)

    def raise_line(self, line: str, payload: object = None) -> None:
        """A device asserts its interrupt line."""
        try:
            cpu_id, vector = self.line_bindings[line]
        except KeyError:
            raise HardwareError(f"interrupt line {line!r} is not bound") from None
        self._pending[cpu_id].append(_PendingVector(vector, payload))

    def send_ipi(self, from_cpu: "Cpu", to_cpu_id: int, vector: int,
                 payload: object = None) -> None:
        """Send an inter-processor interrupt (charges the sender)."""
        self._check_cpu(to_cpu_id)
        from_cpu.charge(from_cpu.cost.cyc_ipi_send)
        self._pending[to_cpu_id].append(_PendingVector(vector, payload))
        self.sent_ipis += 1

    def raise_vector(self, cpu_id: int, vector: int, payload: object = None) -> None:
        """Software-raised interrupt (e.g. the self-virtualization request)."""
        self._check_cpu(cpu_id)
        self._pending[cpu_id].append(_PendingVector(vector, payload))

    # -- delivery ----------------------------------------------------------

    def pending_count(self, cpu_id: int) -> int:
        return len(self._pending[cpu_id])

    def any_pending(self) -> bool:
        """True when some CPU has a queued vector (one truth test per CPU
        queue, whatever the interrupt flags say)."""
        return any(self._pending)

    def deliver_pending(self, cpu: "Cpu") -> int:
        """Deliver up to 64 queued vectors on ``cpu`` through its installed
        IDT.

        Returns the number delivered.  Respects the interrupt flag; raises
        if a vector arrives with no gate (a real machine would triple-fault
        — tests assert we never get here in correct operation)."""
        queue = self._pending[cpu.cpu_id]
        if not queue or not cpu.interrupts_enabled:
            return 0
        delivered = 0
        popleft = queue.popleft
        cyc_dispatch = cpu.cost.cyc_interrupt_dispatch
        clock = cpu.clock
        while queue and delivered < 64:
            pend = popleft()
            # idt_base is re-read per vector: a handler may install a new
            # IDT (that is exactly what a mode switch does)
            idt = cpu.idt_base
            entry = idt.gates.get(pend.vector) if idt is not None else None
            if entry is None:
                raise HardwareError(
                    f"cpu{cpu.cpu_id}: vector {pend.vector:#x} has no IDT gate"
                )
            clock.cycles += cyc_dispatch
            # Hardware raises the privilege to the gate's level for the
            # handler, then the handler's IRET restores it.  We model the
            # round-trip explicitly so handlers (e.g. Mercury's switch
            # handler) can *edit* the level to return to (§5.1.3).
            saved_pl = cpu.pl
            cpu.pl = entry.handler_pl
            cpu._iret_pl = saved_pl  # handlers may overwrite this
            try:
                if pend.payload is not None:
                    entry.handler(cpu, pend.vector, pend.payload)  # type: ignore[call-arg]
                else:
                    entry.handler(cpu, pend.vector)
            finally:
                cpu.pl = cpu._iret_pl
                del cpu._iret_pl
            delivered += 1
            self.delivered += 1
        return delivered

    def consume_vector(self, cpu_id: int, vector: int) -> int:
        """Pull every pending instance of ``vector`` off a CPU's queue
        without IDT dispatch — used by protocols (e.g. Mercury's rendezvous)
        that field their IPIs inside an explicit handshake rather than
        through a gate.  Returns how many were consumed."""
        self._check_cpu(cpu_id)
        queue = self._pending[cpu_id]
        kept = [p for p in queue if p.vector != vector]
        consumed = len(queue) - len(kept)
        queue.clear()
        queue.extend(kept)
        return consumed

    def _check_cpu(self, cpu_id: int) -> None:
        if not (0 <= cpu_id < len(self._pending)):
            raise HardwareError(f"no such cpu {cpu_id}")
