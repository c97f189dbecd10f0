"""Interrupt fabric: lines, vectors, IPIs, IDT dispatch, privilege."""

import pytest

from repro.errors import HardwareError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.interrupts import Idt, VEC_TIMER


def _gate(log, name="h"):
    def handler(cpu, vector):
        log.append((name, vector, int(cpu.pl)))
    return handler


def test_bind_and_raise_line(machine):
    log = []
    idt = Idt("test")
    idt.set_gate(VEC_TIMER, _gate(log))
    machine.boot_cpu.load_idt(idt)
    machine.intc.bind_line("timer", 0, VEC_TIMER)
    machine.intc.raise_line("timer")
    assert machine.intc.pending_count(0) == 1
    machine.poll()
    assert log == [("h", VEC_TIMER, 0)]


def test_unbound_line_is_an_error(machine):
    with pytest.raises(HardwareError):
        machine.intc.raise_line("nosuch")


def test_delivery_respects_interrupt_flag(machine):
    log = []
    idt = Idt("test")
    idt.set_gate(0x40, _gate(log))
    cpu = machine.boot_cpu
    cpu.load_idt(idt)
    cpu.cli()
    machine.intc.raise_vector(0, 0x40)
    machine.poll()
    assert log == []
    cpu.sti()
    machine.poll()
    assert log == [("h", 0x40, 0)]


def test_missing_gate_is_fatal(machine):
    machine.boot_cpu.load_idt(Idt("empty"))
    machine.intc.raise_vector(0, 0x41)
    with pytest.raises(HardwareError):
        machine.poll()


def test_handler_runs_at_gate_privilege_and_iret_restores(machine):
    """Hardware raises the PL for the handler; IRET restores the saved
    level — the frame Mercury's switch handler edits (§5.1.3)."""
    log = []
    idt = Idt("test")
    idt.set_gate(0x42, _gate(log), handler_pl=0)
    cpu = machine.boot_cpu
    cpu.load_idt(idt)
    cpu.set_privilege(PrivilegeLevel.PL3)
    machine.intc.raise_vector(0, 0x42)
    machine.poll()
    assert log == [("h", 0x42, 0)]        # ran at PL0
    assert cpu.pl == PrivilegeLevel.PL3   # restored


def test_a_gate_resolves_its_privilege_level_once(machine):
    """The gate holds the level itself, and delivery assigns it."""
    log = []
    idt = Idt("test")
    idt.set_gate(0x42, _gate(log), handler_pl=1)
    assert idt.gates[0x42].handler_pl is PrivilegeLevel.PL1
    cpu = machine.boot_cpu
    cpu.load_idt(idt)
    cpu.set_privilege(PrivilegeLevel.PL3)
    machine.intc.raise_vector(0, 0x42)
    machine.poll()
    assert log == [("h", 0x42, 1)]
    assert cpu.pl == PrivilegeLevel.PL3


def test_handler_may_edit_iret_privilege(machine):
    """Overwriting _iret_pl changes the level returned to — the §5.1.3
    privileged-level switch mechanism."""
    idt = Idt("test")

    def switcher(cpu, vector):
        cpu._iret_pl = PrivilegeLevel.PL1

    idt.set_gate(0x43, switcher, handler_pl=0)
    cpu = machine.boot_cpu
    cpu.load_idt(idt)
    cpu.set_privilege(PrivilegeLevel.PL3)
    machine.intc.raise_vector(0, 0x43)
    machine.poll()
    assert cpu.pl == PrivilegeLevel.PL1


def test_ipi_charges_sender_and_queues_target(machine2):
    cpu0, cpu1 = machine2.cpus
    t0 = cpu0.rdtsc()
    machine2.intc.send_ipi(cpu0, 1, 0xFD)
    assert cpu0.rdtsc() - t0 == cpu0.cost.cyc_ipi_send
    assert machine2.intc.pending_count(1) == 1
    assert machine2.intc.sent_ipis == 1


def test_ipi_to_bad_cpu_rejected(machine):
    with pytest.raises(HardwareError):
        machine.intc.send_ipi(machine.boot_cpu, 7, 0xFD)


def test_consume_vector_removes_only_matching(machine):
    machine.intc.raise_vector(0, 0x50)
    machine.intc.raise_vector(0, 0x51)
    machine.intc.raise_vector(0, 0x50)
    assert machine.intc.consume_vector(0, 0x50) == 2
    assert machine.intc.pending_count(0) == 1


def test_payload_delivery(machine):
    got = []
    idt = Idt("test")
    idt.set_gate(0x44, lambda cpu, vec, payload: got.append(payload))
    machine.boot_cpu.load_idt(idt)
    machine.intc.raise_vector(0, 0x44, payload={"k": 1})
    machine.poll()
    assert got == [{"k": 1}]


def test_rebinding_a_line_moves_delivery(machine2):
    log0, log1 = [], []
    for cpu, log in zip(machine2.cpus, (log0, log1)):
        idt = Idt(f"cpu{cpu.cpu_id}")
        idt.set_gate(0x45, _gate(log))
        cpu.load_idt(idt)
    machine2.intc.bind_line("dev", 0, 0x45)
    machine2.intc.raise_line("dev")
    machine2.intc.bind_line("dev", 1, 0x45)  # rebind (mode switches do this)
    machine2.intc.raise_line("dev")
    machine2.poll()
    assert len(log0) == 1 and len(log1) == 1


def test_bad_vector_range():
    idt = Idt("x")
    with pytest.raises(HardwareError):
        idt.set_gate(0x100, lambda c, v: None)
