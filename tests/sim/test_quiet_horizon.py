"""The idle test and the quiet horizon.

``Machine.poll`` returns at once when ``Machine.quiet_until()`` lies ahead
of the clock — the heap head (even a cancelled one) is in the future and no
CPU has a vector queued.  The test is exact: each case below runs one
machine through ``poll`` and an identically built twin through the full
pass it skips (``run_due`` plus ``deliver_pending`` on every CPU), and
both must agree on the return value, the clock, the handlers run, the
next live deadline and the vectors left queued.

``repro.sim.scheduler.quiet_until(cpu)`` extends the idle test to a CPU:
+inf wherever ``SimScheduler.pump`` would return 0 whatever is due (no
scheduler, a pump on the stack, ``cpu`` masked), the clock while a vector
is queued, and the heap head's deadline otherwise.
"""

from __future__ import annotations

import math

import pytest

from repro import Machine, small_config
from repro.hw.interrupts import Idt
from repro.sim import SimScheduler
from repro.sim.scheduler import quiet_until

VEC = 0x40


def _machine(case: str, log: list) -> Machine:
    machine = Machine(small_config(num_cpus=2))
    clock = machine.clock
    idt = Idt("test")
    idt.set_gate(VEC, lambda cpu, vector: log.append(("vec", cpu.cpu_id)))
    for cpu in machine.cpus:
        cpu.load_idt(idt)
    clock.cycles = 1000
    if case == "future-deadlines":
        clock.schedule(50, lambda: log.append("t50"))
        clock.schedule(10, lambda: log.append("t10"))
    elif case == "cancelled-past-head":
        clock.schedule_at(900, lambda: log.append("t900")).cancel()
        clock.schedule(20, lambda: log.append("t20"))
    elif case == "cancelled-future-head":
        clock.schedule(5, lambda: log.append("t5")).cancel()
        clock.schedule(20, lambda: log.append("t20"))
    elif case == "due-now":
        clock.schedule(0, lambda: log.append("t0"))
    elif case == "vector-masked":
        machine.cpus[1].cli()
        machine.intc.raise_vector(1, VEC)
    elif case == "vector-enabled":
        machine.intc.raise_vector(1, VEC)
    return machine


def _observe(machine: Machine, result: int, log: list) -> tuple:
    return (result, machine.clock.cycles, list(log),
            machine.clock.next_deadline(),
            [machine.intc.pending_count(c.cpu_id) for c in machine.cpus])


@pytest.mark.parametrize("case", [
    "empty", "future-deadlines", "cancelled-past-head",
    "cancelled-future-head", "due-now", "vector-masked", "vector-enabled"])
def test_poll_agrees_with_the_full_pass(case):
    log_fast, log_full = [], []
    fast = _machine(case, log_fast)
    full = _machine(case, log_full)
    idle = fast.quiet_until() > fast.clock.cycles
    result = fast.poll()
    full_result = full.clock.run_due() + sum(
        full.intc.deliver_pending(cpu) for cpu in full.cpus)
    assert (_observe(fast, result, log_fast)
            == _observe(full, full_result, log_full))
    # the idle cases are exactly the ones the full pass finds nothing in
    assert idle == (case in ("empty", "future-deadlines",
                             "cancelled-future-head"))


def test_machine_quiet_until_reads():
    machine = Machine(small_config())
    clock = machine.clock
    assert machine.quiet_until() == math.inf
    clock.schedule(40, lambda: None)
    handle = clock.schedule(10, lambda: None)
    assert machine.quiet_until() == 10
    handle.cancel()
    # a cancelled head still bounds every live deadline from below
    assert machine.quiet_until() == 10
    clock.cycles = 5
    machine.intc.raise_vector(0, VEC)
    assert machine.quiet_until() == 5


def test_quiet_until_is_infinite_without_a_scheduler():
    machine = Machine(small_config())
    machine.clock.schedule(0, lambda: None)
    machine.intc.raise_vector(0, VEC)
    assert quiet_until(machine.boot_cpu) == math.inf


def test_quiet_until_under_the_scheduler():
    machine = Machine(small_config(num_cpus=2))
    clock = machine.clock
    idt = Idt("test")
    seen = {}
    cpu0, cpu1 = machine.cpus

    def on_vector(cpu, vector):
        # a delivered handler runs with a pump on the stack
        seen["pumping"] = quiet_until(cpu0)

    idt.set_gate(VEC, on_vector)
    cpu0.load_idt(idt)

    def task():
        clock.schedule(500, lambda: None)
        seen["head"] = (quiet_until(cpu0), clock.cycles + 500)
        cpu1.cli()
        seen["masked"] = quiet_until(cpu1)
        cpu1.sti()
        machine.intc.raise_vector(0, VEC)
        seen["vector"] = (quiet_until(cpu1), clock.cycles)
        sched.pump(cpu0)
        yield

    sched = SimScheduler(machine)
    sched.spawn(task(), cpu=cpu0)
    sched.run()
    assert seen["head"][0] == seen["head"][1]
    assert seen["masked"] == math.inf
    assert seen["vector"][0] == seen["vector"][1]
    assert seen["pumping"] == math.inf
