"""Kernel glue and the scheduler: dispatch, switching, waiting, SMP."""

import pytest

from repro import Machine, small_config
from repro.core.native_vo import NativeVO
from repro.errors import GuestOSError, SyscallError
from repro.guestos.kernel import Kernel
from repro.guestos.process import Task, TaskState
from repro.hw.cpu import PrivilegeLevel


def test_double_boot_rejected(kernel):
    with pytest.raises(GuestOSError):
        kernel.boot()


def test_unknown_syscall(kernel, cpu):
    with pytest.raises(SyscallError) as e:
        kernel.syscall(cpu, "frobnicate")
    assert e.value.errno == "ENOSYS"


def test_syscall_returns_to_user_mode(kernel, cpu):
    kernel.syscall(cpu, "getpid")
    assert cpu.pl == PrivilegeLevel.PL3


def test_syscall_exits_kernel_even_on_error(kernel, cpu):
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "read", 99, 10)
    assert cpu.pl == PrivilegeLevel.PL3


def test_syscall_override_takes_precedence(kernel, cpu):
    kernel.syscall_overrides["getpid"] = lambda k, c, t: 4242
    assert kernel.syscall(cpu, "getpid") == 4242
    del kernel.syscall_overrides["getpid"]
    assert kernel.syscall(cpu, "getpid") != 4242


def test_context_switch_loads_cr3(kernel, cpu):
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.switch_to(cpu, child)
    assert cpu.cr3 == child.aspace.pgd_frame
    assert child.state == TaskState.RUNNING
    assert kernel.scheduler.current is child


def test_switch_requeues_previous(kernel, cpu):
    init = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    kernel.switch_to(cpu, kernel.procs.get(pid))
    assert init in kernel.scheduler.runqueue
    assert init.state == TaskState.READY


def test_dequeue_takes_the_task_not_an_equal_one(kernel):
    """Tasks compare by identity: of two queued tasks whose fields are all
    equal, dequeuing one leaves the other queued."""
    sched = kernel.scheduler
    aspace = sched.current.aspace
    first, second = Task(7, "twin", aspace), Task(7, "twin", aspace)
    sched.runqueue.extend((first, second))
    sched.dequeue(second)
    assert [t for t in sched.runqueue if t is first] == [first]
    assert not any(t is second for t in sched.runqueue)
    sched.dequeue(second)                 # no longer queued: a no-op
    assert any(t is first for t in sched.runqueue)


def test_yield_round_robins(kernel, cpu):
    init = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.syscall(cpu, "sched_yield")
    assert kernel.scheduler.current is child
    kernel.syscall(cpu, "sched_yield", task=child)
    assert kernel.scheduler.current is init


def test_user_compute_charges_and_accounts(kernel, cpu):
    t0 = cpu.rdtsc()
    kernel.user_compute(cpu, 10.0)
    assert cpu.rdtsc() - t0 == 10 * cpu.cost.freq_mhz
    assert kernel.scheduler.current.utime_cycles >= 10 * cpu.cost.freq_mhz


def test_wait_for_deadlock_detected(kernel, cpu):
    with pytest.raises(GuestOSError):
        kernel.wait_for(cpu, lambda: False)


def test_wait_for_advances_to_event(kernel, cpu):
    hit = []
    kernel.machine.clock.schedule(10_000, lambda: hit.append(1))
    kernel.wait_for(cpu, lambda: bool(hit))
    assert hit == [1]


def test_smp_lock_charged_only_on_smp():
    up = Machine(small_config(num_cpus=1))
    k1 = Kernel(up, NativeVO(up), name="up")
    t0 = up.clock.cycles
    k1.smp_lock(up.boot_cpu)
    assert up.clock.cycles == t0

    smp = Machine(small_config(num_cpus=2))
    k2 = Kernel(smp, NativeVO(smp), name="smp")
    t0 = smp.clock.cycles
    k2.smp_lock(smp.boot_cpu)
    assert smp.clock.cycles == t0 + smp.config.cost.cyc_lock


def test_smp_fork_costs_more_than_up():
    """Table 2's rows sit above Table 1's: SMP locking is charged."""
    results = {}
    for cpus in (1, 2):
        m = Machine(small_config(num_cpus=cpus))
        k = Kernel(m, NativeVO(m), name=f"k{cpus}")
        k.boot(image_pages=16)
        cpu = m.boot_cpu
        t0 = cpu.rdtsc()
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
        results[cpus] = cpu.rdtsc() - t0
    assert results[2] > results[1]


def test_spawn_process_returns_execed_child(kernel, cpu):
    child = kernel.spawn_process(cpu, "worker", image_pages=8)
    assert child.name == "worker"
    assert child.aspace.mapped_count() == 8
    assert kernel.scheduler.current is not child  # parent resumed


def test_block_io_without_driver_fails():
    m = Machine(small_config())
    k = Kernel(m, NativeVO(m), name="nodisk", has_devices=False)
    with pytest.raises(GuestOSError):
        k.block_read(m.boot_cpu, 0)
    with pytest.raises(GuestOSError):
        k.net_transmit(m.boot_cpu, None)
