"""Direct unit coverage for helpers that were previously only exercised
through higher-level paths."""

import pytest

from repro import Machine, paper_config, small_config
from repro.bench.configs import BareMetalVO
from repro.guestos.kernel import Kernel
from repro.hw.cpu import SegmentDescriptor
from repro.params import MachineConfig, PAGE_SIZE


def test_paper_config_matches_testbed():
    cfg = paper_config(num_cpus=2)
    assert cfg.num_cpus == 2
    assert cfg.mem_kb == 900_000
    assert cfg.timer_hz == 100
    assert cfg.cost.freq_mhz == 3000
    assert cfg.num_frames == 900_000 * 1024 // PAGE_SIZE


def test_config_with_helpers_are_nonmutating():
    base = MachineConfig()
    derived = base.with_cpus(4).with_mem_kb(1024)
    assert (derived.num_cpus, derived.mem_kb) == (4, 1024)
    assert (base.num_cpus, base.mem_kb) == (1, 900_000)


def test_cost_model_unit_conversions():
    cost = MachineConfig().cost
    assert cost.us(3000) == pytest.approx(1.0)
    assert cost.cycles_from_ns(1000) == pytest.approx(3000)


def test_clock_advance_us(machine):
    machine.clock.advance_us(2.5)
    assert machine.clock.cycles == int(2.5 * 3000)


def test_load_ldt(cpu):
    ldt = {1: SegmentDescriptor("tls", 3)}
    cpu.load_ldt(ldt)
    assert cpu.ldt[1].name == "tls"


def test_memory_written_frames_and_generation_of(machine):
    import numpy as np
    f1 = machine.memory.alloc(0)
    f2 = machine.memory.alloc(0)
    machine.memory.write(f1, "x")
    assert list(machine.memory.written_frames()) == [f1]
    gens = machine.memory.generation_of(np.array([f1, f2]))
    assert list(gens) == [1, 0]


def test_spawn_initial_builds_standalone_process(kernel):
    extra = kernel.procs.spawn_initial("daemon", image_pages=6)
    assert extra.aspace.mapped_count() == 6
    assert extra.parent is None
    assert extra.pid > 1


def test_bench_exec_and_sh_report_sane_latencies():
    from repro.workloads.lmbench import bench_exec, bench_fork, bench_sh
    m = Machine(small_config(mem_kb=131072))
    k = Kernel(m, BareMetalVO(m), name="lat")
    k.boot(image_pages=64)
    cpu = m.boot_cpu
    fork = bench_fork(k, cpu, iters=2)
    exe = bench_exec(k, cpu, iters=2)
    sh = bench_sh(k, cpu, iters=1)
    # the paper's ordering: fork < exec < sh
    assert fork < exe < sh


def test_scheduler_dequeue_clears_current(kernel, cpu):
    current = kernel.scheduler.current
    kernel.scheduler.dequeue(current)
    assert kernel.scheduler.current is None


def test_yield_with_empty_runqueue_keeps_running(kernel, cpu):
    me = kernel.scheduler.current
    kernel.syscall(cpu, "sched_yield")
    assert kernel.scheduler.current is me


def test_precache_vmm_direct(machine):
    from repro.core.precache import precache_vmm
    vmm, info = precache_vmm(machine, charge_boot_time=False)
    assert vmm.state.value == "warm"
    assert info.warmup_cycles == 0
    assert info.reserved_frames > 0


def test_netfront_rx_kick_empty_is_noop(machine):
    from repro.guestos.splitio import NetFront
    from repro.vmm.rings import IoRing
    k = Kernel(machine, BareMetalVO(machine), name="nf",
               has_devices=False)
    front = NetFront(k, IoRing(8), IoRing(8), notify_backend=lambda c: None)
    assert front.rx_poll(machine.boot_cpu) == 0


def test_open_check_direct(kernel, cpu):
    from repro.errors import FileSystemError
    inode = kernel.fs.open_check(cpu, "/direct", create=True)
    assert inode.path == "/direct"
    assert kernel.fs.open_check(cpu, "/direct", create=False) is inode
    with pytest.raises(FileSystemError):
        kernel.fs.open_check(cpu, "/missing", create=False)


def test_individual_invariant_checks_run_clean(mercury):
    from repro.core import invariants
    for inv in invariants.REGISTRY:
        assert list(inv.check(mercury)) == [], inv.name
