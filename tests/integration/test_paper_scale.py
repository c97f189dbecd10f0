"""Full paper-scale validation: the §7.1 testbed dimensions.

The benches run at a reduced memory scale for speed; this test builds the
actual 900 000 KB machine once and verifies nothing degrades at scale —
per-operation latencies and switch times must match the small-scale
numbers (they are population-dependent, not memory-size-dependent).
"""

import pytest

from repro import Machine, Mercury, paper_config, small_config
from repro.bench.runner import SWITCH_PROCESSES, switch_stack


def test_paper_scale_machine_and_switch():
    mercury = switch_stack(paper_config(), SWITCH_PROCESSES, True)
    assert mercury.machine.memory.num_frames == 225_000
    rec_big = mercury.attach()
    mercury.detach()

    # the same population on a small machine: identical switch cost
    mc2 = switch_stack(small_config(mem_kb=262_144), SWITCH_PROCESSES, True)
    rec_small = mc2.attach()
    mc2.detach()

    assert rec_big.pt_pages == rec_small.pt_pages
    assert rec_big.cycles == rec_small.cycles, \
        "switch cost depends on installed memory (it must not)"
    # and it lands in the paper's regime
    assert 0.1 < rec_big.ms() < 0.4


def test_paper_scale_fork_latency_unchanged():
    from repro.workloads.lmbench import bench_fork
    from repro.bench.configs import BareMetalVO
    from repro.guestos.kernel import Kernel

    results = []
    for config in (paper_config(), small_config(mem_kb=262_144)):
        machine = Machine(config)
        k = Kernel(machine, BareMetalVO(machine), name="scale")
        k.boot(image_pages=384)
        results.append(bench_fork(k, machine.boot_cpu, iters=2))
    assert results[0] == pytest.approx(results[1], rel=1e-9)


def test_paper_scale_domU_memory_reservations():
    """§7.1: 900 000 KB per variant, 870 000 KB for domainU — both fit a
    2 GB machine with the VMM resident."""
    import dataclasses
    from repro.params import MachineConfig

    config = dataclasses.replace(MachineConfig(), mem_kb=2_000_000)
    machine = Machine(config)
    mercury = Mercury(machine)
    mercury.create_kernel(image_pages=96)
    mercury.attach()
    guest = mercury.host_guest(image_pages=96)
    # both kernels live, the VMM reserved, and most frames still free
    assert machine.memory.free_frames > machine.memory.num_frames // 2
    cpu = machine.boot_cpu
    pid = guest.syscall(cpu, "fork")
    guest.run_and_reap(cpu, guest.procs.get(pid))
