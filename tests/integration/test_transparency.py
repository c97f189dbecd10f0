"""Application transparency across mode switches — the paper's central
promise: 'without disturbing the running applications' (§1).

A workload starts in one mode, the OS switches underneath it (possibly
repeatedly), and the workload's observable results must be exactly what an
unswitched run produces.
"""

import pytest

from repro import Machine, Mercury, small_config
from repro.guestos.fs import BLOCK_SIZE
from repro.hw.paging import pte_frame
from repro.params import PAGE_SIZE


@pytest.fixture
def rig():
    machine = Machine(small_config(mem_kb=65536))
    mc = Mercury(machine)
    k = mc.create_kernel(image_pages=16)
    return mc, k, machine.boot_cpu


def test_open_files_survive_switches(rig):
    mc, k, cpu = rig
    fd = k.syscall(cpu, "open", "/log", True)
    k.syscall(cpu, "write", fd, "entry-1", BLOCK_SIZE)
    mc.attach()
    k.syscall(cpu, "write", fd, "entry-2", BLOCK_SIZE)
    mc.detach()
    k.syscall(cpu, "write", fd, "entry-3", BLOCK_SIZE)
    k.syscall(cpu, "lseek", fd, 0)
    got = [k.syscall(cpu, "read", fd, BLOCK_SIZE)[0] for _ in range(3)]
    assert got == ["entry-1", "entry-2", "entry-3"]


def test_process_tree_survives_switches(rig):
    mc, k, cpu = rig
    pids = [k.syscall(cpu, "fork") for _ in range(3)]
    mc.attach()
    assert sorted(t.pid for t in k.procs.live_tasks()
                  if t.pid in pids) == sorted(pids)
    for pid in pids:
        k.run_and_reap(cpu, k.procs.get(pid))
    mc.detach()
    assert len(k.procs.live_tasks()) == 1


def test_mapped_memory_survives_switches(rig):
    mc, k, cpu = rig
    task = k.scheduler.current
    base = k.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
    frame = k.vmem.access(cpu, task, base, write=True)
    k.machine.memory.write(frame, "sacred-bytes")
    mc.attach()
    assert k.vmem.access(cpu, task, base, write=False) == frame
    assert k.machine.memory.read(frame) == "sacred-bytes"
    mc.detach()
    assert k.vmem.access(cpu, task, base, write=False) == frame
    assert k.machine.memory.read(frame) == "sacred-bytes"


def test_cow_semantics_identical_across_modes(rig):
    """A fork in native mode, a COW break in virtual mode: exactly the
    same sharing outcome as an unswitched run."""
    mc, k, cpu = rig
    parent = k.scheduler.current
    vaddr = next(iter(parent.aspace.mapped_vaddrs()))
    pid = k.syscall(cpu, "fork")
    child = k.procs.get(pid)
    mc.attach()  # switch with COW state outstanding
    k.switch_to(cpu, child)
    k.vmem.access(cpu, child, vaddr, write=True)
    assert pte_frame(child.aspace.get_pte(vaddr)) != \
        pte_frame(parent.aspace.get_pte(vaddr))
    mc.detach()


def test_workload_results_identical_switched_vs_not():
    """The decisive check: a deterministic workload computes the same
    *results* whether or not switches happen underneath it (only the
    timing differs)."""
    def workload(k, cpu, mc=None):
        out = []
        fd = k.syscall(cpu, "open", "/out", True)
        for i in range(6):
            if mc is not None and i == 2:
                mc.attach()
            if mc is not None and i == 4:
                mc.detach()
            pid = k.syscall(cpu, "fork")
            k.run_and_reap(cpu, k.procs.get(pid))
            k.syscall(cpu, "write", fd, f"row-{i}-pid-{pid}", BLOCK_SIZE)
        k.syscall(cpu, "lseek", fd, 0)
        for _ in range(6):
            out.append(k.syscall(cpu, "read", fd, BLOCK_SIZE)[0])
        return out

    m1 = Machine(small_config(mem_kb=65536))
    mc1 = Mercury(m1)
    k1 = mc1.create_kernel(image_pages=16)
    plain = workload(k1, m1.boot_cpu)

    m2 = Machine(small_config(mem_kb=65536))
    mc2 = Mercury(m2)
    k2 = mc2.create_kernel(image_pages=16)
    switched = workload(k2, m2.boot_cpu, mc2)

    assert plain == switched


def test_many_roundtrips_no_state_drift(rig):
    mc, k, cpu = rig
    free0 = None
    for i in range(8):
        mc.attach()
        mc.detach()
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
        free = k.machine.memory.free_frames
        if free0 is None:
            free0 = free
        else:
            assert free == free0  # no frame leak per cycle
    assert len(mc.switch_records) == 16
