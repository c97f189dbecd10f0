"""Process lifecycle: fork/exec/exit/wait, COW semantics, frame hygiene."""

import pytest

from repro.errors import NoSuchProcess, SyscallError
from repro.guestos.process import TaskState
from repro.hw.paging import pte_fields, pte_frame


def test_boot_creates_init(kernel):
    init = kernel.scheduler.current
    assert init.name == "init"
    assert init.state == TaskState.RUNNING
    assert init.aspace.mapped_count() == 16


def test_fork_returns_child_pid(kernel, cpu):
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert child.parent is kernel.scheduler.current
    assert child.state == TaskState.READY


def test_fork_child_shares_frames_readonly(kernel, cpu):
    parent = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    for vaddr in parent.aspace.mapped_vaddrs():
        p = pte_fields(parent.aspace.get_pte(vaddr))
        c = pte_fields(child.aspace.get_pte(vaddr))
        assert c.frame == p.frame
        assert not p.writable and not c.writable
        assert kernel.vmem.frame_refs(p.frame) == 2


def test_cow_write_isolates_parent_and_child(kernel, cpu):
    """After the child writes a shared page, parent and child must see
    different frames — the COW guarantee fork depends on."""
    parent = kernel.scheduler.current
    vaddr = next(iter(parent.aspace.mapped_vaddrs()))
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.switch_to(cpu, child)
    kernel.vmem.access(cpu, child, vaddr, write=True)
    c = pte_fields(child.aspace.get_pte(vaddr))
    p = pte_fields(parent.aspace.get_pte(vaddr))
    assert c.frame != p.frame
    assert c.writable
    assert kernel.vmem.frame_refs(p.frame) == 1
    assert kernel.vmem.frame_refs(c.frame) == 1


def test_cow_last_reference_reuses_frame(kernel, cpu):
    parent = kernel.scheduler.current
    vaddr = next(iter(parent.aspace.mapped_vaddrs()))
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.run_and_reap(cpu, child)  # child gone; parent sole owner again
    old_frame = pte_frame(parent.aspace.get_pte(vaddr))
    kernel.vmem.access(cpu, parent, vaddr, write=True)
    entry = pte_fields(parent.aspace.get_pte(vaddr))
    assert entry.frame == old_frame  # no copy needed
    assert entry.writable and not entry.cow


def test_exec_replaces_image(kernel, cpu):
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    old_aspace = child.aspace
    kernel.switch_to(cpu, child)
    kernel.syscall(cpu, "exec", "newprog", 24, task=child)
    assert child.name == "newprog"
    assert child.aspace is not old_aspace
    assert child.aspace.mapped_count() == 24


def test_exit_and_wait_reap(kernel, cpu):
    parent = kernel.scheduler.current
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    kernel.switch_to(cpu, child)
    kernel.syscall(cpu, "exit", 7, task=child)
    assert child.state == TaskState.ZOMBIE
    assert child.exit_code == 7
    kernel.switch_to(cpu, parent)
    got_pid, code = kernel.syscall(cpu, "wait")
    assert (got_pid, code) == (pid, 7)
    with pytest.raises(NoSuchProcess):
        kernel.procs.get(pid)


def test_wait_without_zombie_errors(kernel, cpu):
    with pytest.raises(SyscallError) as e:
        kernel.syscall(cpu, "wait")
    assert e.value.errno == "ECHILD"


def test_fork_exit_cycle_leaks_no_frames(kernel, cpu):
    free_before = kernel.machine.memory.free_frames
    for _ in range(5):
        pid = kernel.syscall(cpu, "fork")
        kernel.run_and_reap(cpu, kernel.procs.get(pid))
    assert kernel.machine.memory.free_frames == free_before


def test_fork_copies_fd_table(kernel, cpu):
    fd = kernel.syscall(cpu, "open", "/f", True)
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert fd in child.fds
    child.fds[fd][1] = 4096  # child's offset moves independently
    assert kernel.scheduler.current.fds[fd][1] == 0


def test_pids_monotonic(kernel, cpu):
    pids = [kernel.syscall(cpu, "fork") for _ in range(3)]
    assert pids == sorted(pids)
    assert len(set(pids)) == 3


def test_fork_records_selector_dpl(kernel, cpu):
    """The child's stack-cached selector DPL — the thing a mode switch
    must fix up (§5.1.2)."""
    pid = kernel.syscall(cpu, "fork")
    child = kernel.procs.get(pid)
    assert child.stack_cached_selector_dpl == \
        kernel.vo.data.kernel_segment_dpl
