"""Virtual memory: mmap/munmap, demand paging, protection, brk."""

import pytest

from repro.errors import SyscallError
from repro.hw.paging import PTE_P
from repro.params import PAGE_SIZE


def test_mmap_demand_pages_on_touch(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert task.aspace.get_pte(base) is None  # nothing mapped yet
    faults0 = kernel.vmem.minor_faults
    kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.minor_faults == faults0 + 1
    assert task.aspace.get_pte(base) & PTE_P


def test_mmap_populate_maps_eagerly(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE, True)
    for i in range(4):
        assert task.aspace.get_pte(base + i * PAGE_SIZE) & PTE_P


def test_mmap_zero_length_rejected(kernel, cpu):
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "mmap", 0)


def test_munmap_frees_frames(kernel, cpu):
    # force the mmap-area leaf PT page into existence first so the
    # measured delta is data frames only
    kernel.syscall(cpu, "mmap", PAGE_SIZE, True)
    free0 = kernel.machine.memory.free_frames
    base = kernel.syscall(cpu, "mmap", 8 * PAGE_SIZE, True)
    assert kernel.machine.memory.free_frames == free0 - 8
    kernel.syscall(cpu, "munmap", base, 8 * PAGE_SIZE)
    assert kernel.machine.memory.free_frames == free0


def test_munmap_partial_range_rejected(kernel, cpu):
    base = kernel.syscall(cpu, "mmap", 8 * PAGE_SIZE, True)
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "munmap", base, 4 * PAGE_SIZE)


def test_mappings_do_not_overlap(kernel, cpu):
    a = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    b = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert abs(a - b) >= 4 * PAGE_SIZE


def test_hole_reuse_after_munmap(kernel, cpu):
    a = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    kernel.syscall(cpu, "munmap", a, 4 * PAGE_SIZE)
    b = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE)
    assert b == a


def test_access_outside_vma_is_segv(kernel, cpu):
    task = kernel.scheduler.current
    with pytest.raises(SyscallError) as e:
        kernel.vmem.access(cpu, task, 0x7000_0000, write=False)
    assert e.value.errno == "SIGSEGV"


def test_mprotect_write_fault(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
    kernel.syscall(cpu, "mprotect", base, 2 * PAGE_SIZE, False)
    faults0 = kernel.vmem.prot_faults
    with pytest.raises(SyscallError):
        kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.prot_faults == faults0 + 1
    # reads still fine
    kernel.vmem.access(cpu, task, base, write=False)


def test_mprotect_unmapped_rejected(kernel, cpu):
    with pytest.raises(SyscallError):
        kernel.syscall(cpu, "mprotect", 0x7000_0000, PAGE_SIZE, False)


def test_mprotect_restore_write(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", PAGE_SIZE, True)
    kernel.syscall(cpu, "mprotect", base, PAGE_SIZE, False)
    kernel.syscall(cpu, "mprotect", base, PAGE_SIZE, True)
    kernel.vmem.access(cpu, task, base, write=True)  # no fault


def test_brk_grows_heap_lazily(kernel, cpu):
    task = kernel.scheduler.current
    old = task.brk
    new = kernel.syscall(cpu, "brk", old + 4 * PAGE_SIZE)
    assert new == old + 4 * PAGE_SIZE
    kernel.vmem.access(cpu, task, old, write=True)  # demand-paged


def test_brk_never_shrinks(kernel, cpu):
    task = kernel.scheduler.current
    old = task.brk
    assert kernel.syscall(cpu, "brk", old - PAGE_SIZE) == old


def test_tlb_serves_repeat_access_without_refault(kernel, cpu):
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", PAGE_SIZE)
    kernel.vmem.access(cpu, task, base, write=True)
    faults = kernel.vmem.minor_faults
    hits0 = cpu.tlb.hits
    kernel.vmem.access(cpu, task, base, write=True)
    assert kernel.vmem.minor_faults == faults
    assert cpu.tlb.hits == hits0 + 1


def test_demand_zero_cost_roughly_matches_table1(kernel, cpu):
    """Native page-fault latency should be near Table 1's 1.22 µs."""
    task = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 32 * PAGE_SIZE)
    t0 = cpu.rdtsc()
    for i in range(32):
        kernel.vmem.access(cpu, task, base + i * PAGE_SIZE, write=True)
    per_fault_us = cpu.cost.us(cpu.rdtsc() - t0) / 32
    assert 0.5 < per_fault_us < 2.5
