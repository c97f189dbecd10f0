"""Lazy-MMU batching: queueing, flush points, and the flush-before-commit
invariant (the ReHype-style "drain queued state before any mode transition"
discipline)."""

from __future__ import annotations

import pytest

from repro.core.invariants import check_all, check_lazy_mmu
from repro.core.mercury import Mode, PagingMode
from repro.hw.paging import pte, pte_fields, pte_frame, vpn_split
from repro.params import PAGE_SIZE

#: scratch vaddrs well away from the process image
VADDR = 0x4000_0000


def _pinned_setup(mercury):
    """Attach and hand back (cpu, vo, current task's pinned aspace)."""
    mercury.attach()
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    return cpu, kernel, kernel.scheduler.current.aspace


def _fresh_frame(mercury):
    frame = mercury.machine.memory.alloc(mercury.kernel.owner_id)
    mercury.kernel.vmem.claim_frame(frame)
    return frame


def test_region_queues_then_flushes_one_batch(mercury):
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo
    frame = _fresh_frame(mercury)
    before = mercury.vmm.hypercall_counts.get("update_va_mapping", 0)

    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(frame))
    # queued, not applied: the structural table must not see it yet
    assert vo.lazy_mmu_pending() == 1
    assert aspace.get_pte(VADDR) is None
    vo.lazy_mmu_end(cpu)

    assert vo.lazy_mmu_pending() == 0
    assert pte_frame(aspace.get_pte(VADDR)) == frame
    # went out as a batched mmu_update, not the single-PTE path
    assert mercury.vmm.hypercall_counts.get("update_va_mapping", 0) == before
    assert mercury.vmm.mmu_batches >= 1


def test_nested_regions_flush_only_at_outermost_end(mercury):
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo
    frame = _fresh_frame(mercury)

    vo.lazy_mmu_begin(cpu)
    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(frame))
    vo.lazy_mmu_end(cpu)
    assert vo.lazy_mmu_pending() == 1  # inner end must not flush
    vo.lazy_mmu_end(cpu)
    assert vo.lazy_mmu_pending() == 0
    assert pte_frame(aspace.get_pte(VADDR)) == frame


def test_rmw_sees_its_own_queued_writes(mercury):
    """update_pte_flags inside a region must base its read-modify-write on
    the queued (pending) value, not the stale structural table."""
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo
    frame = _fresh_frame(mercury)

    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(frame, writable=True))
    pgd_idx, idx = vpn_split(VADDR)
    vo.update_pte_flags(cpu, aspace, pgd_idx, [idx], writable=False, cow=True)
    vo.lazy_mmu_end(cpu)

    entry = pte_fields(aspace.get_pte(VADDR))
    assert entry.frame == frame
    assert entry.writable is False and entry.cow is True


def test_tlb_flush_and_cr3_load_flush_mid_region(mercury):
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo

    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(_fresh_frame(mercury)))
    vo.flush_tlb(cpu)
    assert vo.lazy_mmu_pending() == 0  # observable point: queue drained
    vo.set_pte(cpu, aspace, VADDR + PAGE_SIZE,
               pte(_fresh_frame(mercury)))
    vo.write_cr3(cpu, aspace.pgd_frame)
    assert vo.lazy_mmu_pending() == 0
    vo.lazy_mmu_end(cpu)


def test_mode_switch_mid_region_drains_before_commit(mercury):
    """A detach fired while a lazy region is open must drain the queue
    before the VO pointer swap — and the orphaned lazy_mmu_end afterwards
    is a harmless no-op on the retired region."""
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo
    frame = _fresh_frame(mercury)

    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(frame))
    assert vo.lazy_mmu_pending() == 1

    mercury.detach()
    assert mercury.mode is Mode.NATIVE
    # drained at commit: applied through the VMM before it deactivated
    assert vo.lazy_mmu_pending() == 0
    assert pte_frame(aspace.get_pte(VADDR)) == frame

    # the region was retired; balanced end on either VO changes nothing
    vo.lazy_mmu_end(cpu)
    kernel.vo.lazy_mmu_end(cpu)
    assert vo.lazy_mmu_pending() == 0
    assert not check_all(mercury)


def test_invariant_flags_pending_queue(mercury):
    cpu, kernel, aspace = _pinned_setup(mercury)
    vo = kernel.vo
    assert check_lazy_mmu(mercury) == []
    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, VADDR, pte(_fresh_frame(mercury)))
    violations = check_lazy_mmu(mercury)
    assert violations and "lazy-MMU" in violations[0]
    vo.lazy_mmu_end(cpu)
    assert check_lazy_mmu(mercury) == []


def test_native_mode_markers_are_noops(mercury):
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    aspace = kernel.scheduler.current.aspace
    frame = _fresh_frame(mercury)
    with kernel.lazy_mmu(cpu):
        kernel.vo.set_pte(cpu, aspace, VADDR, pte(frame))
        # native PTE writes are plain stores: applied immediately
        assert pte_frame(aspace.get_pte(VADDR)) == frame
        assert kernel.vo.lazy_mmu_pending() == 0


def test_shadow_mode_markers_are_noops(machine):
    from repro import Mercury
    mercury = Mercury(machine, paging=PagingMode.SHADOW)
    mercury.create_kernel(image_pages=8)
    mercury.attach()
    kernel = mercury.kernel
    cpu = machine.boot_cpu
    aspace = kernel.scheduler.current.aspace
    frame = _fresh_frame(mercury)
    with kernel.lazy_mmu(cpu):
        # every shadow write traps individually; nothing may queue
        kernel.vo.set_pte(cpu, aspace, VADDR, pte(frame))
        assert pte_frame(aspace.get_pte(VADDR)) == frame
        assert kernel.vo.lazy_mmu_pending() == 0
    assert mercury.pager.verify_coherent(aspace)


def test_fork_exit_avoid_single_pte_hypercalls(mercury):
    """The whole point: process churn in virtual mode must ride the batched
    mmu_update path, leaving update_va_mapping to genuine single-PTE work
    (fault fixups)."""
    mercury.attach()
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    child = kernel.spawn_process(cpu, "worker", image_pages=16)
    kernel.run_and_reap(cpu, child)
    counts = mercury.vmm.hypercall_counts
    assert counts.get("mmu_update", 0) > 0
    assert counts.get("update_va_mapping", 0) == 0
    assert mercury.vmm.mmu_batched_updates > 0
