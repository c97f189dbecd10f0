"""The hypercall table: mmu_update, pinning, traps, events, scheduling."""

import pytest

from repro.errors import HypercallError, PageValidationError
from repro.hw.paging import AddressSpace, pte, pte_frame
from repro.vmm.page_info import PageType


@pytest.fixture
def env(machine, warm_vmm):
    dom = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    return machine.boot_cpu, machine, warm_vmm, dom, aspace


def test_mmu_update_installs_and_clears(env):
    cpu, machine, vmm, dom, aspace = env
    frame = machine.memory.alloc(0)
    n = vmm.hypercall(cpu, dom, "mmu_update",
                      [(aspace, 0x4000, pte(frame))])
    assert n == 1
    assert pte_frame(aspace.get_pte(0x4000)) == frame
    vmm.hypercall(cpu, dom, "mmu_update", [(aspace, 0x4000, None)])
    assert aspace.get_pte(0x4000) is None
    assert vmm.page_info.type[frame] == PageType.NONE


def test_mmu_update_unregistered_aspace_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    rogue = AddressSpace(machine.memory, owner=0)
    frame = machine.memory.alloc(0)
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmu_update",
                      [(rogue, 0x4000, pte(frame))])


def test_mmu_update_foreign_frame_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    foreign = machine.memory.alloc(31)
    with pytest.raises(PageValidationError):
        vmm.hypercall(cpu, dom, "mmu_update",
                      [(aspace, 0x4000, pte(foreign))])


def test_update_va_mapping_costs_more_than_batched(env):
    cpu, machine, vmm, dom, aspace = env
    frames = [machine.memory.alloc(0) for _ in range(8)]
    t0 = cpu.rdtsc()
    for i, f in enumerate(frames[:4]):
        vmm.hypercall(cpu, dom, "update_va_mapping", aspace,
                      0x10000 + i * 4096, pte(f))
    single = cpu.rdtsc() - t0
    t0 = cpu.rdtsc()
    vmm.hypercall(cpu, dom, "mmu_update",
                  [(aspace, 0x20000 + i * 4096, pte(f))
                   for i, f in enumerate(frames[4:])])
    batched = cpu.rdtsc() - t0
    assert batched < single


def test_pin_unpin_table(env):
    cpu, machine, vmm, dom, aspace = env
    frame = machine.memory.alloc(0)
    aspace.set_pte(0x1000, pte(frame))
    vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
    assert aspace.pgd_frame in vmm.page_info.pinned
    vmm.hypercall(cpu, dom, "mmuext_op", "unpin_table", aspace)
    assert aspace.pgd_frame not in vmm.page_info.pinned


def test_new_baseptr_requires_pin(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmuext_op", "new_baseptr", aspace)
    vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
    vmm.hypercall(cpu, dom, "mmuext_op", "new_baseptr", aspace)
    assert cpu.cr3 == aspace.pgd_frame


def test_tlb_ops(env):
    cpu, machine, vmm, dom, aspace = env
    cpu.tlb.fill(5, 50, True)
    vmm.hypercall(cpu, dom, "mmuext_op", "invlpg_local", None, 5 * 4096)
    assert 5 not in cpu.tlb
    cpu.tlb.fill(6, 60, True)
    vmm.hypercall(cpu, dom, "mmuext_op", "tlb_flush_local")
    assert len(cpu.tlb) == 0


def test_unknown_mmuext_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "mmuext_op", "frobnicate")


def test_set_trap_table_refreshes_active_idt(env):
    cpu, machine, vmm, dom, aspace = env
    got = []
    vmm.hypercall(cpu, dom, "set_trap_table",
                  {0x33: lambda c, v: got.append(v)})
    machine.intc.raise_vector(0, 0x33)
    machine.poll()
    assert got == [0x33]


def test_set_gdt_refuses_pl0(env):
    cpu, machine, vmm, dom, aspace = env
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "set_gdt", 0)


def test_set_gdt_applies_dpl(env):
    cpu, machine, vmm, dom, aspace = env
    from repro.hw.cpu import SegmentDescriptor
    cpu.gdt = {1: SegmentDescriptor("kernel_cs", 0)}
    vmm.hypercall(cpu, dom, "set_gdt", 1)
    assert cpu.gdt[1].dpl == 1


def test_vm_assist_toggles(env):
    cpu, machine, vmm, dom, aspace = env
    vmm.hypercall(cpu, dom, "vm_assist", "writable_pagetables", True)
    assert "writable_pagetables" in dom.assists
    vmm.hypercall(cpu, dom, "vm_assist", "writable_pagetables", False)
    assert "writable_pagetables" not in dom.assists


def test_event_channel_op_send_foreign_rejected(env):
    cpu, machine, vmm, dom, aspace = env
    other = vmm.create_domain("other")
    ch = vmm.hypercall(cpu, other, "event_channel_op", "alloc")
    with pytest.raises(HypercallError):
        vmm.hypercall(cpu, dom, "event_channel_op", "send", ch)


def test_grant_table_op_roundtrip(env):
    cpu, machine, vmm, dom, aspace = env
    other = vmm.create_domain("other")
    frame = machine.memory.alloc(0)
    grant = vmm.hypercall(cpu, dom, "grant_table_op", "grant",
                          frame, other.domain_id, False)
    mapped = vmm.hypercall(cpu, other, "grant_table_op", "map",
                           dom.domain_id, grant.ref)
    assert mapped.frame == frame
    vmm.hypercall(cpu, other, "grant_table_op", "unmap",
                  dom.domain_id, grant.ref)


def test_sched_op_yield_and_block(env):
    cpu, machine, vmm, dom, aspace = env
    nxt = vmm.hypercall(cpu, dom, "sched_op", "yield")
    assert nxt is not None
    vmm.hypercall(cpu, dom, "sched_op", "block")
    assert not dom.vcpus[0].runnable


def test_stack_switch_records_sp(env):
    cpu, machine, vmm, dom, aspace = env
    vmm.hypercall(cpu, dom, "stack_switch", 0xdeadbeef)
    assert dom.vcpus[0].kernel_sp == 0xdeadbeef


def test_region_bad_entry_raises_after_the_entries_before_it():
    """A region write through the virtual VO on a pinned root: 70 kernel
    frames into a leaf that does not exist yet, a frame of another owner
    at index 39.  The region travels as ceil(70 / 32) = 3 batched
    mmu_update hypercalls; the second raises at its eighth entry after
    applying the seven before it, and the third is never issued."""
    from repro import Machine, Mercury, small_config
    from repro.params import PT_ENTRIES, PT_SPAN

    mercury = Mercury(Machine(small_config()))
    kernel = mercury.create_kernel(image_pages=8)
    mercury.attach()
    cpu = mercury.machine.boot_cpu
    vmm = mercury.vmm
    cost = cpu.cost
    aspace = kernel.scheduler.current.aspace
    mem = mercury.machine.memory
    frames = [mem.alloc(kernel.owner_id) for _ in range(70)]
    frames[39] = mem.alloc(31)
    pgd_idx = 0x4000_0000 // PT_SPAN
    assert aspace.pgd.entries.get(pgd_idx) is None
    calls = vmm.hypercall_counts.get("mmu_update", 0)
    batches, batched = vmm.mmu_batches, vmm.mmu_batched_updates
    t0 = cpu.clock.cycles

    with pytest.raises(PageValidationError, match="owned by 31"):
        kernel.vo.apply_pte_region(cpu, aspace, [
            (pgd_idx, {i: pte(f) for i, f in enumerate(frames)})])

    leaf = aspace.pgd.entries[pgd_idx]
    assert list(leaf.entries) == list(range(39))
    assert [pte_frame(w) for w in leaf.entries.values()] == frames[:39]
    assert all(vmm.page_info.type_count[f] == 1 for f in frames[:39])
    assert vmm.page_info.type_count[frames[39]] == 0
    assert vmm.page_info.type[leaf.frame] == PageType.L1_PAGETABLE
    assert leaf.frame in vmm.page_info.pinned
    assert vmm.hypercall_counts["mmu_update"] - calls == 2
    assert (vmm.mmu_batches - batches, vmm.mmu_batched_updates - batched) \
        == (1, 32)
    elapsed = cpu.clock.cycles - t0
    assert elapsed == (cost.cyc_vo_indirect + 2 * cost.cyc_hypercall
                       + 40 * cost.cyc_mmu_update_batched
                       + cost.cyc_pte_validate * PT_ENTRIES)
    assert elapsed == 59_647


@pytest.mark.parametrize("entries", [1, 64])
def test_install_whose_leaf_memory_cannot_hold_counts_nothing(entries):
    """Memory runs out making the missing leaf of an install: the write
    raises OutOfMemory having taken no type or reference count for the PTE
    it never wrote, and the page-info columns still equal a recompute.
    One entry goes through the VO's single-PTE path; a region of 64 comes
    to mmu_update because the columnar pass cannot make its leaf."""
    from repro import Machine, Mercury, check_all, small_config
    from repro.errors import OutOfMemory
    from repro.params import PT_SPAN

    mercury = Mercury(Machine(small_config()))
    kernel = mercury.create_kernel(image_pages=8)
    mercury.attach()
    cpu = mercury.machine.boot_cpu
    aspace = kernel.scheduler.current.aspace
    mem = mercury.machine.memory
    frames = mem.alloc_many(kernel.owner_id, entries)
    mem.alloc_many(kernel.owner_id, mem.free_frames)
    vaddr = 0x4000_0000
    pgd_idx = vaddr // PT_SPAN
    assert pgd_idx not in aspace.pgd.entries

    with pytest.raises(OutOfMemory):
        if entries == 1:
            kernel.vo.set_pte(cpu, aspace, vaddr, pte(frames[0]))
        else:
            kernel.vo.apply_pte_region(cpu, aspace, [
                (pgd_idx, {i: pte(f) for i, f in enumerate(frames)})])

    page_info = mercury.vmm.page_info
    assert pgd_idx not in aspace.pgd.entries
    assert aspace.get_pte(vaddr) is None
    assert [(page_info.type_count[f], page_info.ref_count[f])
            for f in frames] == [(0, 0)] * entries
    assert check_all(mercury) == []
