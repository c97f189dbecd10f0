"""Virtualization objects: refcounting, indirection cost, both
implementations' hardware effects."""

import pytest

from repro.core.native_vo import NativeVO
from repro.core.virtual_vo import VirtualVO
from repro.errors import ConsistencyViolation, HypercallError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.paging import PTE_W, AddressSpace, pte, pte_frame, vpn_split


# ---------------------------------------------------------------------------
# refcounting (§5.1.1)
# ---------------------------------------------------------------------------

def test_sensitive_ops_are_refcounted(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    assert not vo.busy()
    vo.irq_disable(cpu)       # one sensitive op: enters and exits
    assert not vo.busy()
    assert vo.entries == 1
    vo.irq_enable(cpu)
    assert vo.entries == 2


def test_refcount_nonzero_during_execution(machine):
    """While inside a sensitive op the VO must report busy — the condition
    that blocks a mode switch."""
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    seen = []
    orig = vo.machine.intc.bind_line

    def spy(line, cpu_id, vector):
        seen.append(vo.refcount)
        return orig(line, cpu_id, vector)

    vo.machine.intc.bind_line = spy
    vo.bind_irq(cpu, "timer", 0, 0x20)
    assert seen == [1]  # busy while the sensitive body ran
    assert not vo.busy()


def test_refcount_underflow_detected(machine):
    """A sensitive body that zeroes the count makes the wrapper's release
    underflow."""
    vo = NativeVO(machine)
    orig = vo.machine.intc.bind_line

    def zeroing(line, cpu_id, vector):
        vo.refcount = 0
        return orig(line, cpu_id, vector)

    vo.machine.intc.bind_line = zeroing
    with pytest.raises(ConsistencyViolation, match="underflow"):
        vo.bind_irq(machine.boot_cpu, "timer", 0, 0x20)


def test_indirection_cost_charged(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    t0 = cpu.rdtsc()
    vo.irq_disable(cpu)
    assert cpu.rdtsc() - t0 >= cpu.cost.cyc_vo_indirect


def test_nested_sensitive_ops_accumulate(machine):
    """A sensitive call made from inside another sees both entries."""
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    seen = []
    orig = vo.machine.intc.bind_line

    def nested(line, cpu_id, vector):
        orig(line, cpu_id, vector)
        seen.append(vo.refcount)
        vo.irq_disable(cpu)
        seen.append(vo.refcount)

    cli = cpu.cli

    def spy_cli():
        seen.append(vo.refcount)
        cli()

    vo.machine.intc.bind_line = nested
    cpu.cli = spy_cli
    vo.bind_irq(cpu, "timer", 0, 0x20)
    assert seen == [1, 2, 1]  # outer, inner body, outer after the inner
    assert vo.entries == 2
    assert not vo.busy()


# ---------------------------------------------------------------------------
# NativeVO hardware effects
# ---------------------------------------------------------------------------

def test_native_write_cr3_hits_hardware(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    aspace = AddressSpace(machine.memory, owner=0)
    vo.write_cr3(cpu, aspace.pgd_frame)
    assert cpu.cr3 == aspace.pgd_frame


def test_native_kernel_entry_exit_privilege(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    vo.kernel_entry(cpu)
    assert cpu.pl == PrivilegeLevel.PL0
    vo.kernel_exit(cpu)
    assert cpu.pl == PrivilegeLevel.PL3


def test_native_set_pte_and_clear(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    aspace = AddressSpace(machine.memory, owner=0)
    frame = machine.memory.alloc(0)
    vo.set_pte(cpu, aspace, 0x3000, pte(frame))
    assert pte_frame(aspace.get_pte(0x3000)) == frame
    vo.clear_pte(cpu, aspace, 0x3000)
    assert aspace.get_pte(0x3000) is None


def test_native_update_pte_flags_invalidates_tlb(machine):
    vo = NativeVO(machine)
    cpu = machine.boot_cpu
    aspace = AddressSpace(machine.memory, owner=0)
    frame = machine.memory.alloc(0)
    vo.set_pte(cpu, aspace, 0x3000, pte(frame))
    cpu.tlb.fill(0x3, frame, True)
    pgd_idx, idx = vpn_split(0x3000)
    vo.update_pte_flags(cpu, aspace, pgd_idx, [idx], writable=False)
    assert 0x3 not in cpu.tlb
    assert not aspace.get_pte(0x3000) & PTE_W


# ---------------------------------------------------------------------------
# VirtualVO behaviour
# ---------------------------------------------------------------------------

@pytest.fixture
def virt(machine, warm_vmm):
    dom = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    return machine.boot_cpu, machine, warm_vmm, dom, \
        VirtualVO(machine, warm_vmm, dom)


def test_virtual_unpinned_writes_are_direct(virt):
    """Xen lifecycle fidelity: page tables under construction are plain
    memory; no hypercalls until the pin."""
    cpu, machine, vmm, dom, vo = virt
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    frame = machine.memory.alloc(0)
    served0 = vmm.hypercalls_served
    vo.set_pte(cpu, aspace, 0x3000, pte(frame))
    assert vmm.hypercalls_served == served0  # direct write


def test_virtual_pinned_writes_use_hypercalls(virt):
    cpu, machine, vmm, dom, vo = virt
    aspace = AddressSpace(machine.memory, owner=0)
    frame = machine.memory.alloc(0)
    vo.set_pte(cpu, aspace, 0x3000, pte(frame))
    vo.new_address_space(cpu, aspace)     # registers + pins
    served0 = vmm.hypercalls_served
    f2 = machine.memory.alloc(0)
    vo.set_pte(cpu, aspace, 0x4000, pte(f2))
    assert vmm.hypercalls_served == served0 + 1


def test_virtual_kernel_runs_deprivileged(virt):
    cpu, machine, vmm, dom, vo = virt
    vo.kernel_entry(cpu)
    assert cpu.pl == PrivilegeLevel.PL1   # not PL0!
    vo.kernel_exit(cpu)
    assert cpu.pl == PrivilegeLevel.PL3


def test_virtual_syscall_costs_more_than_native(machine, warm_vmm):
    dom = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    cpu = machine.boot_cpu
    native, virtual = NativeVO(machine), VirtualVO(machine, warm_vmm, dom)
    t0 = cpu.rdtsc()
    native.kernel_entry(cpu); native.kernel_exit(cpu)
    native_cost = cpu.rdtsc() - t0
    t0 = cpu.rdtsc()
    virtual.kernel_entry(cpu); virtual.kernel_exit(cpu)
    virtual_cost = cpu.rdtsc() - t0
    assert virtual_cost > native_cost


def test_virtual_write_cr3_requires_registered_aspace(virt):
    cpu, machine, vmm, dom, vo = virt
    rogue = AddressSpace(machine.memory, owner=0)
    with pytest.raises(HypercallError):
        vo.write_cr3(cpu, rogue.pgd_frame)


def test_virtual_write_cr3_pins_then_loads(virt):
    cpu, machine, vmm, dom, vo = virt
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    vo.write_cr3(cpu, aspace.pgd_frame)
    assert cpu.cr3 == aspace.pgd_frame
    assert aspace.pgd_frame in vmm.page_info.pinned


def test_virtual_irq_flags_are_virtual(virt):
    cpu, machine, vmm, dom, vo = virt
    vo.irq_disable(cpu)
    assert dom.vcpus[0].saved_if is False
    assert cpu.interrupts_enabled       # hardware flag untouched
    vo.irq_enable(cpu)
    assert dom.vcpus[0].saved_if is True


def test_non_driver_domain_denied_direct_io(machine, warm_vmm):
    dom = warm_vmm.create_domain("domU", domain_id=1)  # not a driver domain
    warm_vmm.activate()
    vo = VirtualVO(machine, warm_vmm, dom)
    cpu = machine.boot_cpu
    from repro.hw.devices import BlockRequest, Packet
    with pytest.raises(HypercallError):
        vo.disk_submit(cpu, BlockRequest(op="read", block=0))
    with pytest.raises(HypercallError):
        vo.net_transmit(cpu, Packet("a", "b", "udp", 10))
    with pytest.raises(HypercallError):
        vo.bind_irq(cpu, "eth0", 0, 0x22)


def test_virtual_destroy_unpins(virt):
    cpu, machine, vmm, dom, vo = virt
    aspace = AddressSpace(machine.memory, owner=0)
    vo.new_address_space(cpu, aspace)
    pgd = aspace.pgd_frame
    vo.destroy_address_space(cpu, aspace)
    assert pgd not in vmm.page_info.pinned
    assert aspace not in dom.aspaces


def test_apply_pte_region_batches(virt):
    cpu, machine, vmm, dom, vo = virt
    aspace = AddressSpace(machine.memory, owner=0)
    vo.new_address_space(cpu, aspace)
    frames = [machine.memory.alloc(0) for _ in range(40)]
    served0 = vmm.hypercalls_served
    vo.apply_pte_region(cpu, aspace,
                        [(0, {0x10 + i: pte(f)
                              for i, f in enumerate(frames)})])
    batches = vmm.hypercalls_served - served0
    assert 1 <= batches <= (40 // cpu.cost.mmu_batch_size) + 1
    assert aspace.mapped_count() == 40
