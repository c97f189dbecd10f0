"""Hypervisor lifecycle, trap emulation, domains, hypercall dispatch."""

import pytest

from repro.errors import DomainError, HypercallError, VMMError
from repro.hw.cpu import PrivilegeLevel
from repro.hw.paging import AddressSpace
from repro.vmm.hypervisor import Hypervisor, VMM_OWNER, VmmState


def test_lifecycle_states(machine):
    vmm = Hypervisor(machine)
    assert vmm.state == VmmState.COLD
    vmm.warm_up()
    assert vmm.state == VmmState.WARM
    vmm.activate()
    assert vmm.state == VmmState.ACTIVE
    vmm.deactivate()
    assert vmm.state == VmmState.WARM


def test_illegal_transitions(machine):
    vmm = Hypervisor(machine)
    with pytest.raises(VMMError):
        vmm.activate()       # not warmed
    with pytest.raises(VMMError):
        vmm.deactivate()
    vmm.warm_up()
    with pytest.raises(VMMError):
        vmm.warm_up()        # double warm-up


def test_warm_up_reserves_frames(machine):
    free = machine.memory.free_frames
    vmm = Hypervisor(machine)
    vmm.warm_up()
    reserved = free - machine.memory.free_frames
    assert reserved > 0
    owned = machine.memory.frames_owned_by(VMM_OWNER)
    assert len(owned) == reserved


def test_activation_installs_trap_handlers(machine):
    vmm = Hypervisor(machine)
    vmm.warm_up()
    vmm.activate()
    assert all(c.trap_handler is not None for c in machine.cpus)
    vmm.deactivate()
    assert all(c.trap_handler is None for c in machine.cpus)


def test_trap_emulation_cli_sti_virtual_if(machine):
    vmm = Hypervisor(machine)
    vmm.warm_up()
    dom = vmm.create_domain("d", domain_id=0)
    vmm.activate()
    cpu = machine.boot_cpu
    cpu.set_privilege(PrivilegeLevel.PL1)
    cpu.privileged_op("cli")
    assert dom.vcpus[0].saved_if is False     # virtual IF cleared
    assert cpu.interrupts_enabled             # hardware IF untouched
    cpu.privileged_op("sti")
    assert dom.vcpus[0].saved_if is True


def test_trap_emulation_rejects_unknown(machine):
    vmm = Hypervisor(machine)
    vmm.warm_up()
    vmm.create_domain("d", domain_id=0)
    vmm.activate()
    cpu = machine.boot_cpu
    cpu.set_privilege(PrivilegeLevel.PL1)
    with pytest.raises(HypercallError):
        cpu.privileged_op("outb", 0x80, 1)


def test_guest_cr3_load_requires_validated_frame(machine):
    vmm = Hypervisor(machine)
    vmm.warm_up()
    dom = vmm.create_domain("d", domain_id=0)
    vmm.activate()
    aspace = AddressSpace(machine.memory, owner=0)
    cpu = machine.boot_cpu
    cpu.set_privilege(PrivilegeLevel.PL1)
    with pytest.raises(HypercallError):
        cpu.privileged_op("write_cr3", aspace.pgd_frame)  # unpinned
    cpu.set_privilege(PrivilegeLevel.PL0)
    dom.register_aspace(aspace)
    vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
    cpu.set_privilege(PrivilegeLevel.PL1)
    cpu.privileged_op("write_cr3", aspace.pgd_frame)
    assert cpu.cr3 == aspace.pgd_frame


def test_domain_ids_forced_and_autoincrement(warm_vmm):
    d5 = warm_vmm.create_domain("five", domain_id=5)
    d6 = warm_vmm.create_domain("next")
    assert (d5.domain_id, d6.domain_id) == (5, 6)
    with pytest.raises(DomainError):
        warm_vmm.create_domain("dup", domain_id=5)


def test_destroy_domain(warm_vmm):
    d = warm_vmm.create_domain("d")
    warm_vmm.destroy_domain(d)
    assert d.domain_id not in warm_vmm.domains
    assert not d.alive
    with pytest.raises(DomainError):
        warm_vmm.destroy_domain(d)


def test_hypercall_requires_active(warm_vmm, machine):
    d = warm_vmm.create_domain("d", domain_id=0)
    with pytest.raises(HypercallError):
        warm_vmm.hypercall(machine.boot_cpu, d, "console_io", "hi")


def test_unknown_hypercall(warm_vmm, machine):
    d = warm_vmm.create_domain("d", domain_id=0)
    warm_vmm.activate()
    with pytest.raises(HypercallError):
        warm_vmm.hypercall(machine.boot_cpu, d, "nonsense")


def test_hypercall_charges_entry_cost(warm_vmm, machine):
    d = warm_vmm.create_domain("d", domain_id=0)
    warm_vmm.activate()
    cpu = machine.boot_cpu
    t0 = cpu.rdtsc()
    warm_vmm.hypercall(cpu, d, "console_io", "hello")
    assert cpu.rdtsc() - t0 >= cpu.cost.cyc_hypercall
    assert warm_vmm.hypercalls_served == 1
    assert warm_vmm.console_log == [(0, "hello")]


def test_install_idt_forwards_to_guest_handlers(warm_vmm, machine):
    got = []
    d = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    d.trap_table = {0x21: lambda cpu, vec: got.append(vec)}
    warm_vmm.activate()
    warm_vmm.install_idt_for(d)
    machine.intc.raise_vector(0, 0x21)
    machine.poll()
    assert got == [0x21]


def test_extra_gates_survive_idt_rebuild(warm_vmm, machine):
    got = []
    warm_vmm.extra_gates[0xF1] = lambda cpu, vec: got.append("detach")
    d = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    warm_vmm.install_idt_for(d)   # rebuild
    machine.intc.raise_vector(0, 0xF1)
    machine.poll()
    assert got == ["detach"]


def test_world_switch_restores_cr3(warm_vmm, machine):
    d = warm_vmm.create_domain("d", num_vcpus=1, domain_id=0)
    warm_vmm.activate()
    cpu = machine.boot_cpu
    aspace = AddressSpace(machine.memory, owner=0)
    d.register_aspace(aspace)
    warm_vmm.hypercall(cpu, d, "mmuext_op", "pin_table", aspace)
    vcpu = d.vcpus[0]
    vcpu.saved_cr3 = aspace.pgd_frame
    warm_vmm.world_switch(cpu, None, vcpu)
    assert cpu.cr3 == aspace.pgd_frame
