"""Checkpoint/restart (§6.1): fidelity, rollback, disaster recovery."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode
from repro.errors import CheckpointError
from repro.hw.paging import pte_frame
from repro.params import PAGE_SIZE
from repro.scenarios.checkpoint import (checkpoint, restore, restore_as_guest,
                                        state_digest)
from repro.vmm.hypervisor import VmmState


def _workload(mercury):
    """Some distinctive state: processes, a file, mapped+written memory."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/state", True)
    k.syscall(cpu, "write", fd, "precious", 4096)
    k.syscall(cpu, "fsync", fd)
    pid = k.syscall(cpu, "fork")
    task = k.scheduler.current
    base = k.syscall(cpu, "mmap", 2 * PAGE_SIZE, True)
    frame = k.vmem.access(cpu, task, base, write=True)
    mercury.machine.memory.write(frame, "in-memory-marker")
    return fd, pid, base, frame


def test_checkpoint_attaches_and_detaches(mercury):
    _workload(mercury)
    assert mercury.mode is Mode.NATIVE
    img = checkpoint(mercury)
    assert mercury.mode is Mode.NATIVE  # §6.1: VMM detached afterwards
    assert img.num_frames > 0
    assert img.kernel_name == mercury.kernel.name


def test_checkpoint_from_virtual_mode_stays_virtual(mercury):
    _workload(mercury)
    mercury.attach()
    checkpoint(mercury)
    assert mercury.mode is Mode.PARTIAL_VIRTUAL


def test_rollback_restores_fs_and_processes(mercury):
    fd, pid, base, frame = _workload(mercury)
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    img = checkpoint(mercury)
    # catastrophic damage
    k.fs.inodes.clear()
    k.procs.tasks.clear()
    restore(img, mercury)
    assert k.fs.exists("/state")
    assert pid in k.procs.tasks
    assert k.scheduler.current is not None
    k.syscall(cpu, "lseek", fd, 0)
    assert k.syscall(cpu, "read", fd, 4096) == ["precious"]


def test_rollback_restores_memory_contents(mercury):
    fd, pid, base, frame = _workload(mercury)
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    img = checkpoint(mercury)
    task = k.scheduler.current
    new_frame = k.vmem.access(cpu, task, base, write=True)
    k.machine.memory.write(new_frame, "corrupted")
    restore(img, mercury)
    task = k.scheduler.current
    restored_frame = k.vmem.access(cpu, task, base, write=False)
    assert k.machine.memory.read(restored_frame) == "in-memory-marker"


def test_rollback_discards_post_checkpoint_state(mercury):
    """Checkpoint, touch a file, fork, revert: the file and the new
    process are gone, the pre-checkpoint process still runs, and the
    state digest equals the checkpoint's."""
    _, pid, _, _ = _workload(mercury)
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    img = checkpoint(mercury)
    at_checkpoint = state_digest(mercury)
    k.syscall(cpu, "open", "/after", True)
    late_pid = k.syscall(cpu, "fork")
    assert state_digest(mercury) != at_checkpoint
    restore(img, mercury)
    assert not k.fs.exists("/after")
    assert pid in k.procs.tasks
    assert late_pid not in k.procs.tasks
    assert state_digest(mercury) == at_checkpoint


def test_restore_onto_fresh_machine(mercury):
    """Hardware failure: the snapshot moves to a healthy machine."""
    _workload(mercury)
    img = checkpoint(mercury)
    m2 = Machine(small_config())
    mc2 = Mercury(m2)
    restored = restore(img, mc2, fresh_kernel=True)
    assert restored.machine is m2
    assert state_digest(mc2) == state_digest(mercury)
    assert restored.fs.exists("/state")
    assert len(restored.procs.tasks) == len(mercury.kernel.procs.tasks)
    # the restored kernel is alive: run new work on it
    cpu2 = m2.boot_cpu
    pid = restored.syscall(cpu2, "fork")
    restored.run_and_reap(cpu2, restored.procs.get(pid))


def test_restore_as_guest_on_partial_virtual_host(mercury):
    _workload(mercury)
    img = checkpoint(mercury)
    host_machine = Machine(small_config(mem_kb=32768))
    host = Mercury(host_machine)
    host.create_kernel(name="host-linux", image_pages=8)
    host.attach()
    guest = restore_as_guest(img, host)
    assert guest in host.guests
    assert guest.fs.exists("/state")
    # the guest does I/O through the host's split drivers
    cpu = host_machine.boot_cpu
    fd = guest.syscall(cpu, "open", "/state", False)
    guest.syscall(cpu, "write", fd, "updated", 10)
    guest.syscall(cpu, "fsync", fd)


def test_restore_as_guest_requires_attached_host(mercury):
    img = checkpoint(mercury)
    host = Mercury(Machine(small_config()))
    host.create_kernel(name="h")
    with pytest.raises(CheckpointError):
        restore_as_guest(img, host)


def test_checkpoint_charges_per_frame(mercury):
    cpu = mercury.machine.boot_cpu
    t0 = cpu.rdtsc()
    img = checkpoint(mercury, cpu)
    from repro.scenarios.checkpoint import CYC_SNAPSHOT_PER_FRAME
    assert cpu.rdtsc() - t0 >= img.num_frames * CYC_SNAPSHOT_PER_FRAME


def test_frame_accounting_after_rollback(mercury):
    """Restore must not leak or double-book frames."""
    _workload(mercury)
    img = checkpoint(mercury)
    free_before = mercury.machine.memory.free_frames
    restore(img, mercury)
    assert mercury.machine.memory.free_frames == free_before


# ---------------------------------------------------------------------------
# the state digest covers every piece of switch and hosting state a
# rolled-back switch or a microreboot could corrupt: each, changed alone,
# changes the digest
# ---------------------------------------------------------------------------

def _mapped_frame(kernel):
    aspace = kernel.aspaces[0]
    return pte_frame(aspace.get_pte(next(iter(aspace.mapped_vaddrs()))))


def _pop_backend(mercury):
    record = next(r for r in mercury._wiring.values()
                  if r.kernel is mercury.guests[0])
    record.pairs.pop()


SWITCH_AND_HOSTING_STATE = {
    # piece of state: (change to it, digest entry that must move)
    "mode": (lambda m: setattr(m, "mode", Mode.FULL_VIRTUAL), "mode"),
    "vmm_active": (lambda m: setattr(m.vmm, "state", VmmState.WARM),
                   "vmm_active"),
    "vo": (lambda m: setattr(m.kernel, "vo", m.native_vo), "vo"),
    "vo_refcount": (lambda m: setattr(m.kernel.vo, "refcount",
                                      m.kernel.vo.refcount + 1),
                    "vo_refcount"),
    "segment_dpl": (lambda m: setattr(m.kernel.vo.data,
                                      "kernel_segment_dpl", 2),
                    "segment_dpl"),
    "gdt_dpls.boot_cpu": (lambda m: setattr(m.machine.cpus[0].gdt[1],
                                            "dpl", 3), "gdt_dpls"),
    "gdt_dpls.secondary_cpu": (lambda m: setattr(m.machine.cpus[-1].gdt[1],
                                                 "dpl", 3), "gdt_dpls"),
    "idt_owners": (lambda m: setattr(m.machine.cpus[-1], "idt_base", None),
                   "idt_owners"),
    "pinned": (lambda m: m.vmm.page_info.pin_frame(_mapped_frame(m.kernel)),
               "pinned"),
    "registered_aspaces": (lambda m: m.domain.unregister_aspace(
        m.domain.aspaces[0]), "aspaces"),
    "interrupts": (lambda m: setattr(m.machine.cpus[-1],
                                     "interrupts_enabled", False),
                   "interrupts"),
    "mmu_dirty": (lambda m: m.mmu_log.dirty.add(
        m.kernel.aspaces[0].pgd_frame), "mmu_dirty"),
    "mmu_snapshot_roots.contributions": (
        lambda m: m.mmu_log.contributions.setdefault(
            m.kernel.aspaces[0].pgd_frame, None), "mmu_contributions"),
    "mmu_snapshot_roots.dead": (
        lambda m: m.mmu_log.dead.setdefault(1, None), "mmu_dead"),
    "guest_vo_refcounts": (lambda m: setattr(m.guests[0].vo, "refcount",
                                             m.guests[0].vo.refcount + 1),
                           "guests"),
    "guest_aspaces": (lambda m: m.guests[0].vo.domain.unregister_aspace(
        m.guests[0].vo.domain.aspaces[0]), "guests"),
    "guest_names": (lambda m: setattr(m.guests[0], "name", "renamed"),
                    "guests"),
    "backends": (_pop_backend, "backends"),
}


@pytest.mark.parametrize("field", sorted(SWITCH_AND_HOSTING_STATE))
def test_state_digest_sees_every_switch_and_hosting_field(field):
    mercury = Mercury(Machine(small_config(num_cpus=2)))
    mercury.create_kernel(image_pages=16)
    mercury.attach()
    mercury.host_guest(image_pages=8)
    change, entry = SWITCH_AND_HOSTING_STATE[field]
    before = state_digest(mercury)
    change(mercury)
    after = state_digest(mercury)
    assert after["stack"][entry] != before["stack"][entry]
