"""Spot-checks of specific sentences in the paper's design sections."""

import pytest

from repro import Machine, Mercury, PagingMode, small_config
from repro.core.mercury import Mode


def test_vo_execution_is_nonblocking(mercury):
    """§5.1.1: 'almost all execution in the virtualization object is short
    (because it is non-blocking) or synchronous' — device waits happen
    OUTSIDE the VO, so the refcount cannot wedge a switch behind a slow
    disk.  We assert the VO is quiescent while the kernel waits for I/O."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    observed = []
    original_wait = k.wait_for

    def spying_wait(cpu_, predicate, **kw):
        observed.append(k.vo.refcount)
        return original_wait(cpu_, predicate, **kw)

    k.wait_for = spying_wait
    fd = k.syscall(cpu, "open", "/io", True)
    k.syscall(cpu, "write", fd, "x", 4096)
    k.syscall(cpu, "fsync", fd)  # real device wait happens in here
    k.wait_for = original_wait
    assert observed, "fsync never waited for the device"
    assert all(rc == 0 for rc in observed), \
        "the VO was held across a blocking device wait"


def test_precached_vmm_memory_pressure_is_small(mercury):
    """§4.1: 'a VMM occupies only a reasonably small chunk of memory' —
    the resident VMM must reserve well under 15% of the machine."""
    total = mercury.machine.memory.num_frames
    assert mercury.precache_info.reserved_frames / total <= 0.15


def test_interception_cannot_be_bypassed(mercury):
    """§3.1: 'the interception of privileged instructions is mandatory and
    cannot be bypassed' — in virtual mode a privileged instruction from
    the de-privileged kernel always lands in the VMM."""
    from repro.hw.cpu import PrivilegeLevel
    mercury.attach()
    cpu = mercury.machine.boot_cpu
    traps0 = mercury.vmm.traps_emulated
    cpu.set_privilege(PrivilegeLevel.PL1)
    cpu.privileged_op("cli")
    cpu.set_privilege(PrivilegeLevel.PL3)
    assert mercury.vmm.traps_emulated == traps0 + 1
    mercury.detach()


def test_mode_switch_is_reversible_arbitrarily_often():
    """§1: 'the virtualizing process is reversible' — 20 round trips with
    zero cumulative state drift in switch cost.  The paper's full-recompute
    attach costs the same every time; with the incremental recompute the
    first attach pays the full validation and every later one settles on a
    cheaper, equally drift-free steady state."""
    machine = Machine(small_config())
    mercury = Mercury(machine, incremental_attach=False)
    k = mercury.create_kernel(image_pages=16)
    costs = []
    for _ in range(20):
        costs.append(mercury.attach().cycles)
        mercury.detach()
    assert len(set(costs)) == 1, "switch cost drifted across round trips"


def test_incremental_attach_settles_with_no_drift():
    """The incremental recompute must be just as reversible: after the
    first (full) attach, every round trip costs exactly the same, and no
    more than the full recompute would."""
    machine = Machine(small_config())
    mercury = Mercury(machine)
    k = mercury.create_kernel(image_pages=16)
    costs = []
    for _ in range(20):
        costs.append(mercury.attach().cycles)
        mercury.detach()
    assert len(set(costs[1:])) == 1, "steady-state switch cost drifted"
    assert costs[1] < costs[0], \
        "incremental attach should beat the first full recompute"
    assert mercury.mmu_log.full_recomputes == 1
    assert mercury.mmu_log.roots_revalidated == 0


def test_checkpoint_in_shadow_virtual_mode():
    """Checkpoint/restore composes with the shadow-paging alternative."""
    from repro.scenarios.checkpoint import checkpoint, restore
    machine = Machine(small_config(mem_kb=32768))
    mercury = Mercury(machine, paging=PagingMode.SHADOW)
    k = mercury.create_kernel(image_pages=8)
    cpu = machine.boot_cpu
    fd = k.syscall(cpu, "open", "/shadow-ckpt", True)
    k.syscall(cpu, "write", fd, "v", 4096)
    mercury.attach()
    image = checkpoint(mercury)
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    k.fs.inodes.clear()
    restore(image, mercury)
    assert k.fs.exists("/shadow-ckpt")
    # shadows are coherent for every restored aspace
    for aspace in k.aspaces:
        assert mercury.pager.verify_coherent(aspace)
    mercury.detach()


def test_only_performance_critical_code_lives_in_the_vo(mercury):
    """§5.3: 'non-performance-critical sensitive code is not included in a
    VO and relies instead on trap-and-emulation' — the VO's method surface
    is the §5.3 groups, nothing kitchen-sink."""
    from repro.core.vobject import VirtualizationObject
    sensitive_methods = {
        name for name in dir(VirtualizationObject)
        if not name.startswith("_") and callable(
            getattr(VirtualizationObject, name))
        and name != "busy"
    }
    # CPU ops, entry/exit paths, MMU ops (including the lazy-MMU batching
    # region markers — PTE-update paths, squarely performance-critical),
    # I/O ops — and nothing else
    assert sensitive_methods == {
        "write_cr3", "load_idt", "set_segment_dpl", "irq_disable",
        "irq_enable", "stack_switch", "kernel_entry", "kernel_exit",
        "fault_entry", "set_pte", "clear_pte", "update_pte_flags",
        "apply_pte_region", "lazy_mmu_begin", "lazy_mmu_end",
        "lazy_mmu_flush", "lazy_mmu_drain", "lazy_mmu_pending",
        "new_address_space", "destroy_address_space",
        "flush_tlb", "invlpg", "bind_irq", "disk_submit", "net_transmit",
    }
