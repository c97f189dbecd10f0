"""Shadow paging mode (ablation A4, §3.2.2's road not taken)."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode, PagingMode
from repro.errors import VMMError
from repro.hw.paging import AddressSpace, pte, pte_frame
from repro.params import PAGE_SIZE
from repro.vmm.shadow import SHADOW_OWNER, ShadowPager


@pytest.fixture
def shadow_mercury(machine):
    mc = Mercury(machine, paging=PagingMode.SHADOW)
    mc.create_kernel(name="shadow-linux", image_pages=16)
    return mc


# ---------------------------------------------------------------------------
# the pager in isolation
# ---------------------------------------------------------------------------

def test_build_translates_every_mapping(machine, cpu):
    mem = machine.memory
    guest = AddressSpace(mem, owner=0)
    frames = [mem.alloc(0) for _ in range(4)]
    for i, f in enumerate(frames):
        guest.set_pte(0x1000 + i * PAGE_SIZE, pte(f, writable=(i % 2 == 0)))
    pager = ShadowPager(mem, domain_id=0)
    shadow = pager.build(cpu, guest)
    assert pager.verify_coherent(guest)
    assert shadow.pgd_frame != guest.pgd_frame
    assert mem.owner_of(shadow.pgd_frame) == SHADOW_OWNER


def test_sync_pte_propagates_changes(machine, cpu):
    mem = machine.memory
    guest = AddressSpace(mem, owner=0)
    f1, f2 = mem.alloc(0), mem.alloc(0)
    guest.set_pte(0x1000, pte(f1))
    pager = ShadowPager(mem, domain_id=0)
    pager.build(cpu, guest)
    guest.set_pte(0x1000, pte(f2, writable=False))  # guest writes
    pager.sync_pte(cpu, guest, 0x1000)                    # trap emulation
    assert pager.verify_coherent(guest)
    shadow = pager.shadow_of(guest)
    assert pte_frame(shadow.get_pte(0x1000)) == f2
    assert pager.syncs == 1


def test_sync_clears_removed_entries(machine, cpu):
    mem = machine.memory
    guest = AddressSpace(mem, owner=0)
    guest.set_pte(0x1000, pte(mem.alloc(0)))
    pager = ShadowPager(mem, domain_id=0)
    pager.build(cpu, guest)
    guest.clear_pte(0x1000)
    pager.sync_pte(cpu, guest, 0x1000)
    assert pager.shadow_of(guest).get_pte(0x1000) is None


def test_drop_all_frees_shadow_frames(machine, cpu):
    mem = machine.memory
    guest = AddressSpace(mem, owner=0)
    guest.set_pte(0x1000, pte(mem.alloc(0)))
    pager = ShadowPager(mem, domain_id=0)
    free_before = mem.free_frames
    pager.build(cpu, guest)
    assert mem.free_frames < free_before   # the memory tax
    pager.drop_all(cpu)
    assert mem.free_frames == free_before
    with pytest.raises(VMMError):
        pager.shadow_of(guest)


# ---------------------------------------------------------------------------
# full shadow-mode Mercury
# ---------------------------------------------------------------------------

def test_shadow_attach_runs_on_shadow_root(shadow_mercury):
    mc = shadow_mercury
    cpu = mc.machine.boot_cpu
    guest_pgd = mc.kernel.scheduler.current.aspace.pgd_frame
    mc.attach()
    assert mc.mode is Mode.PARTIAL_VIRTUAL
    assert cpu.cr3 != guest_pgd              # hardware runs the shadow
    shadow = mc.pager.shadow_of(mc.kernel.scheduler.current.aspace)
    assert cpu.cr3 == shadow.pgd_frame
    mc.detach()
    assert cpu.cr3 == guest_pgd              # back on the guest's own root


def test_shadow_mode_workload_and_coherence(shadow_mercury):
    mc = shadow_mercury
    k = mc.kernel
    cpu = mc.machine.boot_cpu
    mc.attach()
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    base = k.syscall(cpu, "mmap", 4 * PAGE_SIZE, True)
    # every live aspace's shadow tracks its guest exactly
    for aspace in k.aspaces:
        assert mc.pager.verify_coherent(aspace)
    k.syscall(cpu, "munmap", base, 4 * PAGE_SIZE)
    mc.detach()


def test_shadow_detach_releases_memory_tax(shadow_mercury):
    mc = shadow_mercury
    mc.attach()
    assert mc.pager.shadow_frames_in_use() > 0
    mc.detach()
    assert mc.pager.shadow_frames_in_use() == 0


def test_shadow_roundtrip_preserves_state(shadow_mercury):
    mc = shadow_mercury
    k = mc.kernel
    cpu = mc.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/s", True)
    k.syscall(cpu, "write", fd, "shadowed", 10)
    mc.attach()
    mc.detach()
    assert k.fs.exists("/s")
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))


def test_shadow_never_pins_guest_tables(shadow_mercury):
    """Shadow mode's defining property: guest tables stay out of the
    MMU, so no pinning/validation ever happens."""
    mc = shadow_mercury
    mc.attach()
    assert mc.vmm.page_info.pinned == set()
    mc.detach()


def test_shadow_runtime_costs_more_per_pte_than_direct():
    """The runtime half of the §3.2.2 trade-off: each PT update traps and
    re-translates, costing more than the direct-mode hypercall."""
    def fork_cost(paging):
        m = Machine(small_config(mem_kb=65536))
        mc = Mercury(m, paging=paging)
        k = mc.create_kernel(image_pages=128)
        mc.attach()
        cpu = m.boot_cpu
        t0 = cpu.rdtsc()
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
        return cpu.rdtsc() - t0

    assert fork_cost(PagingMode.SHADOW) > fork_cost(PagingMode.DIRECT)
