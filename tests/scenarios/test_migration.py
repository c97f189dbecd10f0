"""Live migration: pre-copy convergence, downtime, fidelity."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode
from repro.errors import MigrationError
from repro.params import PAGE_SIZE
from repro.scenarios.migration import LiveMigration


@pytest.fixture
def pair():
    """Source Mercury (with workload state) and an attached target."""
    src_machine = Machine(small_config())
    src = Mercury(src_machine)
    k = src.create_kernel(name="src-linux", image_pages=8)
    cpu = src_machine.boot_cpu
    fd = k.syscall(cpu, "open", "/carry", True)
    k.syscall(cpu, "write", fd, "cargo", 4096)
    k.syscall(cpu, "fsync", fd)

    dst_machine = Machine(small_config(mem_kb=32768), clock=src_machine.clock)
    dst = Mercury(dst_machine)
    dst.create_kernel(name="dst-linux", image_pages=8)
    src_machine.link_to(dst_machine)
    dst.attach()
    return src, dst


def test_requires_full_virtual_source(pair):
    src, dst = pair
    with pytest.raises(MigrationError):
        LiveMigration(src, dst).run()


def test_requires_attached_target(pair):
    src, dst = pair
    src.full_virtualize()
    dst_native = Mercury(Machine(small_config(), clock=src.machine.clock))
    dst_native.create_kernel(name="n")
    with pytest.raises(MigrationError):
        LiveMigration(src, dst_native).run()


def test_refuses_a_kernel_the_source_does_not_host(pair):
    src, dst = pair
    with pytest.raises(MigrationError, match="not hosted"):
        LiveMigration(dst, src, kernel=src.kernel).run()


def test_requires_shared_clock(pair):
    src, dst = pair
    other = Mercury(Machine(small_config()))
    with pytest.raises(MigrationError):
        LiveMigration(src, other)


def test_migration_lands_as_hosted_guest(pair):
    src, dst = pair
    src.full_virtualize()
    restored, report = LiveMigration(src, dst).run()
    assert restored in dst.guests
    assert restored.fs.exists("/carry")
    assert report.total_pages_sent > 0


def test_quiet_guest_converges_in_one_round(pair):
    src, dst = pair
    src.full_virtualize()
    _, report = LiveMigration(src, dst).run(mutator=lambda r: None)
    assert len(report.rounds) == 1  # nothing re-dirtied


def test_dirtying_mutator_forces_more_rounds(pair):
    src, dst = pair
    k = src.kernel
    cpu = src.machine.boot_cpu
    task = k.scheduler.current
    base = k.syscall(cpu, "mmap", 4 * PAGE_SIZE, True)
    frames = [k.vmem.access(cpu, task, base + i * PAGE_SIZE, write=True)
              for i in range(4)]
    src.full_virtualize()

    def mutator(round_no):
        for f in frames:
            src.machine.memory.write(f, f"dirty-{round_no}")

    _, report = LiveMigration(src, dst, max_rounds=4,
                              dirty_threshold=2).run(mutator=mutator)
    assert len(report.rounds) >= 2
    # later rounds send only the re-dirtied pages, not everything
    assert report.rounds[-1].pages_sent < report.rounds[0].pages_sent


def test_downtime_is_a_fraction_of_total(pair):
    src, dst = pair
    src.full_virtualize()
    _, report = LiveMigration(src, dst).run()
    assert 0 < report.downtime_cycles <= report.total_cycles
    assert report.downtime_ms() < report.total_ms()


def test_source_frames_released(pair):
    src, dst = pair
    src.full_virtualize()
    owner = src.kernel.owner_id
    LiveMigration(src, dst).run()
    assert len(src.machine.memory.frames_owned_by(owner)) == 0


def test_migrated_guest_runs_new_work(pair):
    src, dst = pair
    src.full_virtualize()
    restored, _ = LiveMigration(src, dst).run()
    cpu = dst.machine.boot_cpu
    pid = restored.syscall(cpu, "fork")
    restored.run_and_reap(cpu, restored.procs.get(pid))
    fd = restored.syscall(cpu, "open", "/carry", False)
    restored.syscall(cpu, "lseek", fd, 0)
    assert restored.syscall(cpu, "read", fd, 4096) == ["cargo"]


def test_migrated_guest_is_wired_like_any_hosted_guest(pair):
    """A migrated-in guest is recorded like a hosted one: the watchdog
    scans its backends, and a VMM microreboot re-hosts it at its own
    address with its network path intact."""
    from repro.core.recovery import RecoveryManager
    from repro.faults import VMM_PAGEINFO_CORRUPT, inject_vmm_fault
    from repro.hw.devices import Packet
    from repro.vmm.backend import BlkBack, NetBack
    from repro.watchdog import Watchdog

    src, dst = pair
    src.full_virtualize()
    restored, _ = LiveMigration(src, dst).run()
    assert [type(back) for back in dst.backends] == [BlkBack, NetBack]
    assert restored.net_addr == "10.0.0.2:m1"

    Watchdog(dst)
    RecoveryManager(dst)
    inject_vmm_fault(VMM_PAGEINFO_CORRUPT, dst)
    cpu = dst.machine.boot_cpu
    record = dst.recovery.recover(cpu=cpu)
    assert record.success
    assert record.guests_rehosted == 1
    assert restored in dst.guests
    assert restored.net_addr == "10.0.0.2:m1"

    before = restored.net_driver.rx
    dst.kernel.net_rx(cpu, Packet("10.0.0.1", "10.0.0.2:m1", "udp", 512))
    dst.machine.run_until_idle()
    assert restored.net_driver.rx == before + 1


def test_lands_as_own_os_on_a_machine_without_kernel(pair):
    """Landing rule: a target with no kernel takes the migrated OS as its
    own, and it runs there natively."""
    from repro.core.invariants import check_all

    src, _ = pair
    empty = Mercury(Machine(small_config(), clock=src.machine.clock))
    src.full_virtualize()
    restored, report = LiveMigration(src, empty).run()
    assert restored is empty.kernel
    assert restored.name == "src-linux"
    assert empty.guests == []
    assert len(report.rounds) == 1
    cpu = empty.machine.boot_cpu
    fd = restored.syscall(cpu, "open", "/carry", False)
    assert restored.syscall(cpu, "read", fd, 4096) == ["cargo"]
    pid = restored.syscall(cpu, "fork")
    restored.run_and_reap(cpu, restored.procs.get(pid))
    assert check_all(empty) == []


@pytest.mark.parametrize("landing", ["guest", "own-os"])
def test_landing_is_checked_against_the_stop_and_copy_digest(pair, landing,
                                                             monkeypatch):
    """A landing that loses state is refused, naming what differs, and
    undone: the source keeps its kernel, the target is left as it was."""
    import repro.scenarios.migration as migration
    from repro.core.invariants import check_all

    src, dst = pair
    if landing == "own-os":
        dst = Mercury(Machine(small_config(), clock=src.machine.clock))
    restore_fn = ("restore_as_guest" if landing == "guest" else "restore")
    real_restore = getattr(migration, restore_fn)

    def lossy_restore(*args, **kwargs):
        kernel = real_restore(*args, **kwargs)
        kernel.fs.inodes.pop("/carry")
        return kernel

    monkeypatch.setattr(migration, restore_fn, lossy_restore)
    guests_before = list(dst.guests)
    free_before = dst.machine.memory.free_frames
    src.full_virtualize()
    with pytest.raises(MigrationError, match="fs_inodes"):
        LiveMigration(src, dst).run()
    assert src.kernel.booted
    assert src.kernel.fs.exists("/carry")
    assert dst.guests == guests_before
    assert dst.machine.memory.free_frames == free_before
    if landing == "guest":
        assert check_all(dst) == []
    else:
        assert not dst.kernel.booted  # an unbooted shell: no running kernel
