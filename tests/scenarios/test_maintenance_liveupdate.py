"""Online hardware maintenance (§6.3) and live kernel updating (§6.4)."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode
from repro.errors import LiveUpdateError, MigrationError, ScenarioError
from repro.scenarios.liveupdate import KernelPatch, LiveUpdater
from repro.scenarios.maintenance import MaintenanceWindow


@pytest.fixture
def primary_standby():
    pm = Machine(small_config())
    primary = Mercury(pm)
    k = primary.create_kernel(name="primary-linux", image_pages=8)
    cpu = pm.boot_cpu
    fd = k.syscall(cpu, "open", "/workload", True)
    k.syscall(cpu, "write", fd, "running", 4096)
    k.syscall(cpu, "fsync", fd)
    sm = Machine(small_config(mem_kb=32768), clock=pm.clock)
    standby = Mercury(sm)
    standby.create_kernel(name="standby-linux", image_pages=8)
    pm.link_to(sm)
    return primary, standby


# ---------------------------------------------------------------------------
# maintenance
# ---------------------------------------------------------------------------

def test_maintenance_roundtrip(primary_standby):
    primary, standby = primary_standby
    window = MaintenanceWindow(primary, standby)
    maintained = []

    def do_maintenance():
        maintained.append(True)
        primary.machine.clock.advance(3_000_000_000)  # 1 s of work

    report = window.perform(do_maintenance)
    assert maintained == [True]
    # §6.3: back in native mode at full speed afterwards
    assert primary.mode is Mode.NATIVE
    assert primary.kernel.fs.exists("/workload")
    # standby no longer hosts the guest
    assert standby.guests == []


def test_maintenance_disruption_far_below_window(primary_standby):
    """The availability argument: app-visible pause (two stop-and-copy
    downtimes) must be orders of magnitude below the maintenance time."""
    primary, standby = primary_standby
    window = MaintenanceWindow(primary, standby)
    report = window.perform(
        lambda: primary.machine.clock.advance(3_000_000_000))
    assert report.maintenance_cycles >= 3_000_000_000
    assert report.disruption_cycles * 100 < report.maintenance_cycles
    assert report.disruption_ms() < 10


def test_return_leg_precopies_like_the_outbound_leg(primary_standby):
    """Both legs are one LiveMigration: a quiet kernel goes over in one
    pre-copy round and leaves nothing for stop-and-copy, either way."""
    primary, standby = primary_standby
    report = MaintenanceWindow(primary, standby).perform(lambda: None)
    for leg in (report.outbound, report.inbound):
        assert len(leg.rounds) == 1
        assert leg.stop_and_copy_pages == 0
    assert report.inbound.downtime_cycles < 2 * report.outbound.downtime_cycles


def test_maintenance_refuses_a_guest_hosting_primary(primary_standby):
    """The refusal comes before any mode change or page send: neither
    machine is switched and no cycle is spent."""
    primary, standby = primary_standby
    primary.attach()
    primary.host_guest(name="tenant", image_pages=8)
    modes = (primary.mode, standby.mode)
    cycles = primary.machine.clock.cycles
    with pytest.raises(MigrationError, match="hosts 1 guest"):
        MaintenanceWindow(primary, standby).perform(lambda: None)
    assert (primary.mode, standby.mode) == modes
    assert primary.machine.clock.cycles == cycles
    assert [g.name for g in primary.guests] == ["tenant"]


def test_maintenance_requires_shared_clock():
    a = Mercury(Machine(small_config()))
    a.create_kernel(name="a")
    b = Mercury(Machine(small_config()))
    b.create_kernel(name="b")
    with pytest.raises(ScenarioError):
        MaintenanceWindow(a, b)


def test_primary_survives_new_work_after_return(primary_standby):
    primary, standby = primary_standby
    MaintenanceWindow(primary, standby).perform(lambda: None)
    k = primary.kernel
    cpu = primary.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    # and it can self-virtualize again
    primary.attach()
    primary.detach()


# ---------------------------------------------------------------------------
# live update
# ---------------------------------------------------------------------------

def test_liveupdate_applies_patch_transiently(mercury):
    up = LiveUpdater(mercury)
    rec = up.apply(KernelPatch(
        "getpid-v2", "getpid", lambda k, c, t: t.pid + 1000))
    assert mercury.mode is Mode.NATIVE         # VMM detached afterwards
    assert rec.attach_us > rec.detach_us > 0   # §7.4 asymmetry again
    cpu = mercury.machine.boot_cpu
    assert mercury.kernel.syscall(cpu, "getpid") == \
        mercury.kernel.scheduler.current.pid + 1000


def test_liveupdate_unknown_syscall_rejected(mercury):
    up = LiveUpdater(mercury)
    with pytest.raises(LiveUpdateError):
        up.apply(KernelPatch("bad", "no_such_call", lambda k, c, t: 0))


def test_liveupdate_validator_rolls_back(mercury):
    up = LiveUpdater(mercury)
    cpu = mercury.machine.boot_cpu
    original = mercury.kernel.syscall(cpu, "getpid")
    with pytest.raises(LiveUpdateError):
        up.apply(KernelPatch("broken", "getpid",
                             lambda k, c, t: -1,
                             validator=lambda k: False))
    assert mercury.mode is Mode.NATIVE
    assert mercury.kernel.syscall(cpu, "getpid") == original
    assert up.history[-1].rolled_back


def test_liveupdate_state_transform_runs(mercury):
    up = LiveUpdater(mercury)
    up.apply(KernelPatch(
        "add-flag", "getpid", lambda k, c, t: t.pid,
        state_transform=lambda k: setattr(k, "patched_flag", True)))
    assert mercury.kernel.patched_flag is True


def test_liveupdate_revert(mercury):
    up = LiveUpdater(mercury)
    patch = KernelPatch("v2", "getpid", lambda k, c, t: 777)
    up.apply(patch)
    cpu = mercury.machine.boot_cpu
    assert mercury.kernel.syscall(cpu, "getpid") == 777
    up.revert(patch)
    assert mercury.kernel.syscall(cpu, "getpid") != 777
    assert mercury.mode is Mode.NATIVE


def test_liveupdate_revert_unapplied_rejected(mercury):
    up = LiveUpdater(mercury)
    with pytest.raises(LiveUpdateError):
        up.revert(KernelPatch("ghost", "getpid", lambda k, c, t: 0))


def test_liveupdate_stacking_and_unwind(mercury):
    """Two patches to the same syscall; revert restores the original."""
    up = LiveUpdater(mercury)
    cpu = mercury.machine.boot_cpu
    original = mercury.kernel.syscall(cpu, "getpid")
    p1 = KernelPatch("v2", "getpid", lambda k, c, t: 1001)
    p2 = KernelPatch("v3", "getpid", lambda k, c, t: 1002)
    up.apply(p1)
    up.apply(p2)
    assert mercury.kernel.syscall(cpu, "getpid") == 1002
    up.revert(p2)  # _saved holds the pristine original
    assert mercury.kernel.syscall(cpu, "getpid") == original


def test_liveupdate_under_existing_vmm(mercury):
    """If the VMM is already attached (partial-virtual), the update uses
    it without detaching."""
    mercury.attach()
    up = LiveUpdater(mercury)
    rec = up.apply(KernelPatch("v2", "getpid", lambda k, c, t: 55))
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    assert rec.attach_us == 0.0
