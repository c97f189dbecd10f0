"""Microreboot vs. the balloon: a guest squeezed below its initial
reservation must come back from VMM recovery at its *resized* footprint,
with its balloon pair reconnected and still operable."""

from __future__ import annotations

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core.recovery import RecoveryManager
from repro.watchdog import Watchdog


@pytest.fixture
def squeezed():
    """An attached stack hosting one guest ballooned from 96 down to 64."""
    machine = Machine(small_config())
    mercury = Mercury(machine)
    mercury.create_kernel(name="driver", image_pages=16)
    cpu = machine.boot_cpu
    mercury.attach(cpu)
    guest = mercury.host_guest(name="squeezee", image_pages=8,
                               mem_pages=96, mem_floor=24)
    front, back = mercury.balloons[guest.owner_id]
    # map a few frames so the footprint is not pure pool
    front.map_pool_frames(cpu, guest.scheduler.current, 6)
    back.set_target(cpu, 64)
    assert mercury.vmm.domains[guest.owner_id].mem_pages == 64
    return machine, mercury, cpu, guest


@pytest.mark.parametrize("site", [faults.VMM_BALLOON_WEDGED,
                                  faults.VMM_PAGEINFO_CORRUPT])
def test_rehost_preserves_ballooned_size(squeezed, site):
    machine, mercury, cpu, guest = squeezed
    owner = guest.owner_id
    owned_before = len(machine.memory.frames_owned_by(owner))
    front_before, _ = mercury.balloons[owner]
    pool_before = list(front_before.pool)
    rmap_before = dict(front_before._rmap)

    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    faults.inject_vmm_fault(site, mercury)
    verdict = watchdog.scan(cpu)
    assert verdict is not None
    record = manager.recover(verdict, cpu=cpu)
    assert record.success
    assert record.guests_rehosted == 1

    # the domain is re-created at the ballooned (resized) footprint, not
    # the original 96-page reservation; the reconnect itself may cost a
    # frame or two, so compare against the live owner column
    dom = mercury.vmm.domains[owner]
    owned_after = len(machine.memory.frames_owned_by(owner))
    assert dom.mem_pages == owned_after
    assert owned_before <= owned_after <= owned_before + 4
    assert dom.mem_pages < 96
    assert dom.mem_floor == 24

    # the balloon pair is reconnected with the frontend state carried over
    assert owner in mercury.balloons
    front, back = mercury.balloons[owner]
    assert front is not front_before
    assert list(front.pool) == pool_before
    assert front._rmap == rmap_before

    # and it still balloons: deflate 8 up, inflate 8 back
    ledger = dom.mem_pages
    back.set_target(cpu, ledger + 8)
    assert dom.mem_pages == ledger + 8
    back.set_target(cpu, ledger)
    assert dom.mem_pages == ledger

    # the guest is alive after all of it
    assert guest.syscall(cpu, "getpid") is not None


def test_rehosted_balloon_survives_second_recovery(squeezed):
    """Two rounds: squeeze, recover, squeeze again, recover again — the
    re-derived ledger must stay consistent through repeated microreboots."""
    machine, mercury, cpu, guest = squeezed
    owner = guest.owner_id
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    for round_no in range(2):
        faults.inject_vmm_fault(faults.VMM_BALLOON_WEDGED, mercury,
                                variant=round_no)
        verdict = watchdog.scan(cpu)
        assert verdict is not None
        assert manager.recover(verdict, cpu=cpu).success
        dom = mercury.vmm.domains[owner]
        assert dom.mem_pages == len(machine.memory.frames_owned_by(owner))
        _front, back = mercury.balloons[owner]
        back.set_target(cpu, dom.mem_pages - 4)


def test_microreboot_drops_dom0_balloon_and_rehosts_guest_pairs(squeezed):
    """Dom0's own balloon dies with the VMM and is not reconnected; the
    hosted guest comes back with all three of its pairs, in wiring order."""
    from repro.vmm.backend import BalloonBack, BlkBack, NetBack
    machine, mercury, cpu, guest = squeezed
    mercury.connect_balloon()
    dom0 = mercury.kernel.owner_id
    assert set(mercury.balloons) == {guest.owner_id, dom0}

    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    faults.inject_vmm_fault(faults.VMM_PAGEINFO_CORRUPT, mercury)
    assert manager.recover(watchdog.scan(cpu), cpu=cpu).success

    assert set(mercury.balloons) == {guest.owner_id}
    assert [type(back) for back in mercury.backends] == [
        BlkBack, NetBack, BalloonBack]
    assert mercury.guests == [guest]
