"""Mercury top level: modes, hosting, pre-caching, guards."""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode
from repro.core.switch import Direction
from repro.errors import ModeSwitchError


def test_precache_happens_at_construction(machine):
    mc = Mercury(machine)
    assert mc.vmm.state.value == "warm"
    assert mc.precache_info.reserved_frames > 0
    assert mc.precache_info.reserved_kb == mc.precache_info.reserved_frames * 4


def test_precache_boot_charge_optional():
    m1 = Machine(small_config())
    mc1 = Mercury(m1, charge_boot_time=True)
    assert m1.clock.cycles >= mc1.precache_info.warmup_cycles
    m2 = Machine(small_config())
    Mercury(m2, charge_boot_time=False)
    assert m2.clock.cycles == 0


def test_attach_is_orders_of_magnitude_faster_than_cold_boot(mercury):
    """The §4.1 space-time trade-off: the pre-cached attach must be
    vastly cheaper than booting a VMM."""
    from repro.core.precache import COLD_BOOT_CYCLES
    rec = mercury.attach()
    assert rec.cycles * 1000 < COLD_BOOT_CYCLES


def test_single_kernel_per_mercury(mercury):
    with pytest.raises(ModeSwitchError):
        mercury.create_kernel()


def test_domain_created_once_with_kernel_identity(mercury):
    d1 = mercury.ensure_domain()
    d2 = mercury.ensure_domain()
    assert d1 is d2
    assert d1.domain_id == mercury.kernel.owner_id
    assert d1.is_driver_domain


def test_host_guest_requires_attached_vmm(mercury):
    with pytest.raises(ModeSwitchError):
        mercury.host_guest()


def test_host_guest_end_to_end(mercury):
    mercury.attach()
    guest = mercury.host_guest(name="domU", image_pages=8)
    assert guest in mercury.guests
    assert guest.owner_id != mercury.kernel.owner_id
    cpu = mercury.machine.boot_cpu
    # the guest is a working OS: processes and files work through Mercury
    pid = guest.syscall(cpu, "fork")
    guest.run_and_reap(cpu, guest.procs.get(pid))
    fd = guest.syscall(cpu, "open", "/in-guest", True)
    guest.syscall(cpu, "write", fd, "hosted", 10)
    guest.syscall(cpu, "fsync", fd)


def test_detach_refused_while_hosting(mercury):
    mercury.attach()
    guest = mercury.host_guest()
    backends = mercury.backends
    assert len(backends) == 2
    assert guest.net_addr in mercury.kernel.route_table
    with pytest.raises(ModeSwitchError):
        mercury.detach()
    mercury.shutdown_guest(guest)
    # shutdown unwires everything: no backend left for the watchdog to
    # scan, no route from the driver domain to the guest's address
    assert not any(back in mercury.backends for back in backends)
    assert guest.net_addr not in mercury.kernel.route_table
    mercury.detach()
    assert mercury.mode is Mode.NATIVE


def test_shutdown_unknown_guest_rejected(mercury):
    mercury.attach()
    with pytest.raises(ModeSwitchError):
        mercury.shutdown_guest(mercury.kernel)


def test_full_virtualize_from_native(mercury):
    mercury.full_virtualize()
    assert mercury.mode is Mode.FULL_VIRTUAL
    mercury.departial()
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    mercury.detach()


def test_departial_requires_full(mercury):
    with pytest.raises(ModeSwitchError):
        mercury.departial()


def test_mean_switch_us(mercury):
    assert mercury.mean_switch_us(Direction.TO_VIRTUAL) is None
    mercury.attach()
    mercury.detach()
    mercury.attach()
    mercury.detach()
    up = mercury.mean_switch_us(Direction.TO_VIRTUAL)
    down = mercury.mean_switch_us(Direction.TO_NATIVE)
    assert up > down > 0


def test_adopt_kernel_rejects_foreign_vo(machine):
    from repro.core.native_vo import NativeVO
    from repro.guestos.kernel import Kernel
    mc = Mercury(machine)
    foreign = Kernel(machine, NativeVO(machine), name="foreign")
    with pytest.raises(ModeSwitchError):
        mc.adopt_kernel(foreign)


def test_guests_property_is_a_copy(mercury):
    mercury.attach()
    guests = mercury.guests
    guests.append("bogus")
    assert "bogus" not in mercury.guests
