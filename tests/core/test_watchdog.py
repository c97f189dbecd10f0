"""Unit tests for the VMI-style corruption watchdog.

The watchdog's contract: a healthy attached stack scans clean; each
``VMM_SITES`` corruption is detected and named; liveness-style checks use
the double-observation rule; scans are skipped while native or while a
recovery is mid-flight; the periodic timer reschedules itself and stops
cleanly; counters surface through the metrics API.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core.accounting import AccountingStrategy
from repro.core.invariants import backend_rings, check_all
from repro.core.mercury import Mode
from repro.core.recovery import RecoveryManager
from repro.errors import VmmCorruption
from repro.metrics import MetricsCollector
from repro.watchdog import CYC_SCAN, Watchdog


def _stack(ncpus: int = 1, guest: bool = True):
    cfg = dataclasses.replace(small_config(), num_cpus=ncpus)
    mercury = Mercury(Machine(cfg))
    mercury.create_kernel(image_pages=16)
    mercury.attach()
    if guest:
        mercury.host_guest(image_pages=8)
    return mercury


# every VMM site a plain (non-ballooned) guest can host; the balloon site
# and all variants are covered by the kill matrix (test_kill_matrix.py)
SITES = sorted(s.name for s in faults.VMM_SITES
               if s.name != faults.VMM_BALLOON_WEDGED)


def test_healthy_attached_stack_scans_clean():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    for _ in range(3):
        assert watchdog.scan() is None
    assert watchdog.scans == 3
    assert watchdog.detections == 0
    assert watchdog.pending_verdict is None


def test_scan_skipped_while_native():
    cfg = small_config()
    mercury = Mercury(Machine(cfg))
    mercury.create_kernel(image_pages=16)
    assert mercury.mode is Mode.NATIVE
    watchdog = Watchdog(mercury)
    assert watchdog.scan() is None
    assert watchdog.scans == 0  # skipped, not a clean pass


@pytest.mark.parametrize("site", SITES)
def test_each_vmm_site_detected_and_named(site):
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    assert watchdog.scan() is None
    faults.inject_vmm_fault(site, mercury)
    verdict = watchdog.scan()
    assert isinstance(verdict, VmmCorruption)
    assert verdict.invariant == faults.site(site).targets
    assert watchdog.pending_verdict is verdict
    assert verdict.detected_cycles == mercury.machine.clock.cycles


def test_verdict_names_carry_detail():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    faults.inject_vmm_fault(faults.VMM_TRAP_VECTOR_DROPPED, mercury)
    verdict = watchdog.scan()
    assert "vector" in verdict.detail
    assert verdict.invariant in str(verdict)


@pytest.mark.parametrize("site", [faults.VMM_CHANNEL_WEDGED,
                                  faults.VMM_BACKEND_DEAD])
def test_liveness_checks_use_double_observation(site):
    """A backend legitimately mid-poll (or a channel masked around a
    wait) must survive one scan; only a *persistently* wedged victim is
    corrupt."""
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=2)
    faults.inject_vmm_fault(site, mercury)
    assert watchdog.scan() is None, "first observation is only a suspicion"
    verdict = watchdog.scan()
    assert verdict is not None
    assert verdict.invariant == faults.site(site).targets


def test_suspect_counter_resets_when_condition_clears():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=2)
    back = mercury.backends[0]
    back._in_poll = True
    assert watchdog.scan() is None
    back._in_poll = False  # the poll finished: not wedged after all
    assert watchdog.scan() is None
    back._in_poll = True
    assert watchdog.scan() is None, "counter must have reset"


def test_first_verdict_is_kept_and_take_verdict_clears():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    faults.inject_vmm_fault(faults.VMM_REFCOUNT_RUNAWAY, mercury)
    first = watchdog.scan()
    second = watchdog.scan()
    assert second is not None
    assert watchdog.pending_verdict is first
    assert watchdog.take_verdict() is first
    assert watchdog.pending_verdict is None
    assert watchdog.detections == 2


def test_scan_charges_flat_cycle_cost():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    clock = mercury.machine.clock
    before = clock.cycles
    watchdog.scan()
    assert clock.cycles - before == CYC_SCAN


def test_periodic_timer_scans_and_stops():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    machine = mercury.machine
    watchdog.start(interval_cycles=1_000)
    assert watchdog.running
    for _ in range(3):
        machine.clock.advance(1_000)
        machine.poll()
    assert watchdog.scans == 3
    watchdog.stop()
    assert not watchdog.running
    machine.clock.advance(5_000)
    machine.poll()
    assert watchdog.scans == 3


def test_scan_skipped_during_recovery(monkeypatch):
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    faults.inject_vmm_fault(faults.VMM_PAGEINFO_CORRUPT, mercury)
    monkeypatch.setattr(manager, "_in_progress", True)
    assert watchdog.scan() is None
    assert watchdog.scans == 0


def test_counters_surface_through_metrics_api():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    watchdog.scan()
    faults.inject_vmm_fault(faults.VMM_GRANT_POISONED, mercury)
    verdict = watchdog.scan()
    record = manager.recover(verdict)
    assert record.success
    snap = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                            mercury=mercury).snapshot()
    assert snap.watchdog_scans == watchdog.scans >= 2
    assert snap.watchdog_detections == 1
    assert snap.recoveries == 1
    assert snap.recovery_failures == 0
    assert snap.emergency_detaches == 1


def test_rings_check_covers_all_backend_rings():
    mercury = _stack()
    watchdog = Watchdog(mercury, suspect_scans=1)
    # one guest: BlkBack.ring + NetBack.tx_ring/rx_ring
    assert len(list(backend_rings(mercury))) == 3
    ring = mercury.backends[0].ring
    ring.c.rsp_prod = ring.c.req_cons + 1  # response without a request
    verdict = watchdog.scan()
    assert verdict is not None
    assert verdict.invariant == "ring-indices"


def test_collector_follows_the_vmm_a_microreboot_installs():
    """A collector built before a microreboot reads the fresh VMM, not
    the discarded one."""
    mercury = _stack()
    collector = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                                 mercury=mercury)
    Watchdog(mercury, suspect_scans=1)
    RecoveryManager(mercury)
    faults.inject_vmm_fault(faults.VMM_PAGEINFO_CORRUPT, mercury)
    assert mercury.recovery.recover().success
    mercury.kernel.syscall(mercury.machine.boot_cpu, "fork")
    served = mercury.vmm.hypercalls_served
    assert served > 0
    assert collector.snapshot().hypercalls == served


def test_microreboot_under_active_accounting_rebuilds_page_counts():
    """ACTIVE attach trusts the page-info counts, so the fresh VMM of a
    microreboot must rebuild them from the OS's live address spaces: the
    recovered stack passes ``check_all``, reaping the children leaves no
    negative count, and the next attach is clean too."""
    mercury = Mercury(Machine(small_config()),
                      strategy=AccountingStrategy.ACTIVE)
    kernel = mercury.create_kernel(image_pages=16)
    cpu = mercury.machine.boot_cpu
    children = [kernel.procs.get(kernel.syscall(cpu, "fork"))
                for _ in range(3)]
    mercury.attach()
    Watchdog(mercury, suspect_scans=1)
    RecoveryManager(mercury)
    faults.inject_vmm_fault(faults.VMM_REFCOUNT_RUNAWAY, mercury)
    assert mercury.recovery.recover().success
    assert check_all(mercury) == []

    mercury.detach()
    for child in children:
        kernel.run_and_reap(cpu, child)
    assert min(mercury.vmm.page_info.type_count) >= 0
    mercury.attach()
    assert check_all(mercury) == []
