"""The switch-crash matrix: every registered fault site × direction × CPU
topology.

For each site the matrix proves the §4.3 dependability claim twice over:

- **persistent fault** — the switch terminally aborts
  (:class:`~repro.errors.SwitchAborted`) and the kernel is back in its
  pre-switch mode, state-digest exact, on the same VO object with the same
  registered address spaces.  The next un-faulted switch then commits
  cleanly and the kernel still runs workloads.
- **single transient fault** — the engine rolls back, backs off, retries,
  and commits on its own; the caller never sees the fault.

``smp.ipi-delayed`` is the one latency-only site: the switch *commits*
under it (a late IPI stretches the gather; it corrupts nothing), which the
matrix asserts instead of a rollback.

Each cell runs through :func:`repro.bench.crashmatrix.run_cell`, the one
implementation of these checks that the crash-matrix bench runs too; a
cell fails with the labels of the checks it failed.
"""

from __future__ import annotations

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.bench.crashmatrix import matrix_cells, run_cell
from repro.core.invariants import check_all
from repro.errors import SwitchAborted
from repro.metrics import MetricsCollector
from repro.scenarios.checkpoint import state_digest

SITE_NAMES = [s.name for s in faults.SWITCH_SITES]
DIRECTIONS = ["attach", "detach"]
TOPOLOGIES = [1, 2]


def _stack(ncpus: int) -> Mercury:
    mercury = Mercury(Machine(small_config(num_cpus=ncpus)))
    mercury.create_kernel(image_pages=16)
    return mercury


def _smoke(mercury: Mercury) -> None:
    """The kernel must still run real work after the recovery."""
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = kernel.syscall(cpu, "fork")
    kernel.run_and_reap(cpu, kernel.procs.get(pid))
    assert check_all(mercury) == []


@pytest.mark.parametrize("ncpus", TOPOLOGIES, ids=["up", "smp"])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("site_name", SITE_NAMES)
def test_persistent_fault_aborts_and_rolls_back(site_name, direction, ncpus):
    cell = run_cell(site_name, direction, ncpus, "persistent")
    if cell.skipped:
        pytest.skip("site only exists on SMP machines")
    assert cell.failures == []


@pytest.mark.parametrize("ncpus", TOPOLOGIES, ids=["up", "smp"])
@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("site_name", SITE_NAMES)
def test_single_transient_fault_recovers_unattended(site_name, direction,
                                                    ncpus):
    cell = run_cell(site_name, direction, ncpus, "transient")
    if cell.skipped:
        pytest.skip("site only exists on SMP machines")
    assert cell.failures == []


@pytest.mark.parametrize("ncpus", TOPOLOGIES, ids=["up", "smp"])
def test_attach_rollback_restores_dirty_roots_exactly(ncpus):
    """The tracker-specific half of the rollback story: after a persistent
    mid-attach abort, the dirty/contribution/dead sets are bit-for-bit what
    native mode left (no phantom-clean roots), the tracker is distrusted,
    and the un-faulted retry rebuilds a table identical to a from-scratch
    recompute."""
    from repro.vmm.page_info import PageInfoTable

    mercury = _stack(ncpus)
    mercury.attach()
    mercury.detach()   # captures per-root contributions, trusts the tracker
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    tracker = mercury.mmu_log

    # native-mode churn: dirty the parent root, create a new one
    pid = kernel.syscall(cpu, "fork")
    assert tracker.trusted
    dirty_before = set(tracker.dirty)
    contribs_before = sorted(tracker.contributions)
    dead_before = sorted(tracker.dead)
    assert dirty_before, "native-mode PT writes must mark their roots dirty"

    plan = faults.FaultPlan()
    plan.arm(faults.PT_TRANSFER_ABORT, times=None)
    with faults.injected(plan):
        with pytest.raises(SwitchAborted):
            mercury.attach()

    # restored exactly, but distrusted: the retry must take the full path
    assert set(tracker.dirty) == dirty_before
    assert sorted(tracker.contributions) == contribs_before
    assert sorted(tracker.dead) == dead_before
    assert not tracker.trusted
    assert check_all(mercury) == []

    full_before = tracker.full_recomputes
    rec = mercury.attach()
    assert rec is not None
    assert tracker.full_recomputes > full_before

    ref = PageInfoTable(mercury.machine.memory)
    ref.recompute(cpu, kernel.aspaces, mercury.domain.domain_id)
    live = mercury.vmm.page_info
    assert ref.semantically_equal(live)
    assert live.ref_count == ref.ref_count
    assert set(live.pinned) == set(ref.pinned)
    kernel.run_and_reap(cpu, kernel.procs.get(pid))
    _smoke(mercury)


def test_matrix_covers_every_registered_switch_site():
    """The matrix parametrization is derived from the registry, so a new
    site is automatically matrix-tested — this guards the derivation, and
    that the bench runs exactly the cells these tests run."""
    assert set(SITE_NAMES) == {s.name for s in faults.SWITCH_SITES}
    assert len(SITE_NAMES) >= 7
    assert sorted(matrix_cells()) == sorted(
        (site_name, direction, ncpus, flavor) for site_name in SITE_NAMES
        for direction in DIRECTIONS for ncpus in TOPOLOGIES
        for flavor in ("persistent", "transient"))


# ---------------------------------------------------------------------------
# the recovery matrix: every in-attached-mode VMM fault site × topology ×
# load state must end in a watchdog detection and a microreboot that leaves
# the stack state-digest exact and the guest alive
# ---------------------------------------------------------------------------

VMM_SITE_NAMES = [s.name for s in faults.VMM_SITES]
LOAD_STATES = ["quiescent", "busy"]


def _attached_stack(ncpus: int) -> Mercury:
    mercury = _stack(ncpus)
    assert mercury.attach() is not None
    # balloon=True keeps the stack representative of the full site
    # catalogue (the wedged balloon ring needs a balloon backend)
    mercury.host_guest(image_pages=8, balloon=True)
    return mercury


@pytest.mark.parametrize("ncpus", TOPOLOGIES, ids=["up", "smp"])
@pytest.mark.parametrize("site_name", VMM_SITE_NAMES)
def test_quiescent_vmm_fault_recovers_fingerprint_exact(site_name, ncpus):
    """At rest: inject → one watchdog scan detects → microreboot → the
    stack is semantically identical and still runs work."""
    from repro.core.recovery import RecoveryManager
    from repro.watchdog import Watchdog

    mercury = _attached_stack(ncpus)
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    assert watchdog.scan() is None, "stack must start clean"
    before = state_digest(mercury)

    faults.inject_vmm_fault(site_name, mercury)
    verdict = watchdog.scan()
    assert verdict is not None, f"{site_name} escaped the watchdog"

    record = manager.recover(verdict)
    assert record.success
    assert record.mttr_cycles > 0
    assert record.guests_rehosted == 1
    assert state_digest(mercury) == before
    assert check_all(mercury) == []
    assert watchdog.scan() is None, "residual corruption after recovery"

    snap = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                            mercury=mercury).snapshot()
    assert snap.watchdog_detections >= 1
    assert snap.recoveries == 1
    assert snap.recovery_failures == 0
    assert snap.emergency_detaches == 1
    _smoke(mercury)


@pytest.mark.parametrize("ncpus", TOPOLOGIES, ids=["up", "smp"])
@pytest.mark.parametrize("site_name", VMM_SITE_NAMES)
def test_busy_vmm_fault_recovers_under_workload(site_name, ncpus):
    """Under load: the same fault lands mid-workload under the sim
    scheduler; the campaign episode must detect, recover, finish the
    workload, and leave the guest answering syscalls."""
    from repro.bench.chaoscampaign import run_episode
    from repro.hw.machine import reset_machine_ids

    reset_machine_ids()
    episode = run_episode(index=0, site=site_name, variant=0,
                          trigger_cycles=2_000_000, workload="kbuild",
                          num_cpus=ncpus)
    assert episode.injected
    assert episode.detected, f"{site_name} escaped the watchdog under load"
    assert episode.recovered
    assert episode.workload_ok, episode.workload_error
    assert episode.guest_alive
    assert episode.invariant_failures == 0
    assert not episode.residual_verdict
    assert episode.success


def test_recovery_matrix_covers_every_registered_vmm_site():
    """Derived from the registry like the switch matrix above: a new VMM
    fault site is automatically recovery-tested."""
    assert set(VMM_SITE_NAMES) == {s.name for s in faults.VMM_SITES}
    assert len(VMM_SITE_NAMES) >= 6
    # the union registry keeps all three catalogues disjoint and complete
    assert set(s.name for s in faults.ALL_SITES) == (
        set(s.name for s in faults.SWITCH_SITES)
        | set(s.name for s in faults.WORKLOAD_SITES)
        | set(VMM_SITE_NAMES))
    assert not set(VMM_SITE_NAMES) & set(SITE_NAMES)
