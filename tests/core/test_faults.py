"""The deterministic fault-injection engine (:mod:`repro.faults`) and the
switch engine's transactional recovery from single transient faults.

The crash matrix (tests/integration/test_switch_crash_matrix.py) exercises
every site terminally; here we pin down the plan mechanics themselves —
hit ordinals, fire counts, CPU filters, determinism — and the happy
recovery path: one transient fault, one rollback, one backoff retry, one
commit.
"""

from __future__ import annotations

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core.invariants import check_all
from repro.core.mercury import Mode
from repro.core.switch import MAX_SWITCH_RETRIES, RETRY_PERIOD_MS
from repro.errors import HypercallError, SwitchAborted
from repro.hw.paging import pte, pte_frame
from repro.metrics import MetricsCollector


# ---------------------------------------------------------------------------
# plan mechanics (no machine needed)
# ---------------------------------------------------------------------------

def test_unknown_site_is_rejected_at_arm_time():
    plan = faults.FaultPlan()
    with pytest.raises(KeyError):
        plan.arm("transfer.typo-site")


def test_site_lookup():
    s = faults.site(faults.PT_TRANSFER_ABORT)
    assert s.name == faults.PT_TRANSFER_ABORT
    assert s.during_switch
    assert not s.smp_only


def test_registry_shape():
    names = {s.name for s in faults.ALL_SITES}
    assert len(names) == len(faults.ALL_SITES)  # no duplicate names
    # the matrix relies on the split: every switch site is during_switch
    assert all(s.during_switch for s in faults.SWITCH_SITES)
    assert all(not s.during_switch for s in faults.WORKLOAD_SITES)


def test_trigger_ordinal_and_count():
    """Fire on hits 3 and 4 only: deterministic by construction."""
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, trigger_at=3, times=2)
    fired = [plan.check(faults.TRANSFER_HYPERCALL) for _ in range(6)]
    assert fired == [False, False, True, True, False, False]
    assert plan.injected == 2
    assert plan.log == [(faults.TRANSFER_HYPERCALL, None)] * 2


def test_persistent_fault_fires_forever():
    plan = faults.FaultPlan()
    plan.arm(faults.REFCOUNT_STUCK, trigger_at=2, times=None)
    fired = [plan.check(faults.REFCOUNT_STUCK) for _ in range(5)]
    assert fired == [False, True, True, True, True]


def test_cpu_filter_only_hits_the_armed_cpu():
    plan = faults.FaultPlan()
    plan.arm(faults.RELOAD_SECONDARY, times=None, cpu_id=1)
    assert not plan.check(faults.RELOAD_SECONDARY, cpu_id=0)
    assert plan.check(faults.RELOAD_SECONDARY, cpu_id=1)
    assert plan.log == [(faults.RELOAD_SECONDARY, 1)]


def test_same_plan_same_workload_same_injections():
    """The determinism contract: identical plans against identical hit
    sequences produce identical audit logs."""
    def run():
        plan = faults.FaultPlan()
        plan.arm(faults.IPI_DROPPED, trigger_at=2, times=1, cpu_id=1)
        plan.arm(faults.TRANSFER_HYPERCALL, trigger_at=1, times=2)
        for cpu_id in (0, 1, 0, 1, 1):
            plan.check(faults.IPI_DROPPED, cpu_id=cpu_id)
            plan.check(faults.TRANSFER_HYPERCALL, cpu_id=cpu_id)
        return plan.log
    assert run() == run()


def test_fire_is_noop_without_a_plan():
    faults.clear_plan()
    before = faults.injected_total()
    assert faults.fire(faults.TRANSFER_HYPERCALL) is False
    assert faults.injected_total() == before


def test_injected_context_manager_installs_and_clears():
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL)
    assert faults.active_plan() is None
    with faults.injected(plan) as p:
        assert faults.active_plan() is p
        assert faults.fire(faults.TRANSFER_HYPERCALL)
    assert faults.active_plan() is None


def test_disarm_and_armed_sites():
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL)
    plan.arm(faults.REFCOUNT_STUCK)
    assert plan.armed_sites() == sorted(
        [faults.TRANSFER_HYPERCALL, faults.REFCOUNT_STUCK])
    plan.disarm(faults.TRANSFER_HYPERCALL)
    assert plan.armed_sites() == [faults.REFCOUNT_STUCK]
    plan.disarm_all()
    assert plan.armed_sites() == []


# ---------------------------------------------------------------------------
# transient faults: rollback + backoff retry + commit
# ---------------------------------------------------------------------------

def test_transient_transfer_fault_retries_and_commits(mercury):
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, times=1)
    with faults.injected(plan):
        rec = mercury.attach()
    assert rec is not None
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    assert rec.retries >= 1
    assert rec.rollbacks >= 1
    engine = mercury.engine
    assert engine.switch_rollbacks >= 1
    assert engine.rollback_steps >= 1
    assert engine.switch_aborts == 0
    assert check_all(mercury) == []


def test_refcount_stuck_counts_failed_attempts(mercury):
    plan = faults.FaultPlan()
    plan.arm(faults.REFCOUNT_STUCK, times=2)
    with faults.injected(plan):
        rec = mercury.attach()
    assert rec is not None
    assert mercury.engine.failed_attempts == 2
    assert rec.retries == 2
    assert rec.rollbacks == 0  # never reached the transfer pipeline
    assert mercury.engine.retry_histogram == {2: 1}


def test_retry_accounting_is_per_switch(mercury):
    """A later switch must not inherit an earlier switch's retry count."""
    plan = faults.FaultPlan()
    plan.arm(faults.REFCOUNT_STUCK, times=1)
    with faults.injected(plan):
        rec1 = mercury.attach()
    assert rec1.retries == 1
    rec2 = mercury.detach()
    assert rec2.retries == 0
    assert mercury.engine.retry_histogram == {1: 1, 0: 1}
    assert mercury.engine.pending_retries == 0


def test_persistent_fault_aborts_after_the_retry_budget(mercury):
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, times=None)
    with faults.injected(plan):
        with pytest.raises(SwitchAborted) as ei:
            mercury.attach()
    exc = ei.value
    assert exc.retries == MAX_SWITCH_RETRIES
    assert isinstance(exc.last_error, HypercallError)
    engine = mercury.engine
    assert engine.switch_aborts == 1
    assert engine.switch_rollbacks == MAX_SWITCH_RETRIES + 1
    assert engine.pending_retries == 0  # abort abandons the attempt
    assert mercury.mode is Mode.NATIVE
    assert check_all(mercury) == []
    # the system is not wedged: a clean retry commits
    assert mercury.attach() is not None
    assert check_all(mercury) == []


def test_busy_abort_unwinds_the_pending_request(mercury):
    plan = faults.FaultPlan()
    plan.arm(faults.REFCOUNT_STUCK, times=None)
    with faults.injected(plan):
        with pytest.raises(SwitchAborted):
            mercury.attach()
    engine = mercury.engine
    assert engine.switch_aborts == 1
    assert engine.switch_rollbacks >= 1
    assert engine.failed_attempts == MAX_SWITCH_RETRIES + 1
    assert mercury.mode is Mode.NATIVE


def test_backoff_is_exponential_and_capped(mercury):
    """10, 20, 40, 80 ms, then pinned at 160 ms: the abort lands ~790 ms
    after the request, not 80 ms (unbounded 10 ms loop) and not seconds
    (uncapped doubling)."""
    plan = faults.FaultPlan()
    plan.arm(faults.REFCOUNT_STUCK, times=None)
    freq = mercury.machine.config.cost.freq_mhz
    start = mercury.machine.clock.cycles
    with faults.injected(plan):
        with pytest.raises(SwitchAborted):
            mercury.attach()
    elapsed_ms = (mercury.machine.clock.cycles - start) / (freq * 1000)
    expected = sum(min(RETRY_PERIOD_MS * 2 ** i, 160)
                   for i in range(MAX_SWITCH_RETRIES))
    assert expected <= elapsed_ms <= expected * 1.25


def test_metrics_snapshot_carries_dependability_counters(mercury):
    collector = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                                 mercury=mercury)
    before = collector.snapshot()
    plan = faults.FaultPlan()
    plan.arm(faults.TRANSFER_HYPERCALL, times=1)
    with faults.injected(plan):
        mercury.attach()
    delta = collector.snapshot() - before
    assert delta.faults_injected == 1
    assert delta.switch_rollbacks == 1
    assert delta.switch_retries >= 1
    assert delta.switch_aborts == 0
    assert delta.mode_switches == 1
    assert sum(delta.retry_histogram.values()) == 1


def test_secondary_reload_fault_recovers_on_smp(machine2):
    mercury = Mercury(machine2)
    mercury.create_kernel(image_pages=16)
    plan = faults.FaultPlan()
    plan.arm(faults.RELOAD_SECONDARY, times=1, cpu_id=1)
    with faults.injected(plan):
        rec = mercury.attach()
    assert rec is not None
    assert rec.rollbacks >= 1
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    # the rollback must have left every secondary responsive
    assert all(c.interrupts_enabled for c in machine2.cpus
               if c is not machine2.boot_cpu)
    assert check_all(mercury) == []


# ---------------------------------------------------------------------------
# workload-time seam: the lazy-MMU queue survives a transient hypercall
# ---------------------------------------------------------------------------

def test_mmu_transient_fault_preserves_the_lazy_queue(mercury):
    """A transient mmu_update refusal mid-flush must re-queue the unapplied
    updates — losing them would mean PTEs the kernel believes written never
    reaching the tables."""
    mercury.attach()
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    vo = kernel.vo
    aspace = kernel.scheduler.current.aspace
    frame = mercury.machine.memory.alloc(kernel.owner_id)
    kernel.vmem.claim_frame(frame)
    vaddr = 0x4100_0000

    vo.lazy_mmu_begin(cpu)
    vo.set_pte(cpu, aspace, vaddr, pte(frame, writable=True))
    assert vo.lazy_mmu_pending() == 1

    plan = faults.FaultPlan()
    plan.arm(faults.MMU_UPDATE_TRANSIENT, times=1)
    with faults.injected(plan):
        with pytest.raises(HypercallError):
            vo.lazy_mmu_end(cpu)
    # nothing applied, nothing lost
    assert aspace.get_pte(vaddr) is None
    assert vo.lazy_mmu_pending() == 1

    # fault gone: the retried flush applies the queued update
    vo.lazy_mmu_flush(cpu)
    assert vo.lazy_mmu_pending() == 0
    assert pte_frame(aspace.get_pte(vaddr)) == frame
    assert check_all(mercury) == []
