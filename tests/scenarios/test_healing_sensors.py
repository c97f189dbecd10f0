"""Unit coverage for the §6.2 healer's laws and the watchdog wiring.

The cluster-level tests exercise the healer through ``SelfHealer.scan``;
here each registry law the healer mends is driven directly with its
repairer (the check fires on exactly the anomaly it owns, the repair
leaves a state the check accepts, and it stays quiet on healthy kernels),
and the VMM half of the detection loop — watchdog verdict → microreboot →
``vmm:<invariant>`` history record — is pinned down.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.invariants import (REGISTRY, STRUCTURAL, check_all,
                                   check_filesystem, check_frame_refcounts,
                                   check_proc_table, check_scheduler)
from repro.core.mercury import Mode
from repro.core.recovery import RecoveryManager
from repro.errors import HealingError
from repro.guestos.process import TaskState
from repro.scenarios.healing import (REPAIRERS, SelfHealer,
                                     _repair_frame_refs, _repair_fs,
                                     _repair_proc_table, _repair_runqueue)
from repro.watchdog import Watchdog


# ---------------------------------------------------------------------------
# the four registry laws the healer mends, each driven directly with its
# repairer
# ---------------------------------------------------------------------------

def test_every_repaired_law_is_a_guestos_registry_entry():
    entries = {inv.name: inv for inv in REGISTRY}
    assert list(REPAIRERS) == ["runqueue", "proc-table", "fs-metadata",
                               "frame-refs"]
    for name in REPAIRERS:
        assert entries[name].layer == "guestos"
        assert entries[name].kind == STRUCTURAL


def test_runqueue_pair(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    assert not check_scheduler(mercury)

    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])  # duplicate pid
    assert check_scheduler(mercury)
    _repair_runqueue(k, cpu)
    assert not check_scheduler(mercury)
    assert [x.pid for x in k.scheduler.runqueue].count(t.pid) <= 1

    pid = k.syscall(cpu, "fork")
    zombie = k.procs.get(pid)
    zombie.state = TaskState.ZOMBIE
    assert check_scheduler(mercury)
    _repair_runqueue(k, cpu)
    assert zombie not in k.scheduler.runqueue
    assert not check_scheduler(mercury)


def test_proc_table_pair(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    assert not list(check_proc_table(mercury))

    pid = k.syscall(cpu, "fork")
    child = k.procs.get(pid)
    child.pid = pid + 500  # key/task disagreement
    assert list(check_proc_table(mercury)) == [
        f"task pid {pid + 500} filed under pid {pid}"]
    _repair_proc_table(k, cpu)
    assert not list(check_proc_table(mercury))
    assert k.procs.tasks[pid].pid == pid


def test_proc_table_dangling_parent(mercury):
    """A live task whose parent left the table without exiting breaks the
    law; one whose parent was reaped as a zombie does not."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    parent_pid = k.syscall(cpu, "fork")
    parent = k.procs.get(parent_pid)
    child_pid = k.syscall(cpu, "fork", task=parent)
    del k.procs.tasks[parent_pid]  # dropped while still running
    assert list(check_proc_table(mercury)) == [
        f"pid {child_pid}: parent {parent_pid} left the table"]
    parent.state = TaskState.ZOMBIE  # as if it exited and was reaped
    assert not list(check_proc_table(mercury))
    parent.state = TaskState.READY
    _repair_proc_table(k, cpu)
    assert k.procs.get(child_pid).parent is None
    assert not list(check_proc_table(mercury))


def test_refiled_task_is_seen_by_check_all_and_healed(mercury):
    """A task filed under a pid that is not its own breaks a registry law:
    ``check_all`` (the chaos campaign's, the crash matrix's and the
    fleet's end-of-run check) reports it, and the healer repairs it."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    k.procs.tasks[pid + 50] = k.procs.tasks.pop(pid)
    assert check_all(mercury) == [f"task pid {pid} filed under pid {pid + 50}"]

    healer = SelfHealer(mercury)
    records = healer.scan()
    assert [(r.sensor_name, r.healed) for r in records] == [
        ("proc-table", True)]
    assert healer.fires == {"proc-table": 1}
    assert k.procs.tasks[pid + 50].pid == pid + 50
    assert check_all(mercury) == []
    assert mercury.mode is Mode.NATIVE


def test_fork_after_proc_table_repair_skips_the_repaired_pid(mercury):
    """The repair adopts the key a task was filed under as its pid, which
    can be ahead of the pid counter; later forks must not issue it again
    and overwrite the repaired task while it is still on the runqueue."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    k.procs.tasks[pid + 5] = k.procs.tasks.pop(pid)
    healer = SelfHealer(mercury)
    assert [r.sensor_name for r in healer.scan()] == ["proc-table"]
    assert check_all(mercury) == []
    repaired = k.procs.tasks[pid + 5]

    pids = [k.syscall(cpu, "fork") for _ in range(6)]
    assert pid + 5 not in pids
    assert pids == sorted(set(pids))
    assert k.procs.tasks[pid + 5] is repaired
    assert check_all(mercury) == []


def test_fs_metadata_pair(mercury):
    from repro.guestos.fs import BLOCK_SIZE
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    assert not check_filesystem(mercury)

    fd = k.syscall(cpu, "open", "/f", True)
    k.syscall(cpu, "write", fd, "x", 100)
    inode = k.fs.inodes["/f"]
    inode.size = 10_000_000
    inode.nlink = -2
    assert check_filesystem(mercury)
    _repair_fs(k, cpu)
    assert not check_filesystem(mercury)
    assert inode.size <= len(inode.blocks) * BLOCK_SIZE
    assert inode.nlink == 1

    inode.nlink = 0  # the law is nlink >= 1: zero links must repair too
    assert check_filesystem(mercury)
    _repair_fs(k, cpu)
    assert not check_filesystem(mercury)
    assert inode.nlink == 1


def test_frame_refs_pair(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    assert not check_frame_refcounts(mercury)

    leaked = k.machine.memory.alloc(k.owner_id)
    k.vmem.set_shares({**k.vmem.shares(), leaked: 3})
    assert check_frame_refcounts(mercury)
    _repair_frame_refs(k, cpu)
    assert not check_frame_refcounts(mercury)
    assert leaked not in k.vmem.shares()
    # the repairer also returned the orphaned frame to the allocator
    assert k.machine.memory.owner_of(leaked) != k.owner_id

    shares = k.vmem.shares()
    mapped = next(iter(shares))
    shares[mapped] += 2  # skewed count on a mapped frame
    k.vmem.set_shares(shares)
    assert check_frame_refcounts(mercury)
    _repair_frame_refs(k, cpu)
    assert not check_frame_refcounts(mercury)


def test_each_law_ignores_the_other_anomalies(mercury):
    """The laws are orthogonal: runqueue damage must not trip the fs or
    proc-table checks and vice versa."""
    k = mercury.kernel
    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])
    assert not list(check_proc_table(mercury))
    assert not check_filesystem(mercury)
    assert not check_frame_refcounts(mercury)
    _repair_runqueue(k, mercury.machine.boot_cpu)


def test_repair_counters(mercury):
    k = mercury.kernel
    healer = SelfHealer(mercury)
    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])
    healer.scan()
    assert healer.fires == {"runqueue": 1}
    assert SelfHealer(mercury).fires == {}  # per-healer count


# ---------------------------------------------------------------------------
# the VMM half of the loop: watchdog verdicts heal through a microreboot
# ---------------------------------------------------------------------------

def _vmm_stack(mercury):
    mercury.attach()
    mercury.host_guest(image_pages=8)
    watchdog = Watchdog(mercury, suspect_scans=1)
    recovery = RecoveryManager(mercury)
    return watchdog, recovery


def test_healer_consumes_pending_watchdog_verdict(mercury):
    watchdog, recovery = _vmm_stack(mercury)
    faults.inject_vmm_fault(faults.VMM_TRAP_VECTOR_DROPPED, mercury)
    assert watchdog.scan() is not None  # verdict now pending

    healer = SelfHealer(mercury)  # recovers through mercury.recovery
    records = healer.scan()
    assert [r.sensor_name for r in records] == ["vmm:trap-table"]
    assert records[0].healed
    assert records[0].repair_cycles > 0
    assert healer.history == records
    assert watchdog.pending_verdict is None
    assert recovery.recoveries == 1
    assert mercury.mode is Mode.PARTIAL_VIRTUAL


def test_healer_runs_its_own_scan_when_none_pending(mercury):
    watchdog, recovery = _vmm_stack(mercury)
    faults.inject_vmm_fault(faults.VMM_REFCOUNT_RUNAWAY, mercury)
    assert watchdog.pending_verdict is None

    records = SelfHealer(mercury).scan()
    assert [r.sensor_name for r in records] == ["vmm:vo-refcount"]
    assert recovery.recoveries == 1


def test_one_pass_covers_both_damage_domains(mercury):
    """A single ``scan()`` heals VMM corruption *and* guest-OS damage —
    the 'one detection loop' contract."""
    watchdog, recovery = _vmm_stack(mercury)
    k = mercury.kernel
    k.scheduler.runqueue.extend([k.scheduler.current] * 2)
    faults.inject_vmm_fault(faults.VMM_GRANT_POISONED, mercury)

    records = SelfHealer(mercury).scan()
    names = [r.sensor_name for r in records]
    assert names == ["vmm:grant-refs", "runqueue"]
    assert all(r.healed for r in records)
    assert recovery.recoveries == 1


def test_healer_without_watchdog_skips_vmm_half(mercury):
    mercury.attach()
    assert SelfHealer(mercury).scan() == []  # no watchdog installed: guest
    # sensors only, and a healthy kernel scans clean


def test_failed_recovery_surfaces_as_healing_error(mercury, monkeypatch):
    watchdog, recovery = _vmm_stack(mercury)
    faults.inject_vmm_fault(faults.VMM_CHANNEL_WEDGED, mercury)
    watchdog.scan()

    def broken_reattach(cpu=None, wait=True):
        from repro.errors import RecoveryError
        raise RecoveryError("re-attach refused")

    monkeypatch.setattr(mercury, "attach", broken_reattach)
    healer = SelfHealer(mercury)
    with pytest.raises((HealingError, Exception)):
        healer.scan()
    assert recovery.recovery_failures == 1
