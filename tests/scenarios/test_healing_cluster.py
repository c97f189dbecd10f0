"""Self-healing (§6.2) and HPC cluster availability (§6.5)."""

import pytest

from repro.core.mercury import Mode
from repro.errors import ScenarioError
from repro.guestos.process import TaskState
from repro.scenarios.cluster import HardwareMonitor, HpcCluster, NodeState
from repro.scenarios.healing import SelfHealer


# ---------------------------------------------------------------------------
# healing
# ---------------------------------------------------------------------------

def test_clean_system_scans_clean(mercury):
    healer = SelfHealer(mercury)
    assert healer.scan() == []
    assert mercury.mode is Mode.NATIVE


def test_runqueue_duplicate_healed(mercury):
    k = mercury.kernel
    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])
    records = SelfHealer(mercury).scan()
    assert [r.sensor_name for r in records] == ["runqueue"]
    assert records[0].healed
    pids = [x.pid for x in k.scheduler.runqueue]
    assert len(pids) == len(set(pids))
    assert mercury.mode is Mode.NATIVE  # VMM detached after healing


def test_zombie_on_runqueue_healed(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    child = k.procs.get(pid)
    child.state = TaskState.ZOMBIE   # died but left enqueued (the anomaly)
    records = SelfHealer(mercury).scan()
    assert records and records[0].healed
    assert child not in k.scheduler.runqueue


def test_proc_table_skew_healed(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    child = k.procs.get(pid)
    child.pid = pid + 500  # key/task disagreement
    records = SelfHealer(mercury).scan()
    assert any(r.sensor_name == "proc-table" and r.healed for r in records)
    assert k.procs.tasks[pid].pid == pid


def test_fs_corruption_healed(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/f", True)
    k.syscall(cpu, "write", fd, "x", 100)
    inode = k.fs.inodes["/f"]
    inode.size = 10_000_000  # size beyond its blocks
    records = SelfHealer(mercury).scan()
    assert any(r.sensor_name == "fs-metadata" and r.healed for r in records)
    assert inode.size <= len(inode.blocks) * 4096


def test_multiple_anomalies_all_healed(mercury):
    """Several OS anomalies at once are all repaired in one pass, and the
    switches around the repair commit."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/f", True)
    k.syscall(cpu, "write", fd, "x", 100)
    k.fs.inodes["/f"].nlink = -1
    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])
    records = SelfHealer(mercury).scan()
    assert {r.sensor_name for r in records} == {"runqueue", "fs-metadata"}
    assert all(r.healed for r in records)
    assert mercury.mode is Mode.NATIVE


def test_frame_ref_skew_healed(mercury):
    k = mercury.kernel
    leaked = k.machine.memory.alloc(k.owner_id)
    k.vmem.set_shares({**k.vmem.shares(), leaked: 3})  # mapped nowhere
    records = SelfHealer(mercury).scan()
    assert any(r.sensor_name == "frame-refs" and r.healed for r in records)
    assert leaked not in k.vmem.shares()


def test_healing_from_virtual_mode_stays_attached(mercury):
    mercury.attach()
    k = mercury.kernel
    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])
    SelfHealer(mercury).scan()
    assert mercury.mode is Mode.PARTIAL_VIRTUAL


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------

def test_monitor_thresholds():
    m = HardwareMonitor()
    assert not m.predicts_failure()
    assert HardwareMonitor(temperature_c=90).predicts_failure()
    assert HardwareMonitor(fan_rpm=500).predicts_failure()
    assert HardwareMonitor(voltage_v=10).predicts_failure()
    assert HardwareMonitor(power_ok=False).predicts_failure()


def test_cluster_needs_two_nodes():
    with pytest.raises(ScenarioError):
        HpcCluster(num_nodes=1)


def test_evacuation_on_warning():
    cluster = HpcCluster(num_nodes=2)
    node = cluster.nodes[0]
    node.job_progress = 0
    for _ in range(5):
        node.run_job_step()
    node.monitor.temperature_c = 95.0
    standby = cluster.handle_warning(node)
    assert standby is cluster.nodes[1]
    assert node.state is NodeState.EVACUATED
    assert standby.job_progress == 5
    assert node.job_progress is None
    assert cluster.evacuations == 1


def test_evacuation_without_prediction_rejected():
    cluster = HpcCluster(num_nodes=2)
    with pytest.raises(ScenarioError):
        cluster.handle_warning(cluster.nodes[0])


def test_job_continues_on_standby():
    cluster = HpcCluster(num_nodes=2)
    node = cluster.nodes[0]
    node.job_progress = 0
    node.run_job_step()
    node.monitor.fan_rpm = 100.0
    standby = cluster.handle_warning(node)
    node.fail()
    standby.run_job_step()
    assert standby.job_progress == 2


def test_policy_self_virtualization_loses_nothing():
    cluster = HpcCluster(num_nodes=2)
    report = cluster.run_with_policy("self-virtualization",
                                     total_steps=20, fail_at_step=10)
    assert report.job_steps_lost == 0
    assert report.job_steps_completed == 20


def test_policy_restart_loses_everything_before_failure():
    cluster = HpcCluster(num_nodes=2)
    report = cluster.run_with_policy("restart", total_steps=20,
                                     fail_at_step=10)
    assert report.job_steps_lost == 10
    assert report.downtime_cycles > 0


def test_policy_comparison_ordering():
    """§6.5's argument quantified: sv < checkpoint < restart in lost
    work, and sv has the smallest downtime."""
    results = {}
    for policy in ("self-virtualization", "checkpoint", "restart"):
        cluster = HpcCluster(num_nodes=2)
        results[policy] = cluster.run_with_policy(
            policy, total_steps=30, fail_at_step=17, checkpoint_every=10)
    assert results["self-virtualization"].job_steps_lost == 0
    assert 0 < results["checkpoint"].job_steps_lost <= 10
    assert results["restart"].job_steps_lost == 17
    assert results["self-virtualization"].downtime_cycles < \
        results["restart"].downtime_cycles


def test_unknown_policy_rejected():
    cluster = HpcCluster(num_nodes=2)
    with pytest.raises(ScenarioError):
        cluster.run_with_policy("pray", total_steps=5, fail_at_step=2)


def test_no_healthy_standby_raises():
    cluster = HpcCluster(num_nodes=2)
    cluster.nodes[1].state = NodeState.FAILED
    cluster.nodes[0].monitor.power_ok = False
    with pytest.raises(ScenarioError):
        cluster.handle_warning(cluster.nodes[0])
