"""Scenario benches (§6): the dependability numbers self-virtualization
buys — checkpoint cost, migration downtime, maintenance disruption,
live-update window, healing MTTR, and the cluster policy comparison.

The paper presents these scenarios qualitatively; this bench quantifies
them on the simulated testbed so regressions in any scenario path surface
as numbers.
"""

from repro import Machine, Mercury
from repro.core.mercury import Mode
from repro.params import PAGE_SIZE
from repro.scenarios.checkpoint import checkpoint, restore
from repro.scenarios.cluster import HpcCluster
from repro.scenarios.healing import SelfHealer
from repro.scenarios.liveupdate import KernelPatch, LiveUpdater
from repro.scenarios.maintenance import MaintenanceWindow
from repro.scenarios.migration import LiveMigration


def _loaded_mercury(bench_config, name="node"):
    machine = Machine(bench_config)
    mercury = Mercury(machine)
    k = mercury.create_kernel(name=f"{name}-linux", image_pages=128)
    cpu = machine.boot_cpu
    fd = k.syscall(cpu, "open", "/app/data", True)
    k.syscall(cpu, "write", fd, "app-state", 16 * 4096)
    k.syscall(cpu, "fsync", fd)
    for _ in range(6):
        k.syscall(cpu, "fork")
    return mercury


def test_scenario_checkpoint_restart(bench_config):
    mercury = _loaded_mercury(bench_config)
    clock = mercury.machine.clock

    t0 = clock.cycles
    image = checkpoint(mercury)
    ckpt_ms = (clock.cycles - t0) / 3_000_000
    t0 = clock.cycles
    restore(image, mercury)
    restore_ms = (clock.cycles - t0) / 3_000_000
    print()
    print("Scenario 6.1: checkpoint/restart of operating systems")
    print(f"  image size      : {image.num_frames} frames "
          f"({image.num_frames * 4} KB)")
    print(f"  checkpoint time : {ckpt_ms:8.3f} ms (incl. attach+detach)")
    print(f"  restore time    : {restore_ms:8.3f} ms")
    assert mercury.mode is Mode.NATIVE  # no standing VMM afterwards
    assert ckpt_ms < 100 and restore_ms < 100


def test_scenario_live_migration(bench_config):
    src = _loaded_mercury(bench_config, "src")
    dst_machine = Machine(bench_config, clock=src.machine.clock)
    dst = Mercury(dst_machine)
    dst.create_kernel(name="dst-linux", image_pages=64)
    src.machine.link_to(dst_machine)
    dst.attach()
    src.full_virtualize()

    k = src.kernel
    cpu = src.machine.boot_cpu
    task = k.scheduler.current
    base = k.syscall(cpu, "mmap", 8 * PAGE_SIZE, True)
    frames = [k.vmem.access(cpu, task, base + i * PAGE_SIZE, write=True)
              for i in range(8)]

    def mutator(round_no):  # the workload keeps dirtying memory
        for f in frames[:4]:
            src.machine.memory.write(f, f"round-{round_no}")

    restored, report = LiveMigration(src, dst, max_rounds=4,
                                     dirty_threshold=2).run(mutator=mutator)
    print()
    print("Scenario 6.3/6.5 primitive: live migration (pre-copy)")
    print(f"  rounds          : {len(report.rounds)}"
          f"  ({[r.pages_sent for r in report.rounds]} pages)")
    print(f"  stop-and-copy   : {report.stop_and_copy_pages} pages")
    print(f"  total time      : {report.total_ms():8.3f} ms")
    print(f"  downtime        : {report.downtime_ms():8.3f} ms")
    assert report.downtime_cycles < report.total_cycles
    assert len(report.rounds) >= 2  # the mutator forced convergence work


def test_scenario_online_maintenance(bench_config):
    primary = _loaded_mercury(bench_config, "primary")
    standby_machine = Machine(bench_config, clock=primary.machine.clock)
    standby = Mercury(standby_machine)
    standby.create_kernel(name="standby-linux", image_pages=64)
    primary.machine.link_to(standby_machine)

    maintenance_s = 2.0

    report = MaintenanceWindow(primary, standby).perform(
        lambda: primary.machine.clock.advance(int(maintenance_s * 3e9)))
    print()
    print("Scenario 6.3: online hardware maintenance")
    print(f"  maintenance window : {report.maintenance_cycles/3e9:8.2f} s")
    print(f"  app disruption     : {report.disruption_ms():8.3f} ms")
    print(f"  availability ratio : "
          f"{1 - report.disruption_cycles/report.total_cycles:.6f}")
    assert primary.mode is Mode.NATIVE
    assert report.disruption_cycles * 50 < report.maintenance_cycles


def test_scenario_live_update(bench_config):
    mercury = _loaded_mercury(bench_config)
    updater = LiveUpdater(mercury)
    clock = mercury.machine.clock

    t0 = clock.cycles
    rec = updater.apply(KernelPatch(
        "cve-fix", "getpid", lambda k, c, t: t.pid,
        validator=lambda k: True))
    window_ms = (clock.cycles - t0) / 3_000_000
    print()
    print("Scenario 6.4: live kernel update (LUCOS without a standing VMM)")
    print(f"  update window  : {window_ms:8.3f} ms "
          f"(attach {rec.attach_us:.1f} µs + patch + detach "
          f"{rec.detach_us:.1f} µs)")
    assert mercury.mode is Mode.NATIVE
    assert window_ms < 10


def test_scenario_self_healing(bench_config):
    mercury = _loaded_mercury(bench_config)
    k = mercury.kernel
    clock = mercury.machine.clock

    t = k.scheduler.current
    k.scheduler.runqueue.extend([t, t])    # inject the anomaly
    t0 = clock.cycles
    records = SelfHealer(mercury).scan()
    mttr_ms = (clock.cycles - t0) / 3_000_000
    print()
    print("Scenario 6.2: self-healing through the transient VMM")
    print(f"  anomalies healed : {len(records)}")
    print(f"  MTTR             : {mttr_ms:8.3f} ms (incl. attach+detach)")
    assert all(r.healed for r in records)
    assert mercury.mode is Mode.NATIVE


def test_scenario_periodic_checkpointing(bench_config):
    """§6.1 deployed: periodic checkpoints bound the work at risk to one
    period; the steady-state cost is the per-checkpoint attach+snapshot+
    detach window."""
    from repro.scenarios.schedule import CheckpointSchedule

    mercury = _loaded_mercury(bench_config, "periodic")
    clock = mercury.machine.clock
    period_ms = 50.0

    sched = CheckpointSchedule(mercury, period_ms=period_ms, keep=3)
    sched.start()
    costs = []
    for _ in range(4):
        t0 = clock.cycles
        clock.advance(int(period_ms * 1.02 * 1000 * 3000))
        clock.run_due()
        costs.append((clock.cycles - t0) / 3_000 - period_ms * 1.02 * 1000)
    sched.stop()
    per_ckpt_ms = (sum(costs) / len(costs)) / 1000
    at_risk_ms = sched.work_at_risk_cycles() / 3_000_000
    print()
    print("Scenario 6.1 (periodic): checkpoint schedule")
    print(f"  period             : {period_ms:8.1f} ms")
    print(f"  cost per checkpoint: {per_ckpt_ms:8.3f} ms "
          f"({per_ckpt_ms / period_ms * 100:.2f}% steady-state overhead)")
    print(f"  work at risk       : {at_risk_ms:8.2f} ms (<= one period)")
    assert len(sched.images) == 3          # retention bound
    assert per_ckpt_ms < period_ms * 0.25  # checkpointing is not the job
    assert at_risk_ms <= period_ms * 1.3


def test_scenario_rolling_cluster_maintenance():
    """§6.3 fleet-wide: every node serviced, one at a time, nodes back at
    full native speed afterwards."""
    cluster = HpcCluster(num_nodes=3)
    cluster.nodes[0].job_progress = 0
    order = cluster.rolling_maintenance(
        lambda node: node.machine.clock.advance(1_500_000_000))
    print()
    print("Scenario 6.3 (fleet): rolling maintenance")
    print(f"  order      : {order}")
    print(f"  evacuations: every node hosted elsewhere during its window")
    assert order == [n.name for n in cluster.nodes]
    for node in cluster.nodes:
        assert node.mercury.mode is Mode.NATIVE


def test_scenario_hpc_cluster_policies():
    out = {}
    for policy in ("self-virtualization", "checkpoint", "restart"):
        cluster = HpcCluster(num_nodes=2)
        out[policy] = cluster.run_with_policy(
            policy, total_steps=40, fail_at_step=25, checkpoint_every=10)
    print()
    print("Scenario 6.5: HPC availability policies under a predicted failure")
    print()
    print(f"  {'policy':<22}{'lost steps':>12}{'downtime (ms)':>16}")
    print(f"  {'-'*50}")
    for policy, rep in out.items():
        print(f"  {policy:<22}{rep.job_steps_lost:>12}"
              f"{rep.downtime_ms():>16.3f}")
    assert out["self-virtualization"].job_steps_lost == 0
    assert out["self-virtualization"].downtime_cycles < \
        out["checkpoint"].downtime_cycles or \
        out["checkpoint"].job_steps_lost > 0
    assert out["restart"].job_steps_lost == 25
