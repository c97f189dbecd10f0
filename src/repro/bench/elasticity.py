"""Memory-elasticity bench: balloon churn vs. attach-time drift, and the
reclaim-strategy ablation.

Two sub-measurements feed the ``memory`` section of ``BENCH_perf.json``:

- **Drift sweep** — dom0 balloons while attached, then hands returned
  pool frames to ``churn`` worker tasks in native mode.  Every handed-out
  batch dirties that task's root in the incremental-attach accounting, so
  the next attach revalidates exactly ``churn`` roots: attach time must
  sit under the steady gate at zero churn and grow monotonically with the
  churn rate — the cost of elasticity is visible, bounded, and *pay for
  what you dirtied*.
- **Ablation** — a hosted guest is squeezed to its floor and re-grown
  under both reclaim strategies (:data:`repro.vmm.elastic.STRATEGIES`).
  ``hypervisor-driven`` steals mapped victims (reclaim completes without
  guest cooperation but taxes the guest with victim-page faults on the
  next touch); ``guest-delegated`` surrenders cold pool frames (no fault
  tax).  Both must converge to identical final sizes, and frame ownership
  must be conserved: every ballooned-out frame is either in the host free
  pool or re-granted, never double-owned (Δowned == Δledger).

Everything is cycle-exact and seeded; ``canonical_output()`` is the
byte-diff surface the ``memory-elasticity`` CI job double-runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.mercury import Mercury
from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.vmm.elastic import STRATEGIES, ElasticMemoryController

#: dirtied-roots-per-measurement sweep points (0 is the steady gate)
CHURN_RATES = (0, 2, 4, 8)

#: pool frames dom0 deflates in before the sweep hands them out
POOL_FRAMES = 48

#: frames each churned worker task receives (churn × per-task ≤ pool)
PER_TASK_FRAMES = 6


@dataclass
class ElasticityResult:
    """One full elasticity run: the drift sweep plus the ablation."""

    freq_mhz: int
    churn_rates: tuple = CHURN_RATES
    #: one dict per churn rate: attach_us, balloon_marks, roots counts
    drift: list = field(default_factory=list)
    #: strategy -> reclaim/grant/fault accounting
    ablation: dict = field(default_factory=dict)
    conservation_ok: bool = True
    #: canonical event lines (decision logs, per-point measurements)
    lines: list = field(default_factory=list)

    @property
    def steady_attach_us(self) -> float:
        for entry in self.drift:
            if entry["churn"] == 0:
                return entry["attach_us"]
        raise ValueError("drift sweep did not include churn=0")

    @property
    def drift_attach_us(self) -> dict:
        return {str(e["churn"]): e["attach_us"] for e in self.drift}

    @property
    def drift_monotone(self) -> bool:
        us = [e["attach_us"] for e in
              sorted(self.drift, key=lambda e: e["churn"])]
        return all(a <= b for a, b in zip(us, us[1:]))

    @property
    def final_sizes_equal(self) -> bool:
        finals = {a["final_pages"] for a in self.ablation.values()}
        return len(finals) == 1

    def summary(self) -> dict:
        return {
            "churn_rates": list(self.churn_rates),
            "steady_attach_us": self.steady_attach_us,
            "drift_attach_us": self.drift_attach_us,
            "drift_monotone": self.drift_monotone,
            "drift_detail": self.drift,
            "ablation": {k: self.ablation[k] for k in sorted(self.ablation)},
            "final_sizes_equal": self.final_sizes_equal,
            "conservation_ok": self.conservation_ok,
        }

    def canonical_output(self) -> str:
        return (json.dumps(self.summary(), indent=1, sort_keys=True)
                + "\n" + "\n".join(self.lines) + "\n")


def _fork_workers(kernel, cpu, count: int, image_pages: int = 4) -> list:
    init = kernel.scheduler.current
    tasks = []
    for i in range(count):
        t = kernel.procs.fork(cpu, init)
        kernel.procs.exec(cpu, t, f"w{i}", image_pages)
        tasks.append(t)
    return tasks


def measure_drift_point(churn: int, *, workers: int = 8,
                        pool_frames: int = POOL_FRAMES,
                        per_task: int = PER_TASK_FRAMES,
                        mem_kb: int = 16384) -> dict:
    """One drift measurement: balloon dom0 while attached, churn
    ``churn`` worker roots with returned frames in native mode, re-attach
    and read the incremental-validation bill."""
    if churn * per_task > pool_frames:
        raise ValueError("churn would overdraw the deflated pool")
    machine = Machine(MachineConfig(num_cpus=1, mem_kb=mem_kb))
    mercury = Mercury(machine)
    kernel = mercury.create_kernel(name="elastic-dom0")
    cpu = machine.boot_cpu
    freq = machine.config.cost.freq_mhz
    tasks = _fork_workers(kernel, cpu, workers)

    mercury.attach(cpu)
    front, back = mercury.connect_balloon()
    dom0 = mercury.domain
    # deflate: stock the frontend pool with host frames
    back.set_target(cpu, dom0.mem_pages + pool_frames)
    # attached-mode ring churn: a couple of inflate/deflate round-trips
    # keep the split-driver datapath honest on every sweep point
    for _ in range(2):
        back.set_target(cpu, dom0.mem_pages - 8)
        back.set_target(cpu, dom0.mem_pages + 8)
    mercury.detach(cpu)

    marks_before = mercury.mmu_log.balloon_marks
    for i in range(churn):
        front.map_pool_frames(cpu, tasks[i], per_task)
    rec = mercury.attach(cpu)
    entry = {
        "churn": churn,
        "attach_us": round(rec.us(freq), 3),
        "balloon_marks": mercury.mmu_log.balloon_marks - marks_before,
        "roots_revalidated": mercury.mmu_log.roots_revalidated,
        "roots_trusted": mercury.mmu_log.roots_trusted,
        "pool_residual": len(front.pool),
    }
    # steady-state follow-up: with no new churn the next attach must fall
    # back to the trusted fast path regardless of the churn before it
    mercury.detach(cpu)
    entry["reattach_us"] = round(mercury.attach(cpu).us(freq), 3)
    mercury.detach(cpu)
    return entry


def run_ablation(strategy: str, *, mem_kb: int = 16384,
                 mem_pages: int = 120, mem_floor: int = 40,
                 mapped_frames: int = 24, reclaim_step: int = 16,
                 grant_rounds: int = 2) -> dict:
    """Squeeze one hosted guest to its floor under ``strategy``, measure
    the reclaim latency and fault tax, then re-grow it under synthetic
    pressure.  Returns the accounting dict for the ablation table."""
    machine = Machine(MachineConfig(num_cpus=1, mem_kb=mem_kb))
    mercury = Mercury(machine)
    mercury.create_kernel(name="elastic-driver")
    cpu = machine.boot_cpu
    mercury.attach(cpu)
    guest = mercury.host_guest(name="elastic-guest", image_pages=16,
                               mem_pages=mem_pages, mem_floor=mem_floor)
    front, _back = mercury.balloons[guest.owner_id]
    dom = mercury.vmm.domains[guest.owner_id]
    # give the hypervisor-driven strategy hot victims to steal: map part
    # of the reservation into the guest init task's address space
    init = guest.scheduler.current
    front.map_pool_frames(cpu, init, mapped_frames)
    touched = sorted((task.pid, vaddr, task)
                     for task, vaddr in front._rmap.values())

    mem = machine.memory
    owned0 = len(mem.frames_owned_by(guest.owner_id))
    ledger0 = dom.mem_pages
    controller = ElasticMemoryController(mercury, strategy,
                                         reclaim_step=reclaim_step)
    rounds = 0
    while dom.mem_pages > dom.mem_floor and rounds < 32:
        if not controller.step(cpu):
            break
        rounds += 1
    squeezed = dom.mem_pages
    # conservation: every ballooned-out frame left the guest's owner
    # column exactly as the ledger says (host free pool or re-granted)
    owned_delta = len(mem.frames_owned_by(guest.owner_id)) - owned0
    ledger_delta = dom.mem_pages - ledger0
    conserved = owned_delta == ledger_delta

    # the fault tax: touch everything that was mapped before the squeeze;
    # stolen victims come back as demand-zero minor faults
    faults0 = guest.vmem.minor_faults
    for _pid, vaddr, task in touched:
        guest.vmem.access(cpu, task, vaddr, write=True)
    victim_faults = guest.vmem.minor_faults - faults0

    # re-grow under synthetic pressure — identical for both strategies,
    # so their final sizes must agree
    grower = ElasticMemoryController(mercury, strategy,
                                     pressure_fn=lambda owner: 1)
    for _ in range(grant_rounds):
        grower.step(cpu)

    squeeze_summary = controller.summary()
    return {
        "strategy": strategy,
        "start_pages": ledger0,
        "squeezed_pages": squeezed,
        "final_pages": dom.mem_pages,
        "floor": dom.mem_floor,
        "rounds": rounds,
        "pages_reclaimed": squeeze_summary["pages_reclaimed"],
        "pages_granted": grower.summary()["pages_granted"],
        "reclaim_latency_cycles_p50":
            squeeze_summary["reclaim_latency_cycles_p50"],
        "reclaim_latency_cycles_max":
            squeeze_summary["reclaim_latency_cycles_max"],
        "victim_unmaps": front.victim_unmaps,
        "victim_faults": victim_faults,
        "conservation_ok": conserved,
        "decisions": [list(d) for d in controller.log + grower.log],
    }


def run_elasticity(churn_rates: tuple = CHURN_RATES, *, workers: int = 8,
                   mem_kb: int = 16384) -> ElasticityResult:
    """The full bench: drift sweep plus both ablation arms."""
    freq = MachineConfig().cost.freq_mhz
    result = ElasticityResult(freq_mhz=freq, churn_rates=tuple(churn_rates))
    for churn in churn_rates:
        entry = measure_drift_point(churn, workers=workers, mem_kb=mem_kb)
        result.drift.append(entry)
        result.lines.append(
            f"drift churn={churn} attach_us={entry['attach_us']} "
            f"marks={entry['balloon_marks']} "
            f"revalidated={entry['roots_revalidated']} "
            f"reattach_us={entry['reattach_us']}")
    for strategy in STRATEGIES:
        abl = run_ablation(strategy, mem_kb=mem_kb)
        result.ablation[strategy] = abl
        result.conservation_ok &= abl["conservation_ok"]
        for rnd, op, owner, moved in abl["decisions"]:
            result.lines.append(
                f"ablation {strategy} round={rnd} {op} dom={owner} "
                f"pages={moved}")
        result.lines.append(
            f"ablation {strategy} final={abl['final_pages']} "
            f"victim_faults={abl['victim_faults']} "
            f"reclaim_p50={abl['reclaim_latency_cycles_p50']}")
    return result
