"""Seedable chaos campaign: inject VMM faults, measure detect + recover.

Each *episode* builds a fresh Mercury stack (attached VMM, one hosted
guest, split drivers), starts a workload under the deterministic
simulation scheduler, arms a timer that corrupts one VMM structure from
:data:`repro.faults.VMM_SITES` at a seeded trigger cycle, and lets the
VMI watchdog + recovery manager do their job.  The campaign aggregates
per-incident MTTR into p50/p99, the recovery-success rate and
workload-result integrity — the numbers `BENCH_recovery.json` gates on.

Everything is a pure function of ``(seed, episode parameters)``: episode
``index`` draws its parameters from its own
``random.Random(f"chaos:{seed}:{index}")`` stream, each episode builds
its stack under an isolated machine-id allocator, and the scheduler/clock
pair is deterministic — so episodes are order-independent and the
campaign parallelizes (``workers=``) without changing a byte of
:meth:`CampaignResult.canonical_output` (the CI ``chaos-recovery`` job
diffs exactly that across worker counts).

Episode anatomy
---------------
- The workload (kbuild or dbench) runs on the *driver* kernel: its
  syscalls hypercall through the VMM under test, but its data path never
  blocks on the (possibly wedged) split-driver backends — so a dead
  backend degrades the guest, not the probe measuring recovery.
- The hosted guest is the victim population for the channel/backend/
  grant sites and must come back alive: after the run the episode issues
  guest syscalls through the re-connected frontends and requires them to
  succeed.
- Recovery runs from a dedicated sim task (never from the watchdog's
  timer callback): the verdict is consumed between workload slices, when
  VO refcounts are quiescent, so the re-attach commits immediately.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro import faults, trace
from repro.core.invariants import check_all
from repro.core.mercury import Mercury
from repro.core.recovery import RecoveryManager
from repro.errors import ReproError
from repro.hw.machine import Machine, isolated_machine_ids, reset_machine_ids
from repro.params import small_config
from repro.sim import Join, SimScheduler, WaitFor, parallel_episodes
from repro.watchdog import Watchdog
from repro.workloads.dbench import dbench_task
from repro.workloads.kbuild import kbuild_task

#: sites exercised by the campaign, in catalogue order
CAMPAIGN_SITES = tuple(s.name for s in faults.VMM_SITES)

#: seeded trigger window for the corruption timer (cycles after run start)
TRIGGER_MIN_CYCLES = 1_500_000   # 0.5 ms
TRIGGER_MAX_CYCLES = 12_000_000  # 4 ms

#: watchdog scan period during an episode (1 ms: two scans inside the
#: shortest workload even with the double-observation rule)
SCAN_INTERVAL_CYCLES = 3_000_000

WORKLOADS = ("kbuild", "dbench")


@dataclass
class EpisodeResult:
    """One fault episode, injection to verified recovery."""

    index: int
    site: str
    variant: int
    trigger_cycles: int
    workload: str
    num_cpus: int
    injected: bool = False
    inject_error: str = ""
    detected: bool = False
    detect_latency_cycles: int = -1
    invariant: str = ""
    recovered: bool = False
    mttr_cycles: int = -1
    guests_rehosted: int = 0
    workload_ok: bool = False
    workload_error: str = ""
    guest_alive: bool = False
    invariant_failures: int = 0
    residual_verdict: str = ""

    @property
    def success(self) -> bool:
        """Full chaos-to-recovery success: fault injected, detected,
        recovered, stack invariant-clean, guest and workload intact."""
        return (self.injected and self.detected and self.recovered
                and self.invariant_failures == 0 and not self.residual_verdict
                and self.workload_ok and self.guest_alive)

    def row(self) -> dict:
        return {
            "index": self.index,
            "site": self.site,
            "variant": self.variant,
            "trigger_cycles": self.trigger_cycles,
            "workload": self.workload,
            "num_cpus": self.num_cpus,
            "detected": self.detected,
            "detect_latency_cycles": self.detect_latency_cycles,
            "invariant": self.invariant,
            "recovered": self.recovered,
            "mttr_cycles": self.mttr_cycles,
            "guests_rehosted": self.guests_rehosted,
            "workload_ok": self.workload_ok,
            "guest_alive": self.guest_alive,
            "success": self.success,
        }


@dataclass
class CampaignResult:
    seed: int
    episodes: int
    freq_mhz: int
    results: list = field(default_factory=list)

    # -- aggregates --------------------------------------------------------

    @property
    def success_count(self) -> int:
        return sum(1 for e in self.results if e.success)

    @property
    def success_rate(self) -> float:
        return self.success_count / len(self.results) if self.results else 0.0

    @property
    def detection_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for e in self.results if e.detected) / len(self.results)

    @property
    def mttr_samples(self) -> list:
        return sorted(e.mttr_cycles for e in self.results
                      if e.recovered and e.mttr_cycles >= 0)

    def mttr_percentile(self, pct: float) -> Optional[int]:
        samples = self.mttr_samples
        if not samples:
            return None
        rank = max(0, min(len(samples) - 1,
                          int(round(pct / 100.0 * (len(samples) - 1)))))
        return samples[rank]

    def per_site(self) -> dict:
        out: dict = {}
        for e in self.results:
            site = out.setdefault(e.site, {"episodes": 0, "successes": 0,
                                           "detected": 0})
            site["episodes"] += 1
            site["successes"] += int(e.success)
            site["detected"] += int(e.detected)
        return dict(sorted(out.items()))

    def summary(self) -> dict:
        p50 = self.mttr_percentile(50)
        p99 = self.mttr_percentile(99)
        freq = self.freq_mhz
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "success_count": self.success_count,
            "success_rate": round(self.success_rate, 4),
            "detection_rate": round(self.detection_rate, 4),
            "mttr_p50_cycles": p50,
            "mttr_p99_cycles": p99,
            "mttr_p50_us": None if p50 is None else round(p50 / freq, 3),
            "mttr_p99_us": None if p99 is None else round(p99 / freq, 3),
            "per_site": self.per_site(),
            "episode_rows": [e.row() for e in self.results],
        }

    def canonical_output(self) -> str:
        """The determinism contract: every byte a pure function of
        ``(seed, episodes)``."""
        return json.dumps(self.summary(), indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# episode machinery
# ---------------------------------------------------------------------------

def _guarded_workload(gen: Generator, out: dict) -> Generator:
    """Task exceptions propagate out of ``SimScheduler.run`` — a workload
    killed by the injected fault must fail its episode, not the campaign."""
    try:
        out["result"] = yield from gen
    except ReproError as exc:
        out["error"] = type(exc).__name__


def _recovery_task(mercury: Mercury, watchdog: Watchdog,
                   manager: RecoveryManager, out: dict) -> Generator:
    yield WaitFor(lambda: watchdog.pending_verdict is not None,
                  desc="watchdog verdict")
    try:
        out["record"] = manager.recover(cpu=mercury.machine.boot_cpu)
    finally:
        watchdog.stop()


def _guest_alive(guest, cpu, tag: int) -> bool:
    """Post-recovery liveness probe through the re-connected frontends."""
    try:
        fd = guest.syscall(cpu, "open", f"/postrecovery-{tag}", True)
        guest.syscall(cpu, "write", fd, f"alive-{tag}", 512)
        guest.syscall(cpu, "close", fd)
        fd = guest.syscall(cpu, "open", f"/postrecovery-{tag}")
        guest.syscall(cpu, "read", fd, 512)
        guest.syscall(cpu, "close", fd)
        return True
    except ReproError:
        return False


def run_episode(index: int, site: str, variant: int, trigger_cycles: int,
                workload: str, num_cpus: int,
                scan_interval: int = SCAN_INTERVAL_CYCLES) -> EpisodeResult:
    """Run one fault episode on a fresh stack; fully deterministic."""
    episode = EpisodeResult(index=index, site=site, variant=variant,
                            trigger_cycles=trigger_cycles, workload=workload,
                            num_cpus=num_cpus)
    import dataclasses
    config = dataclasses.replace(small_config(), num_cpus=num_cpus)
    # isolated numbering: machine identity depends only on the episode
    # parameters, never on which worker (or how many prior episodes) built
    # this stack — the property that lets episodes run in any process
    with isolated_machine_ids():
        machine = Machine(config)
        mercury = Mercury(machine)
        kernel = mercury.create_kernel(image_pages=16)
        mercury.engine.max_retries = 64
        mercury.attach()
        # the site catalogue includes the wedged balloon ring, so every
        # episode hosts its guest mid-inflate (24 surplus pool pages the
        # elastic controller could reclaim)
        guest = mercury.host_guest(image_pages=8, mem_pages=48,
                                   mem_floor=16)
    watchdog = Watchdog(mercury, suspect_scans=2)
    manager = RecoveryManager(mercury)

    work_cpu = machine.cpus[1] if num_cpus > 1 else machine.boot_cpu
    wl_out: dict = {}
    rec_out: dict = {}

    def _inject() -> None:
        try:
            faults.inject_vmm_fault(site, mercury, variant=variant)
            episode.injected = True
        except ReproError as exc:
            episode.inject_error = f"{type(exc).__name__}: {exc}"

    sched = SimScheduler(machine)
    tracer = trace.Tracer(machine.clock)
    injected_at = machine.clock.cycles + trigger_cycles
    with trace.tracing(tracer):
        machine.clock.schedule(trigger_cycles, _inject)
        watchdog.start(scan_interval)
        if workload == "dbench":
            gen = dbench_task(kernel, work_cpu, clients=2,
                              files_per_client=3, writes_per_file=4)
        else:
            gen = kbuild_task(kernel, work_cpu, files=2)
        sched.spawn(_guarded_workload(gen, wl_out),
                    name=workload, cpu=work_cpu, kernel=kernel)
        sched.spawn(_recovery_task(mercury, watchdog, manager, rec_out),
                    name="recovery", cpu=machine.boot_cpu)
        sched.run()
    events = tracer.events()
    problems = trace.validate(events, dropped=tracer.dropped)
    if problems:
        raise AssertionError(f"malformed episode trace: {problems[:3]}")

    record = rec_out.get("record")
    if record is not None:
        episode.detected = True
        episode.invariant = record.invariant
        episode.detect_latency_cycles = record.detected_at - injected_at
    if record is not None and record.success:
        episode.recovered = True
        episode.mttr_cycles = record.mttr_cycles
        episode.guests_rehosted = record.guests_rehosted

    result = wl_out.get("result")
    if "error" in wl_out:
        episode.workload_error = wl_out["error"]
    elif workload == "kbuild":
        episode.workload_ok = (result is not None
                               and result.files_compiled == 2)
    else:
        episode.workload_ok = result is not None and result.ops > 0

    episode.invariant_failures = len(check_all(mercury))
    residual = watchdog.scan()
    if residual is not None:
        episode.residual_verdict = residual.invariant
    episode.guest_alive = _guest_alive(guest, machine.boot_cpu, index)
    return episode


def episode_params(seed: int, index: int,
                   scan_interval: int = SCAN_INTERVAL_CYCLES) -> tuple:
    """Parameter tuple for episode ``index`` — the :func:`run_episode`
    argument list, drawn from the episode's *own* RNG stream.

    Keyed by ``(seed, index)`` rather than position in a shared stream,
    so parallel workers computing any subset of episodes agree with the
    serial campaign draw-for-draw."""
    rng = random.Random(f"chaos:{seed}:{index}")
    site = CAMPAIGN_SITES[rng.randrange(len(CAMPAIGN_SITES))]
    variant = rng.randrange(8)
    trigger = rng.randrange(TRIGGER_MIN_CYCLES, TRIGGER_MAX_CYCLES)
    workload = WORKLOADS[rng.randrange(len(WORKLOADS))]
    num_cpus = 1 + rng.randrange(2)
    return (index, site, variant, trigger, workload, num_cpus,
            scan_interval)


def run_chaos_campaign(episodes: int = 50, seed: int = 1234,
                       scan_interval: int = SCAN_INTERVAL_CYCLES,
                       workers: int = 1) -> CampaignResult:
    """Run ``episodes`` seeded fault episodes; aggregate the campaign.

    ``workers > 1`` fans episodes across spawned processes
    (:func:`~repro.sim.pool.parallel_episodes`); every episode is a pure
    function of its parameter tuple, so the result list — and therefore
    the canonical output — is identical at every worker count."""
    freq = small_config().cost.freq_mhz
    campaign = CampaignResult(seed=seed, episodes=episodes, freq_mhz=freq)
    params = [episode_params(seed, index, scan_interval)
              for index in range(episodes)]
    campaign.results = parallel_episodes(run_episode, params,
                                         workers=workers)
    return campaign


# ---------------------------------------------------------------------------
# steady-state overhead probe
# ---------------------------------------------------------------------------

def measure_watchdog_overhead(files: int = 6,
                              scan_interval: int = SCAN_INTERVAL_CYCLES
                              ) -> dict:
    """Simulated-cycle cost of scanning: the same attached-mode kbuild run
    with and without a periodic watchdog; returns the relative overhead."""
    import dataclasses

    def _run(with_watchdog: bool) -> int:
        reset_machine_ids()
        config = dataclasses.replace(small_config(), num_cpus=2)
        machine = Machine(config)
        mercury = Mercury(machine)
        kernel = mercury.create_kernel(image_pages=16)
        mercury.engine.max_retries = 64
        mercury.attach()
        guest = mercury.host_guest(image_pages=8)
        del guest
        watchdog = Watchdog(mercury, suspect_scans=2)
        start = machine.clock.cycles
        sched = SimScheduler(machine)
        out: dict = {}
        task = sched.spawn(_guarded_workload(
            kbuild_task(kernel, machine.cpus[1], files=files), out),
            name="kbuild", cpu=machine.cpus[1], kernel=kernel)
        if with_watchdog:
            watchdog.start(scan_interval)

            def _stopper() -> Generator:
                # a self-rescheduling scan timer would keep the scheduler's
                # clock queue alive forever; disarm it when the work ends
                yield Join(task)
                watchdog.stop()

            sched.spawn(_stopper(), name="watchdog-stop",
                        cpu=machine.boot_cpu)
        sched.run()
        watchdog.stop()
        assert out.get("result") is not None
        return machine.clock.cycles - start

    base = _run(False)
    watched = _run(True)
    overhead = (watched - base) / base if base else 0.0
    return {
        "baseline_cycles": base,
        "watched_cycles": watched,
        "overhead_pct": round(100.0 * overhead, 4),
    }
