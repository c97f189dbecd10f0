"""The benchmark's four workloads, driven only through public entry points.

Each workload function takes the seed, the workload size (``"full"`` for
measurements, ``"tiny"`` for smoke tests), a :class:`~spans.Recorder` or
None, and a ``mark`` callback.  It calls ``mark("setup")`` once set-up has
ended (after the imports and, on the fleets, after the nodes are built,
just before the first simulated window) and ``mark("done")`` when the
simulation has ended, before it checks and reduces the outputs.  It
returns an :class:`Outcome`, including the host time of each segment of
the run (fleet window, chaos episode, paper configuration): the
simulation is deterministic, so a segment does the same work in every
repeat of a seed, and the fastest repeat of each segment filters out the
host's bursts of contention (see ``run.py``).

Why these four: the fleets spend their host time in ``sim``, ``trace``
and ``fleet`` (sparse: most machines idle in most windows; dense: most
machines busy), while ``chaos`` and ``paper`` spend it in the modelled
stack (``hw``, ``guestos``, ``vmm``, ``core``).  Each likely optimisation
thus has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from spans import Recorder

#: workload -> size -> parameters
SIZES = {
    "fleet-sparse": {
        "full": dict(machines=150, scenario="liveupdate", arrival="poisson"),
        "tiny": dict(machines=20, scenario="liveupdate", arrival="poisson"),
    },
    "fleet-dense": {
        "full": dict(machines=12, guest_domains=2, scenario="maintenance",
                     arrival="pareto", requests=10_000),
        "tiny": dict(machines=4, guest_domains=2, scenario="maintenance",
                     arrival="pareto", requests=600),
    },
    "chaos": {
        "full": dict(episodes=500),
        "tiny": dict(episodes=12),
    },
    "paper": {
        "full": dict(cpus=(1, 2), app_scale=1.0),
        "tiny": dict(cpus=(1,), app_scale=0.25),
    },
}

DEFAULT_SEEDS = {"fleet-sparse": 2007, "fleet-dense": 2007, "chaos": 1234,
                 "paper": 0}

#: the paper's claims the M-* columns must meet: (mercury, counterpart, rel)
PAPER_CLAIMS = (("M-N", "N-L", 0.03), ("M-V", "X-0", 0.05),
                ("M-U", "X-U", 0.05))

#: the reference values the repository holds: Table 1 (µs, N-L / X-0) and
#: the §7.4 switch (µs, attach / detach under the paper's full recompute)
PAPER_TABLE1 = {
    "Fork Process": (98, 482), "Exec Process": (372, 1233),
    "Sh Process": (1203, 2977), "Ctx (2p/0k)": (1.64, 5.10),
    "Ctx (16p/16k)": (2.73, 6.76), "Ctx (16p/64k)": (10.30, 15.73),
    "Mmap LT": (3724, 10579), "Prot Fault": (0.61, 0.97),
    "Page Fault": (1.22, 3.09),
}
PAPER_SWITCH_US = (220.0, 60.0)

#: §7.4 protocol: an idle process population, round trips averaged
SWITCH_FORKS = 41
SWITCH_ROUND_TRIPS = 5
PAPER_MEM_KB = 262_144


@dataclass
class Outcome:
    """What one workload run produced."""

    #: units of work attempted (requests, episodes, table cells)
    ops: int
    #: of those, how many failed
    failed: int
    #: the workload's canonical output; its sha256 must not vary
    canonical: str
    #: simulated results (deterministic for a seed), by metric name
    sim: dict
    #: output checks that failed, as readable lines
    problems: list = field(default_factory=list)
    #: traced runs only: per-layer values the workload knows best
    layer: dict = field(default_factory=dict)
    #: traced runs only: counter snapshots to merge into per-layer counts
    snapshots: list = field(default_factory=list)
    #: host seconds of each segment of the run, in order
    segments: list = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.canonical.encode()).hexdigest()


def _freq_mhz() -> int:
    from repro.params import MachineConfig
    return MachineConfig().cost.freq_mhz


def _us(cycles: Optional[int], freq: int) -> float:
    return (cycles or 0) / freq


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


# ---------------------------------------------------------------------------
# fleets
# ---------------------------------------------------------------------------

def run_fleet_workload(name: str, seed: int, size: str,
                       rec: Optional[Recorder],
                       mark: Callable[[str], None]) -> Outcome:
    from repro.core.invariants import check_all
    from repro.fleet import orchestrator
    from repro.fleet.node import FrontendNode, ServiceNode
    from repro.fleet.traffic import OpenLoopTraffic, TrafficSpec
    from repro.sim.shard import Shard

    params = SIZES[name][size]
    orch = orchestrator.FleetOrchestrator(
        seed=seed, workers=1, log_requests=rec is not None, **params)
    kw = orch.builder_kwargs
    # every run times its windows and keeps its nodes: both hooks cost a
    # few microseconds per window or machine
    probe = Recorder()

    def window(args):
        if not probe.counts["windows"]:
            mark("setup")
        probe.counts["windows"] += 1

    probe.wrap(Shard, "step", "sim", window)
    probe.wrap(orchestrator, "build_fleet_node", "fleet",
               lambda args: probe.captured["nodes"].append)
    result = orch.run()
    probe.restore()
    mark("done")

    freq = _freq_mhz()
    front = result.frontend
    # only the traced run logs requests; the canonical output leaves it out
    request_log = front.pop("request_log", None)
    servers = {i: r for i, r in result.fleet.node_results.items() if i != 0}
    hist = orchestrator.fleet_latency_histogram(result)
    nodes = probe.captured["nodes"]
    service = [n for n in nodes if isinstance(n, ServiceNode)]
    frontend = next(n for n in nodes if isinstance(n, FrontendNode))
    problems = [f"m{node.index}: {violation}" for node in service
                for violation in check_all(node.mercury)]
    if not (front["requests"] == front["dispatched"] == front["completed"]):
        problems.append(f"requests {front['requests']} dispatched "
                        f"{front['dispatched']} completed {front['completed']}")
    if front["in_flight_residual"]:
        problems.append(f"{front['in_flight_residual']} requests in flight")
    queued = sum(r["queued_residual"] for r in servers.values())
    if queued:
        problems.append(f"{queued} requests left queued")
    if kw["scenario"] == "liveupdate":
        if front["updated_machines"] != sorted(servers):
            problems.append(f"{len(front['updated_machines'])} of "
                            f"{len(servers)} machines updated")
    else:
        flagged = min(kw["maintain_count"], kw["machines"] - 1)
        if len(front["maintained_machines"]) != flagged:
            problems.append(f"{len(front['maintained_machines'])} of "
                            f"{flagged} flagged machines maintained")

    sim = {
        "req_p50_us": _us(hist.percentile(0.50), freq),
        "req_p99_us": _us(hist.percentile(0.99), freq),
        "req_p999_us": _us(hist.percentile(0.999), freq),
        "wave_p99_us": _us(result.percentiles["wave"]["p99_cycles"], freq),
        "wave_ms": (front["wave_end_cycle"] - front["wave_start_cycle"])
        / freq / 1000.0,
        "req_samples": hist.count,
        "wave_samples": result.percentiles["wave"]["count"],
    }
    updates = frontend.update_records
    if updates:  # the rolling update's switches, one per machine
        sim["attach_us"] = statistics.fmean(u[1] for u in updates)
        sim["detach_us"] = statistics.fmean(u[2] for u in updates)
    outcome = Outcome(ops=front["requests"],
                      failed=front["requests"] - front["completed"],
                      canonical=result.canonical_output(), sim=sim,
                      problems=problems,
                      segments=probe.durations("sim:Shard.step"))

    if rec is not None:
        # open-loop lateness: each dispatch against the cycle it was due
        due = OpenLoopTraffic(
            TrafficSpec(kind=kw["arrival"],
                        mean_gap_cycles=kw["mean_gap_cycles"],
                        mean_service_cycles=kw["mean_service_cycles"]),
            seed).schedule(kw["requests"], start_cycle=orch.window_cycles)
        late = [cycle - due[req_id][0]
                for req_id, _, cycle, _ in request_log]
        if min(late) < 0 or max(late) > 0:
            problems.append(f"generator lateness {min(late)}..{max(late)} "
                            f"cycles; latency from dispatch != from due time")
        served = [r["served"] for r in servers.values()]
        guests = [g for n in service for g in n.guests]
        outcome.layer = {
            "sim.windows": result.fleet.windows,
            "sim.messages": result.fleet.messages,
            "sim.sched_steps": sum(n.sched.steps for n in nodes),
            "fleet.forced_dispatch_frac":
                front["forced_dispatches"] / front["requests"],
            "fleet.served_imbalance": max(served) / statistics.fmean(served),
            "fleet.gen_late_max_us": max(late) / freq,
            "fleet.gen_late_p99_us": _quantile(late, 0.99) / freq,
            "vmm.pages_reclaimed": sum(n.elastic.pages_reclaimed
                                       for n in service if n.elastic),
            "vmm.victim_faults": sum(g.vmem.minor_faults for g in guests),
            "vmm.floor_skips": sum(n.floor_skips for n in service),
        }
        outcome.snapshots = [result.fleet.metrics]
    return outcome


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------

def run_chaos_workload(name: str, seed: int, size: str,
                       rec: Optional[Recorder],
                       mark: Callable[[str], None]) -> Outcome:
    from repro.bench import chaoscampaign

    episodes = Recorder()
    episodes.wrap(chaoscampaign, "run_episode", "bench")
    mark("setup")
    campaign = chaoscampaign.run_chaos_campaign(seed=seed, workers=1,
                                                **SIZES[name][size])
    episodes.restore()
    mark("done")
    summary = campaign.summary()
    freq = campaign.freq_mhz
    failures = [e for e in campaign.results if not e.success]
    problems = [f"episode {e.index} ({e.site}) did not recover: "
                f"{e.row()}" for e in failures[:5]]
    detect = [e.detect_latency_cycles for e in campaign.results
              if e.detect_latency_cycles >= 0]
    sim = {
        "mttr_p50_us": _us(summary["mttr_p50_cycles"], freq),
        "mttr_p99_us": _us(summary["mttr_p99_cycles"], freq),
        "mttr_samples": len(campaign.mttr_samples),
        "detect_p50_us": _us(_quantile(detect, 0.50), freq) if detect else 0.0,
        "detect_p99_us": _us(_quantile(detect, 0.99), freq) if detect else 0.0,
        "detect_samples": len(detect),
    }
    outcome = Outcome(ops=len(campaign.results), failed=len(failures),
                      canonical=campaign.canonical_output(), sim=sim,
                      problems=problems,
                      segments=episodes.durations("bench:run_episode"))
    if rec is not None:
        outcome.layer = {"watchdog.detect_p50_us": sim["detect_p50_us"],
                         "watchdog.detect_p99_us": sim["detect_p99_us"]}
        outcome.snapshots = rec.captured.pop("snapshots", [])
    return outcome


# ---------------------------------------------------------------------------
# paper
# ---------------------------------------------------------------------------

def _switch_stack(config, incremental: bool):
    """The §7.4 machine: a 384-page image and an idle process population."""
    from repro import Machine, Mercury

    machine = Machine(config.with_cpus(1))
    mercury = Mercury(machine, incremental_attach=incremental)
    kernel = mercury.create_kernel(image_pages=384)
    for _ in range(SWITCH_FORKS):
        kernel.syscall(machine.boot_cpu, "fork")
    return mercury


def _round_trips(mercury) -> tuple[float, float]:
    from repro.core.switch import Direction

    for _ in range(SWITCH_ROUND_TRIPS):
        mercury.attach()
        mercury.detach()
    return (mercury.mean_switch_us(Direction.TO_VIRTUAL),
            mercury.mean_switch_us(Direction.TO_NATIVE))


def switch_phases_us(config) -> dict:
    """Mean simulated µs of the main switch phases, per direction, over the
    §7.4 round trips under the default protocol (one tracer per
    direction)."""
    from repro import trace

    mercury = _switch_stack(config, incremental=True)
    tracers = {"attach": trace.Tracer(mercury.machine.clock),
               "detach": trace.Tracer(mercury.machine.clock)}
    for _ in range(SWITCH_ROUND_TRIPS):
        with trace.tracing(tracers["attach"]):
            mercury.attach()
        with trace.tracing(tracers["detach"]):
            mercury.detach()
    freq = mercury.machine.config.cost.freq_mhz
    out = {}
    for direction, tracer in tracers.items():
        stats = trace.phase_summary(tracer.events(), names=trace.SWITCH_PHASES)
        for phase in ("switch.commit", "transfer.page-tables", "reload.cp"):
            stat = stats.get(phase)
            out[f"core.{direction}.{phase}_us"] = (
                stat.mean_cycles / freq if stat else 0.0)
    return out


def paper_cells(tables: dict) -> tuple[int, list]:
    """(cells, broken): every table cell counts; an M-* cell further than
    the claimed share from its counterpart breaks a claim."""
    cells = 0
    broken = []
    for table_name, table in tables.items():
        for row, per_config in table.items():
            cells += len(per_config)
            for mine, theirs, rel in PAPER_CLAIMS:
                a, b = per_config[mine], per_config[theirs]
                if abs(a - b) > rel * abs(b):
                    broken.append(f"{table_name} {row}: {mine} {a:.4g} "
                                  f"vs {theirs} {b:.4g} (>{rel:.0%})")
    return cells, broken


def paper_error_pct(table1: dict, switch_paper_us: tuple) -> tuple:
    """(mean, max) of |sim - paper| / paper over the reference values."""
    errors = []
    for row, refs in PAPER_TABLE1.items():
        for key, ref in zip(("N-L", "X-0"), refs):
            errors.append(abs(table1[row][key] - ref) / ref)
    for sim_us, ref in zip(switch_paper_us, PAPER_SWITCH_US):
        errors.append(abs(sim_us - ref) / ref)
    return 100.0 * statistics.fmean(errors), 100.0 * max(errors)


def run_paper_workload(name: str, seed: int, size: str,
                       rec: Optional[Recorder],
                       mark: Callable[[str], None]) -> Outcome:
    from repro.bench.configs import CONFIG_KEYS
    from repro.bench.runner import run_app_suite, run_lmbench_suite
    from repro.metrics import MetricsCollector
    from repro.params import MachineConfig

    params = SIZES[name][size]
    config = dataclasses.replace(MachineConfig(), mem_kb=PAPER_MEM_KB)
    suites = {"lmbench": lambda cpus, key: run_lmbench_suite(
                  num_cpus=cpus, config=config, keys=(key,)),
              "apps": lambda cpus, key: run_app_suite(
                  num_cpus=cpus, config=config, keys=(key,),
                  scale=params["app_scale"])}
    segments = []
    clock = time.perf_counter
    mark("setup")
    tables: dict = {}
    for suite, run_suite in suites.items():
        for cpus in params["cpus"]:
            table = tables.setdefault(f"{suite}-{cpus}cpu", {})
            for key in CONFIG_KEYS:  # one segment per configuration
                t0 = clock()
                for row, cell in run_suite(cpus, key).items():
                    table.setdefault(row, {}).update(cell)
                segments.append(clock() - t0)
    stacks, switch = {}, {}
    for key, incremental in (("default", True), ("paper", False)):
        t0 = clock()
        stacks[key] = _switch_stack(config, incremental)
        switch[key] = _round_trips(stacks[key])
        segments.append(clock() - t0)
    mark("done")

    cells, broken = paper_cells(tables)
    problems = list(broken)
    attach_paper, detach_paper = switch["paper"]
    if not (80 < attach_paper < 500 and 20 < detach_paper < 150
            and attach_paper > 2 * detach_paper):
        problems.append(f"§7.4 switch {attach_paper:.1f}/{detach_paper:.1f} "
                        f"µs outside the paper's band")
    err_mean, err_max = paper_error_pct(tables["lmbench-1cpu"],
                                        switch["paper"])
    sim = {
        "paper_err_pct": err_mean,
        "paper_err_max_pct": err_max,
        "paper_err_samples": len(PAPER_TABLE1) * 2 + len(PAPER_SWITCH_US),
        "attach_us": switch["default"][0],
        "detach_us": switch["default"][1],
        "attach_paper_us": attach_paper,
        "detach_paper_us": detach_paper,
    }
    canonical = json.dumps({"tables": tables, "switch": switch},
                           indent=1, sort_keys=True) + "\n"
    outcome = Outcome(ops=cells, failed=len(broken), canonical=canonical,
                      sim=sim, problems=problems, segments=segments)
    if rec is not None:  # the wrappers are gone since mark("done")
        outcome.snapshots = [MetricsCollector(
            s.machine, kernel=s.kernel, vmm=s.vmm, mercury=s.mercury
        ).snapshot() for s in rec.captured.pop("suts", [])]
        outcome.snapshots += [MetricsCollector(
            m.machine, kernel=m.kernel, mercury=m).snapshot()
            for m in stacks.values()]
        outcome.layer = switch_phases_us(config)
    return outcome


RUNNERS = {
    "fleet-sparse": run_fleet_workload,
    "fleet-dense": run_fleet_workload,
    "chaos": run_chaos_workload,
    "paper": run_paper_workload,
}
