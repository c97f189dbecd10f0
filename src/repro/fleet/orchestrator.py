"""Fleet orchestration: the paper's §6 scenarios as fleet operations.

:class:`FleetOrchestrator` wires the open-loop traffic generator, the
load balancer, and the per-machine Mercury scenario mechanics into one
:class:`~repro.sim.pool.ShardedSim` run: machine 0 is the
:class:`~repro.fleet.node.FrontendNode`, machines 1..N are
:class:`~repro.fleet.node.ServiceNode`\\ s, and the whole fleet advances
under conservative time-window barriers so ``workers=k`` output is
byte-identical to ``workers=1``.

Scenarios (all run *under live open-loop traffic*, which is the point —
the paper's §6 numbers are per-machine; here they become fleet
operations whose cost shows up in the request tail):

- ``liveupdate`` — §6.4 rolling live kernel update: every serving
  machine, one at a time, drains, transiently attaches the VMM, applies
  a :class:`~repro.scenarios.liveupdate.KernelPatch`, detaches, rejoins.
- ``maintenance`` — §6.3 predictive maintenance: failure-predicted
  machines full-virtualize, migrate their execution environment to a
  healthy peer, get serviced, migrate back, detach.
- ``cluster`` — §6.5 cluster availability: predicted-failure machines
  evacuate one-way to promoted spares while chaos VMM faults strike
  other machines mid-wave and are detected/recovered in place.

The :class:`FleetOpResult` wraps the pool's
:class:`~repro.sim.pool.FleetResult` with the frontend's percentile
report and a scenario-level summary; ``canonical_output()`` stays the
byte-identity surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fleet.balancer import POLICIES
from repro.fleet.latency import LatencyHistogram
from repro.fleet.node import FrontendNode, ServiceNode
from repro.fleet.traffic import ARRIVALS
from repro.sim import DEFAULT_WINDOW_CYCLES, FleetResult, ShardedSim
from repro.vmm.elastic import STRATEGIES as ELASTIC_STRATEGIES

SCENARIOS = ("liveupdate", "maintenance", "cluster")


def build_fleet_node(index: int, seed: int, **kwargs):
    """Module-level node builder (worker processes import it by name):
    machine 0 is the frontend, the rest serve."""
    if index == 0:
        return FrontendNode(index, seed, **kwargs)
    return ServiceNode(index, seed, **kwargs)


@dataclass
class FleetOpResult:
    """One fleet operation, reported."""

    scenario: str
    machines: int
    workers: int
    seed: int
    fleet: FleetResult
    #: the frontend's ``result()`` dict (requests, percentiles, wave log)
    frontend: dict = field(default_factory=dict)

    def canonical_output(self) -> str:
        return self.fleet.canonical_output()

    @property
    def percentiles(self) -> dict:
        return self.frontend["percentiles"]

    def summary(self) -> dict:
        """The numbers the bench harness and CLI print."""
        served = sum(r.get("served", 0)
                     for i, r in self.fleet.node_results.items() if i != 0)
        servers = [r for i, r in self.fleet.node_results.items() if i != 0]
        guest_extra = {}
        if any(r.get("guest_domains") for r in servers):
            guest_extra = {
                "guest_domains": sum(r.get("guest_domains", 0)
                                     for r in servers),
                "guest_served": sum(sum(r.get("guest_served", {}).values())
                                    for r in servers),
                "floor_skips": sum(r.get("floor_skips", 0)
                                   for r in servers),
            }
        return {
            **guest_extra,
            "scenario": self.scenario,
            "machines": self.machines,
            "workers": self.workers,
            "seed": self.seed,
            "windows": self.fleet.windows,
            "messages": self.fleet.messages,
            "requests": self.frontend["requests"],
            "dispatched": self.frontend["dispatched"],
            "completed": self.frontend["completed"],
            "served": served,
            "forced_dispatches": self.frontend["forced_dispatches"],
            "wave_cycles": (self.frontend["wave_end_cycle"]
                            - self.frontend["wave_start_cycle"]),
            "percentiles": self.percentiles,
        }


class FleetOrchestrator:
    """Configure and run one §6 scenario over an open-loop fleet."""

    def __init__(self, *, machines: int = 100, workers: int = 1,
                 seed: int = 0, scenario: str = "liveupdate",
                 policy: str = "switch-aware",
                 arrival: str = "poisson",
                 requests: Optional[int] = None,
                 mean_gap_cycles: int = 45_000,
                 mean_service_cycles: int = 300_000,
                 spares: Optional[int] = None,
                 evacuations: int = 2,
                 chaos_events: int = 2,
                 maintain_count: int = 3,
                 guest_domains: int = 0,
                 guest_mem_pages: int = 48,
                 guest_mem_floor: int = 16,
                 elastic_strategy: str = "guest-delegated",
                 transport: Optional[str] = None,
                 log_requests: bool = False):
        if elastic_strategy not in ELASTIC_STRATEGIES:
            raise ValueError(f"unknown elastic strategy {elastic_strategy!r};"
                             f" expected one of {ELASTIC_STRATEGIES}")
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r}; "
                             f"expected one of {SCENARIOS}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; "
                             f"expected one of {POLICIES}")
        if arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival {arrival!r}; "
                             f"expected one of {ARRIVALS}")
        if machines < 2:
            raise ValueError("a fleet needs at least two service machines")
        self.machines = machines
        self.workers = workers
        self.seed = seed
        self.scenario = scenario
        self.transport = transport
        self.window_cycles = DEFAULT_WINDOW_CYCLES
        if requests is None:
            # enough load that every machine sees the wave from steady
            # state: ~8 requests per machine per phase
            requests = max(200, machines * 24)
        if spares is None:
            spares = evacuations if scenario == "cluster" else 0
        self.builder_kwargs = {
            "machines": machines,
            "scenario": scenario,
            "policy": policy,
            "arrival": arrival,
            "requests": requests,
            "mean_gap_cycles": mean_gap_cycles,
            "mean_service_cycles": mean_service_cycles,
            "spares": spares,
            "evacuations": evacuations,
            "chaos_events": chaos_events,
            "maintain_count": maintain_count,
            "guest_domains": guest_domains,
            "guest_mem_pages": guest_mem_pages,
            "guest_mem_floor": guest_mem_floor,
            "elastic_strategy": elastic_strategy,
            "log_requests": log_requests,
        }

    def run(self) -> FleetOpResult:
        sim = ShardedSim(build_fleet_node,
                         num_machines=self.machines + 1,  # + frontend
                         seed=self.seed, workers=self.workers,
                         window_cycles=self.window_cycles,
                         transport=self.transport,
                         builder_kwargs=self.builder_kwargs)
        fleet = sim.run()
        return FleetOpResult(scenario=self.scenario, machines=self.machines,
                             workers=self.workers, seed=self.seed,
                             fleet=fleet,
                             frontend=fleet.node_results[0])


def run_fleet(**kwargs) -> FleetOpResult:
    """One-call convenience wrapper (the CLI and benches use it)."""
    return FleetOrchestrator(**kwargs).run()


def degradation_ratio(percentiles: dict) -> Optional[float]:
    """How much worse the wave phase's p99 is than steady state's (None
    when either phase has no samples).  The fleet bench gates this at 5x
    for the rolling update."""
    steady = percentiles["steady"].get("p99_cycles")
    wave = percentiles["wave"].get("p99_cycles")
    if not steady or not wave:
        return None
    return wave / steady


def fleet_latency_histogram(result: FleetOpResult) -> LatencyHistogram:
    """Rebuild the fleet-wide histogram from the merged metrics snapshot
    (exercises the ``MetricsSnapshot.merge`` carry path)."""
    return LatencyHistogram.from_counts(result.fleet.metrics.latency_histogram)
