"""Switch-under-load: attach/detach storms against live workloads.

The §7.4 idle-switch numbers measure the pipeline; this scenario measures
the *protocol*: kbuild and iperf run under the simulation scheduler while a
storm task lands attach/detach requests at awkward instants.  Requests that
arrive inside a sensitive-code window observe a nonzero VO refcount
(§5.1.1), arm the 10 ms backoff timer, and commit on a later delivery —
so contended switch latency is dominated by retry periods, not transfer
work, exactly as the paper's design predicts.

Everything here is deterministic: the same parameters produce bit-identical
traces and metrics (the ``sched-determinism`` CI job runs the scenario
twice and diffs :meth:`UnderLoadResult.canonical_output`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Generator, Iterable, TYPE_CHECKING

from repro import trace
from repro.bench.configs import build_config
from repro.core.switch import Direction
from repro.metrics import MetricsCollector
from repro.params import MachineConfig
from repro.sim import FleetNode, ShardedSim, Sleep, SleepUntil, WaitFor
from repro.sim.pool import DEFAULT_WINDOW_CYCLES, FleetResult
from repro.workloads.iperf import iperf_task
from repro.workloads.kbuild import kbuild_task

if TYPE_CHECKING:
    from repro.core.mercury import Mercury


@dataclass
class UnderLoadResult:
    """One storm run: contended latencies plus the engine's accounting."""

    rounds: int
    freq_mhz: int
    #: request-to-commit cycles per attach/detach, retries included
    attach_latency_cycles: list = field(default_factory=list)
    detach_latency_cycles: list = field(default_factory=list)
    busy_attempts: int = 0
    aborts: int = 0
    records: int = 0
    retry_histogram: dict = field(default_factory=dict)
    per_switch_retries: list = field(default_factory=list)
    kbuild_elapsed_us: float = 0.0
    iperf_mbit_s: float = 0.0
    final_cycles: int = 0
    canonical_trace: list = field(default_factory=list)
    #: raw trace events (not part of the canonical/determinism contract)
    trace_events: list = field(default_factory=list, repr=False)

    def _us(self, cycles: Iterable[int]) -> list:
        return [round(c / self.freq_mhz, 3) for c in cycles]

    @property
    def attach_latency_us(self) -> list:
        return self._us(self.attach_latency_cycles)

    @property
    def detach_latency_us(self) -> list:
        return self._us(self.detach_latency_cycles)

    def summary(self) -> dict:
        """JSON-able, cycle-exact summary (determinism-diff friendly)."""
        return {
            "rounds": self.rounds,
            "records": self.records,
            "busy_attempts": self.busy_attempts,
            "aborts": self.aborts,
            "retry_histogram": {str(k): v for k, v in
                                sorted(self.retry_histogram.items())},
            "per_switch_retries": self.per_switch_retries,
            "attach_latency_cycles": self.attach_latency_cycles,
            "detach_latency_cycles": self.detach_latency_cycles,
            "kbuild_elapsed_us": round(self.kbuild_elapsed_us, 3),
            "iperf_mbit_s": round(self.iperf_mbit_s, 3),
            "final_cycles": self.final_cycles,
        }

    def canonical_output(self) -> str:
        """The determinism contract: metrics + canonicalized trace, every
        byte a pure function of the scenario parameters."""
        return (json.dumps(self.summary(), indent=1, sort_keys=True)
                + "\n" + "\n".join(self.canonical_trace) + "\n")


def switch_storm_task(mercury: "Mercury", rounds: int,
                      gaps_cycles: list,
                      out: UnderLoadResult) -> Generator:
    """Alternate attach/detach requests separated by ``gaps_cycles``
    (cycled), recording request-to-commit latency for each."""
    engine = mercury.engine
    clock = mercury.machine.clock
    for r in range(rounds):
        for direction, lat in (
                (Direction.TO_VIRTUAL, out.attach_latency_cycles),
                (Direction.TO_NATIVE, out.detach_latency_cycles)):
            yield Sleep(gaps_cycles[(r + len(lat)) % len(gaps_cycles)])
            before = len(engine.records)
            t0 = clock.cycles
            engine.request_async(direction)
            yield WaitFor(lambda n=before: len(engine.records) > n,
                          desc=f"commit {direction.value}")
            lat.append(clock.cycles - t0)


# ---------------------------------------------------------------------------
# the storm machine: alone, or N of them under the sharded simulation
# ---------------------------------------------------------------------------

class UnderLoadNode(FleetNode):
    """One fleet machine running the under-load scenario, plus a
    drift-free heartbeat ring: machine ``i`` posts a beat to machine
    ``(i+1) % fleet`` on a fixed cycle grid (``SleepUntil`` keeps the
    cadence independent of how long kbuild slices run), so the fleet
    exercises real cross-shard traffic while every box storms its own
    switch engine.  With ``beats=0`` there is no heartbeat task: machine
    0 alone is :func:`run_switch_under_load`'s storm."""

    def __init__(self, index: int, seed: int, fleet_size: int = 3,
                 files: int = 3, iperf_bytes: int = 256 * 1024,
                 rounds: int = 2, num_cpus: int = 2,
                 mem_kb: int = 262_144, beats: int = 4,
                 beat_period: int = 3_000_000):
        config = dataclasses.replace(MachineConfig(),
                                     mem_kb=mem_kb).with_cpus(num_cpus)
        self.sut = build_config("M-N", config)
        super().__init__(index, self.sut.machine)
        self.fleet_size = fleet_size
        self.mercury = self.sut.mercury
        # the storm must outlast workload-induced busy windows, never abort
        self.mercury.engine.max_retries = 64
        self.heartbeats_seen = 0
        freq = self.machine.clock.freq_mhz
        # stagger each machine's storm gaps by index so shards genuinely
        # desynchronize (same work, different local timing)
        gaps_ms = (7.0 + index, 3.0 + index, 11.0, 5.0)
        gaps_cycles = [int(ms * 1000 * freq) for ms in gaps_ms]
        work_cpu = (self.machine.cpus[1] if num_cpus > 1
                    else self.machine.boot_cpu)
        self.load = UnderLoadResult(rounds=rounds, freq_mhz=freq)
        self._kbuild = self.spawn_traced(
            kbuild_task(self.sut.kernel, work_cpu, files=files),
            name="kbuild", cpu=work_cpu, kernel=self.sut.kernel)
        self._iperf = self.spawn_traced(
            iperf_task(self.sut.kernel, self.sut.peer_kernel, "tcp",
                       iperf_bytes),
            name="iperf", cpu=self.machine.boot_cpu, kernel=self.sut.kernel)
        self.spawn_traced(
            switch_storm_task(self.mercury, rounds, gaps_cycles, self.load),
            name="switch-storm", cpu=self.machine.boot_cpu)
        if beats:
            self.spawn_traced(self._heartbeat(beats, beat_period),
                              name="heartbeat", cpu=self.machine.boot_cpu)

    def _heartbeat(self, beats: int, period: int) -> Generator:
        for beat in range(1, beats + 1):
            yield SleepUntil(beat * period)
            self.post((self.index + 1) % self.fleet_size, "heartbeat",
                      payload=beat)

    def on_message(self, msg) -> None:
        super().on_message(msg)
        if msg.kind == "heartbeat":
            self.heartbeats_seen += 1

    def collector(self) -> MetricsCollector:
        return MetricsCollector(self.machine, kernel=self.sut.kernel,
                                mercury=self.mercury)

    def result(self) -> dict:
        engine = self.mercury.engine
        out = super().result()
        out.update({
            "records": len(engine.records),
            "busy_attempts": engine.failed_attempts,
            "aborts": engine.switch_aborts,
            "per_switch_retries": [r.retries for r in engine.records],
            "attach_latency_cycles": self.load.attach_latency_cycles,
            "detach_latency_cycles": self.load.detach_latency_cycles,
            "kbuild_elapsed_us": round(
                self._kbuild.result.elapsed_us, 3),
            "iperf_mbit_s": round(self._iperf.result.mbit_s, 3),
            "heartbeats_seen": self.heartbeats_seen,
        })
        return out


def run_switch_under_load(files: int = 10,
                          iperf_bytes: int = 1024 * 1024,
                          rounds: int = 5,
                          num_cpus: int = 2,
                          mem_kb: int = 262_144) -> UnderLoadResult:
    """Run kbuild + iperf under the simulation scheduler with a storm of
    ``rounds`` attach/detach cycles landing between/inside their slices:
    one :class:`UnderLoadNode` without a heartbeat, run to completion."""
    node = UnderLoadNode(0, 0, files=files, iperf_bytes=iperf_bytes,
                         rounds=rounds, num_cpus=num_cpus, mem_kb=mem_kb,
                         beats=0)
    with trace.tracing(node.tracer):
        node.sched.run()
    events = node.tracer.events()
    problems = trace.validate(events, dropped=node.tracer.dropped)
    if problems:
        raise AssertionError(f"malformed under-load trace: {problems[:3]}")

    engine = node.mercury.engine
    result = node.load
    result.busy_attempts = engine.failed_attempts
    result.aborts = engine.switch_aborts
    result.records = len(engine.records)
    result.retry_histogram = dict(engine.retry_histogram)
    result.per_switch_retries = [r.retries for r in engine.records]
    result.kbuild_elapsed_us = node._kbuild.result.elapsed_us
    result.iperf_mbit_s = node._iperf.result.mbit_s
    result.final_cycles = node.machine.clock.cycles
    result.canonical_trace = trace.canonical_lines(events)
    result.trace_events = events
    return result


def build_underload_node(index: int, seed: int,
                         **kwargs) -> UnderLoadNode:
    """Module-level builder for :class:`~repro.sim.pool.ShardedSim`
    (worker processes import it by reference)."""
    return UnderLoadNode(index, seed, **kwargs)


def run_fleet_under_load(machines: int = 3, workers: int = 1, *,
                         seed: int = 0, rounds: int = 2, files: int = 3,
                         iperf_bytes: int = 256 * 1024, beats: int = 4,
                         window_cycles: int = DEFAULT_WINDOW_CYCLES,
                         transport: str = None) -> FleetResult:
    """The sharded-simulation flagship scenario: ``machines`` under-load
    boxes in a heartbeat ring, partitioned across ``workers`` shards.
    ``FleetResult.canonical_output()`` is byte-identical at every worker
    count and transport."""
    sim = ShardedSim(
        build_underload_node, machines, seed=seed, workers=workers,
        window_cycles=window_cycles, transport=transport,
        builder_kwargs={"fleet_size": machines, "rounds": rounds,
                        "files": files, "iperf_bytes": iperf_bytes,
                        "beats": beats})
    return sim.run()
