"""The tentpole property: ``sharded(seed, workers=k) == single(seed)``.

Hypothesis drives randomized fleets (size, seed, traffic shape) through
the inline transport at k ∈ {1, 2, 4} and requires byte-identical
canonical output, traces, and merged metrics.  The process transport
(real spawned workers) is checked on the service fleet
(``tests/fleet/test_fleet_ops.py::test_process_transport_matches_inline``);
the episode benches' worker fan-out is checked here.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.sim import FleetNode, ShardedSim, Sleep, SleepUntil

WINDOW = 200_000


class TrafficNode(FleetNode):
    """Seeded random-but-deterministic workload: every node computes,
    sleeps, and posts to pseudo-random peers at pseudo-random latencies
    >= the window — all drawn from ``Random(f"{seed}:{index}")``, so the
    node is a pure function of its parameters."""

    def __init__(self, index, seed, fleet_size=2, rounds=2, **kwargs):
        super().__init__(index, Machine(MachineConfig(num_cpus=1,
                                                      mem_kb=1024)))
        self.fleet_size = fleet_size
        self.payloads = []
        rng = random.Random(f"traffic:{seed}:{index}")
        self.spawn_traced(self._task(rng, rounds), name=f"traffic{index}")

    def _task(self, rng, rounds):
        for r in range(rounds):
            yield Sleep(rng.randrange(1_000, 3 * WINDOW))
            dst = rng.randrange(self.fleet_size)
            if dst != self.index:
                self.post(dst, "data", payload=(self.index, r),
                          latency_cycles=WINDOW + rng.randrange(WINDOW))
            if rng.random() < 0.5:
                grid = (self.machine.clock.cycles // WINDOW + 2) * WINDOW
                yield SleepUntil(grid + rng.randrange(500))

    def on_message(self, msg):
        super().on_message(msg)
        self.payloads.append(msg.payload)

    def result(self):
        out = super().result()
        out["payloads"] = self.payloads
        return out


def _build_traffic(index, seed, **kwargs):
    return TrafficNode(index, seed, **kwargs)


def _run(machines, seed, rounds, workers):
    sim = ShardedSim(_build_traffic, machines, seed=seed, workers=workers,
                     transport="inline", window_cycles=WINDOW,
                     builder_kwargs={"fleet_size": machines,
                                     "rounds": rounds})
    return sim.run()


@settings(max_examples=10, deadline=None)
@given(machines=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31),
       rounds=st.integers(min_value=1, max_value=3))
def test_sharded_equals_single_property(machines, seed, rounds):
    """For every fleet shape: k-sharded output ≡ serial output, byte for
    byte — canonical output, merged trace, and merged metrics."""
    base = _run(machines, seed, rounds, workers=1)
    base_bytes = base.canonical_output()
    for k in (2, 4):
        sharded = _run(machines, seed, rounds, workers=k)
        assert sharded.canonical_output() == base_bytes
        assert sharded.canonical == base.canonical
        assert sharded.metrics == base.metrics
        assert sharded.windows == base.windows
        assert sharded.messages == base.messages


def test_every_posted_payload_arrives_exactly_once():
    res = _run(4, seed=99, rounds=3, workers=2)
    sent = sum(r["messages_sent"] for r in res.node_results.values())
    got = sum(len(r["payloads"]) for r in res.node_results.values())
    assert sent == got == res.messages


# ---------------------------------------------------------------------------
# worker fan-out of the episode benches
# ---------------------------------------------------------------------------

def test_chaos_campaign_worker_invariance():
    from repro.bench.chaoscampaign import run_chaos_campaign

    serial = run_chaos_campaign(episodes=4, seed=31)
    fanned = run_chaos_campaign(episodes=4, seed=31, workers=2)
    assert fanned.canonical_output() == serial.canonical_output()


def test_fault_sweep_worker_invariance():
    from repro.bench.faultsweep import run_fault_sweep

    serial = run_fault_sweep(rates=(0.0, 0.25), rounds=6, seed=5)
    fanned = run_fault_sweep(rates=(0.0, 0.25), rounds=6, seed=5,
                             workers=2)
    assert fanned == serial


def test_crash_matrix_worker_invariance():
    from repro.bench.crashmatrix import (canonical_matrix_output,
                                         run_crash_matrix)

    serial = run_crash_matrix(workers=1)
    fanned = run_crash_matrix(workers=2)
    assert canonical_matrix_output(fanned) == canonical_matrix_output(serial)
    assert all(c.ok for c in serial if not c.skipped)
