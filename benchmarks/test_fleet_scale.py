"""Fleet stepping at scale: the §6.4 rolling live update across 1,000
machines, run serially.

Each barrier window advances only the machines that are due — a message
arrives, or their next work falls inside the window — so host time should
follow the simulated work, not machines × windows.  The bench counts
``FleetNode.advance`` calls by wrapping the method here, records a
``fleet_scale`` section in ``BENCH_perf.json`` and gates two numbers
against the committed section:

- advance calls may not rise (the count is deterministic; a rise means
  idle machines are being stepped again);
- host wall time may not exceed twice the committed time.
"""

from __future__ import annotations

from conftest import PERF, committed, record, timed
from repro.fleet import run_fleet
from repro.sim.shard import FleetNode

MACHINES = 1000
SEED = 2007  # ICPP'07

#: the wall-time gate, as a multiple of the committed time
MAX_WALL_RATIO = 2.0


def test_fleet_scale_steps_only_due_machines(monkeypatch):
    # read before this run overwrites it
    baseline = committed(PERF, "fleet_scale")

    calls = 0
    advance = FleetNode.advance

    def counted(node, horizon):
        nonlocal calls
        calls += 1
        return advance(node, horizon)

    monkeypatch.setattr(FleetNode, "advance", counted)
    result, wall_s = timed(
        lambda: run_fleet(machines=MACHINES, workers=1, seed=SEED,
                          scenario="liveupdate"))
    summary = result.summary()
    assert summary["completed"] == summary["requests"]
    assert summary["forced_dispatches"] == 0

    assert calls <= baseline["advance_calls"], (
        f"{calls} FleetNode.advance calls, committed "
        f"{baseline['advance_calls']}: machines with no due work are "
        f"being stepped")
    assert wall_s <= MAX_WALL_RATIO * baseline["wall_s"], (
        f"{MACHINES}-machine rolling update took {wall_s:.2f} s, over "
        f"{MAX_WALL_RATIO}x the committed {baseline['wall_s']} s")

    record(PERF, "fleet_scale", {
        "workload": f"run_fleet(machines={MACHINES}, scenario='liveupdate',"
                    f" seed={SEED}, workers=1)",
        "machines": MACHINES,
        "windows": summary["windows"],
        "requests": summary["requests"],
        "advance_calls": calls,
        "wall_s": round(wall_s, 3),
        "max_wall_ratio": MAX_WALL_RATIO,
    })
