"""Fleet-scale tail-latency bench: the §6.4 rolling live update as a
100-machine fleet operation under open-loop traffic.

Records a ``fleet`` section in ``BENCH_perf.json`` with the p50/p99
request latency during the rolling wave vs. steady state, and gates the
paper's headline fleet claim: with switch-aware draining in front of a
0.2 ms mode switch, rolling a live kernel update across the whole fleet
degrades p99 tail latency by at most 5x (in practice it barely moves).

Also re-checks the determinism contract at benchmark scale: the 4-worker
run's canonical output is byte-identical to the serial run.
"""

from __future__ import annotations

from conftest import PERF, record, timed
from repro.fleet import degradation_ratio, run_fleet

MACHINES = 100
SEED = 2007  # ICPP'07

#: the gate: wave-phase p99 must stay within 5x of steady-state p99
MAX_P99_DEGRADATION = 5.0


def test_rolling_update_tail_latency_and_worker_invariance():
    serial, serial_wall = timed(
        lambda: run_fleet(machines=MACHINES, workers=1, seed=SEED,
                          scenario="liveupdate"))

    summary = serial.summary()
    pct = summary["percentiles"]
    assert summary["completed"] == summary["requests"]
    assert summary["forced_dispatches"] == 0
    for phase in ("steady", "wave", "after"):
        assert pct[phase]["count"] > 0, (
            f"no requests completed in the {phase} phase; the bench is "
            f"not measuring what it claims")

    ratio = degradation_ratio(pct)
    assert ratio is not None
    assert ratio <= MAX_P99_DEGRADATION, (
        f"rolling the update degraded p99 by {ratio:.2f}x "
        f"(steady {pct['steady']['p99_us']}us -> wave "
        f"{pct['wave']['p99_us']}us); the switch-aware drain is not "
        f"holding the tail")

    # worker invariance at bench scale: 4 shards, byte-identical
    fanned, fanned_wall = timed(
        lambda: run_fleet(machines=MACHINES, workers=4, seed=SEED,
                          scenario="liveupdate"))
    assert fanned.canonical_output() == serial.canonical_output()

    record(PERF, "fleet", {
        "workload": f"run_fleet(machines={MACHINES}, scenario='liveupdate',"
                    f" seed={SEED}): open-loop poisson traffic through a "
                    f"switch-aware balancer while every machine drains, "
                    f"live-patches its kernel under a transient VMM, and "
                    f"rejoins",
        "machines": MACHINES,
        "requests": summary["requests"],
        "steady": {"p50_us": pct["steady"]["p50_us"],
                   "p99_us": pct["steady"]["p99_us"],
                   "count": pct["steady"]["count"]},
        "wave": {"p50_us": pct["wave"]["p50_us"],
                 "p99_us": pct["wave"]["p99_us"],
                 "count": pct["wave"]["count"]},
        "after": {"p50_us": pct["after"]["p50_us"],
                  "p99_us": pct["after"]["p99_us"],
                  "count": pct["after"]["count"]},
        "p99_degradation": round(ratio, 3),
        "p99_degradation_gate": MAX_P99_DEGRADATION,
        "workers4_byte_identical": True,
        "wall_s": {"workers1": round(serial_wall, 3),
                   "workers4": round(fanned_wall, 3)},
    })
