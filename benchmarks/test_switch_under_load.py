"""§5.1.1 under load: "due to the fact that almost all execution in the
virtualization object is short (because it is non-blocking) or
synchronous, this problem [a busy refcount at switch time] rarely happens."

Under the simulation scheduler (:mod:`repro.sim`), kbuild and iperf run as
interleaved cooperative tasks while a storm task lands attach/detach
requests between and *inside* their slices.  Requests delivered at a
sensitive-code preempt point observe a nonzero VO refcount, arm the 10 ms
retry timer, and commit on a later delivery — so the latency distribution
is bimodal: tens of microseconds when quiescent, ≥ one retry period when
contended.  Results land in ``BENCH_perf.json`` under ``switch_under_load``.
"""

from __future__ import annotations

import statistics

from conftest import PERF, record
from repro.core.switch import RETRY_PERIOD_MS
from repro.bench.underload import run_switch_under_load

ROUNDS = 5


def _split_by_contention(result):
    """Latencies (µs) split at the retry-period floor: anything that ate a
    retry waited at least one full period."""
    floor_us = RETRY_PERIOD_MS * 1000
    lats = result.attach_latency_us + result.detach_latency_us
    contended = [x for x in lats if x >= floor_us]
    quick = [x for x in lats if x < floor_us]
    return contended, quick


def test_switch_under_load_scenario():
    result = run_switch_under_load(rounds=ROUNDS)

    contended, quick = _split_by_contention(result)
    total_retries = sum(result.per_switch_retries)

    print()
    print("Section 5.1.1 under load: attach/detach storm vs kbuild + iperf")
    print(f"  committed switches : {result.records}")
    print(f"  busy-at-delivery   : {result.busy_attempts} "
          f"(paper: 'this problem rarely happens')")
    print(f"  retries consumed   : {total_retries}, aborts: {result.aborts}")
    print(f"  contended commits  : {len(contended)}  "
          f"mean {statistics.mean(contended) / 1000:.2f} ms" if contended
          else "  contended commits  : 0")
    print(f"  quiescent commits  : {len(quick)}  "
          f"mean {statistics.mean(quick):.1f} µs")
    print(f"  kbuild             : {result.kbuild_elapsed_us / 1e6:.3f} s, "
          f"iperf: {result.iperf_mbit_s:.0f} Mbit/s")

    # every request eventually commits; the storm alternates directions
    assert result.records == 2 * ROUNDS
    assert result.aborts == 0
    # the load makes contention real, but — the §5.1.1 claim — rare:
    # VO occupancy is short, so most deliveries still find refcount 0
    assert result.busy_attempts >= 1
    assert result.busy_attempts <= result.records // 2
    # bimodal latency: retried commits wait out the period, quiescent
    # commits stay well under a millisecond (idle-grade, §7.4 territory)
    assert contended and quick
    assert min(contended) >= RETRY_PERIOD_MS * 1000
    assert max(quick) < 1000.0

    record(PERF, "switch_under_load", {
        "rounds": ROUNDS,
        "committed_switches": result.records,
        "busy_at_delivery": result.busy_attempts,
        "aborts": result.aborts,
        "retry_histogram": {str(k): v for k, v in
                            sorted(result.retry_histogram.items())},
        "attach_latency_us": result.attach_latency_us,
        "detach_latency_us": result.detach_latency_us,
        "contended_mean_ms": (round(statistics.mean(contended) / 1000, 3)
                              if contended else None),
        "quiescent_mean_us": round(statistics.mean(quick), 2),
        "retry_period_ms": RETRY_PERIOD_MS,
        "kbuild_elapsed_s": round(result.kbuild_elapsed_us / 1e6, 4),
        "iperf_mbit_s": round(result.iperf_mbit_s, 1),
    })


def test_switch_under_load_is_deterministic():
    """The whole scenario — workload slices, timer events, retries — is a
    pure function of its parameters: two runs, identical canonical bytes."""
    first = run_switch_under_load(rounds=ROUNDS)
    second = run_switch_under_load(rounds=ROUNDS)
    assert first.canonical_output() == second.canonical_output()
