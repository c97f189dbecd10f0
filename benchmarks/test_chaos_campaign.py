"""Chaos-campaign bench: MTTR distribution and recovery success rate.

The deterministic (seeded) dependability headline for ROADMAP item 4: a
200-episode campaign of in-attached-mode VMM faults — random site, victim
variant, trigger cycle, workload, and topology per episode — each of which
must be detected by the VMI watchdog and survived by a ReHype-style
microreboot with the guest still answering syscalls.  Results (MTTR
p50/p99, success and detection rates, per-site breakdown, watchdog
steady-state overhead) land in ``BENCH_recovery.json``.
"""

from __future__ import annotations

from conftest import RECOVERY, record
from repro.bench.chaoscampaign import (CAMPAIGN_SITES,
                                       measure_watchdog_overhead,
                                       run_chaos_campaign)

EPISODES = 200
SEED = 1234

#: acceptance gates (ISSUE: ≥ 99% recovery success, ≤ 2% scan overhead)
MIN_SUCCESS_RATE = 0.99
MAX_OVERHEAD_PCT = 2.0


def test_chaos_campaign_and_record():
    result = run_chaos_campaign(episodes=EPISODES, seed=SEED)

    assert len(result.results) == EPISODES
    # every episode injected its fault (the campaign only draws live sites)
    assert all(e.injected for e in result.results)

    # the headline gates
    assert result.success_rate >= MIN_SUCCESS_RATE, (
        f"recovery success {result.success_rate:.4f} below the "
        f"{MIN_SUCCESS_RATE:.0%} gate: "
        f"{[e.row() for e in result.results if not e.success][:3]}")
    assert result.detection_rate >= MIN_SUCCESS_RATE

    # MTTR is measured, bounded, and spread enough that p50/p99 both mean
    # something (sub-ms to a few ms at 3 GHz — paper-scale microreboots)
    p50, p99 = result.mttr_percentile(50), result.mttr_percentile(99)
    assert p50 is not None and p99 is not None
    assert 0 < p50 <= p99
    assert p99 / result.freq_mhz < 50_000, "MTTR p99 above 50 ms"

    # coverage: the seeded draw reached every registered site
    per_site = result.per_site()
    assert set(per_site) == set(CAMPAIGN_SITES)
    for site, row in per_site.items():
        assert row["successes"] == row["episodes"], site

    # nothing degraded silently: recovered episodes end invariant-clean
    # with the guest alive
    for e in result.results:
        assert e.invariant_failures == 0
        assert e.guest_alive

    overhead = measure_watchdog_overhead()
    assert overhead["overhead_pct"] <= MAX_OVERHEAD_PCT, (
        f"watchdog steady-state overhead {overhead['overhead_pct']:.3f}% "
        f"above the {MAX_OVERHEAD_PCT}% gate")

    record(RECOVERY, "chaos_campaign", {
        "campaign": result.summary(),
        "watchdog_overhead": overhead,
        "gates": {"min_success_rate": MIN_SUCCESS_RATE,
                  "max_overhead_pct": MAX_OVERHEAD_PCT},
    })


def test_campaign_is_deterministic():
    """Two same-seed campaigns are byte-identical — the property the CI
    chaos-recovery job re-checks through the CLI."""
    a = run_chaos_campaign(episodes=6, seed=SEED)
    b = run_chaos_campaign(episodes=6, seed=SEED)
    assert a.canonical_output() == b.canonical_output()
