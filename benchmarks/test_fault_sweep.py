"""Fault-rate sweep bench: abort/rollback behaviour vs. fault probability.

Deterministic (seeded) companion to ``BENCH_perf.json``: records how the
transactional switch engine degrades as faults get more likely — commits
fall, aborts rise, retries are consumed — while the invariant suite stays
green at every point.  Results land in the ``fault_sweep`` section of
``BENCH_faults.json``.
"""

from __future__ import annotations

from conftest import FAULTS, record
from repro.bench.faultsweep import DEFAULT_RATES, run_fault_sweep, sweep_as_rows


def test_fault_sweep_and_record():
    points = run_fault_sweep(rates=DEFAULT_RATES, rounds=24, seed=1234)

    by_rate = {p.fault_rate: p for p in points}
    baseline = by_rate[0.0]
    # fault-free: every attempt commits, nothing rolls back or aborts
    assert baseline.commits == baseline.switch_attempts
    assert baseline.aborts == 0
    assert baseline.rollbacks == 0
    assert baseline.faults_injected == 0

    for p in points:
        # no attempt vanishes: it either commits or terminally aborts
        assert p.commits + p.aborts == p.switch_attempts
        # dependability is unconditional: invariants hold at every rate
        assert p.invariant_violations == 0
        if p.fault_rate > 0:
            assert p.faults_injected > 0
            # injected faults are survived by rolling back, not by luck
            assert p.rollbacks > 0

    # more faults never mean more commits
    rates = sorted(by_rate)
    for lo, hi in zip(rates, rates[1:]):
        assert by_rate[hi].commits <= by_rate[lo].commits + 2, (
            "commit count should degrade (roughly) monotonically with rate")

    record(FAULTS, "fault_sweep", {"rows": sweep_as_rows(points)})
