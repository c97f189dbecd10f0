"""Parallel-episode speedup bench: wall-clock vs. worker count.

Times the three episode-shaped benches — chaos campaign, crash matrix,
fault sweep — serially and fanned across ``min(4, cpu_count)`` worker
processes, asserts the fan-out changes no result, and records the
measured speedups in the ``sharding`` section of ``BENCH_perf.json``.

Gate policy, kept honest about physics:

- The ≥ 2.5× gate is enforced on the **chaos campaign**, the one bench
  whose serial wall-clock (seconds) dominates the ~0.5 s spawn cost of a
  process pool.  The gated campaign is sized (``GATE_EPISODES``) so the
  parallel region, not pool startup, dominates.
- The crash matrix and fault sweep run in tens of milliseconds serially —
  below pool-startup cost by an order of magnitude — so their speedups
  are *recorded* but cannot meaningfully gate; their rows say so.
- Everything is gated only on hosts with ≥ 4 cores (the CI benchmarks
  runner qualifies); a smaller host records ``gated: false``.
"""

from __future__ import annotations

import os

from conftest import PERF, record, timed
from repro.bench.chaoscampaign import run_chaos_campaign
from repro.bench.crashmatrix import canonical_matrix_output, run_crash_matrix
from repro.bench.faultsweep import run_fault_sweep

#: campaign size for the gated timing run — large enough that the
#: parallel region dominates process-pool startup on CI hardware
GATE_EPISODES = 800
GATE_SEED = 1234
SWEEP_RATES = (0.0, 0.1, 0.25, 0.5)
SWEEP_ROUNDS = 24

#: acceptance gate: ≥ 2.5× at 4 workers, enforced where 4 cores exist
MIN_SPEEDUP = 2.5
GATE_MIN_CORES = 4


def _workers() -> int:
    return min(4, os.cpu_count() or 1)


def _serial_vs_fanned(serial, fanned):
    """Both runs' results and the row's host-time fields."""
    serial_out, t_serial = timed(serial)
    fanned_out, t_fanned = timed(fanned)
    return serial_out, fanned_out, {
        "serial_s": round(t_serial, 3), "parallel_s": round(t_fanned, 3),
        "speedup": round(t_serial / t_fanned, 2)}


def _gated() -> bool:
    return (os.cpu_count() or 1) >= GATE_MIN_CORES


def test_parallel_speedup_and_record():
    workers = _workers()
    gated = _gated()
    rows = {}

    chaos_serial, chaos_fanned, times = _serial_vs_fanned(
        lambda: run_chaos_campaign(episodes=GATE_EPISODES,
                                   seed=GATE_SEED),
        lambda: run_chaos_campaign(episodes=GATE_EPISODES,
                                   seed=GATE_SEED, workers=workers))
    assert chaos_fanned.canonical_output() == chaos_serial.canonical_output()
    chaos_speedup = times["speedup"]
    rows["chaos_campaign"] = {
        "episodes": GATE_EPISODES, **times, "gate_applies": True}

    matrix_serial, matrix_fanned, times = _serial_vs_fanned(
        lambda: run_crash_matrix(workers=1),
        lambda: run_crash_matrix(workers=workers))
    assert (canonical_matrix_output(matrix_fanned)
            == canonical_matrix_output(matrix_serial))
    assert all(c.ok for c in matrix_serial if not c.skipped)
    rows["crash_matrix"] = {
        "cells": len(matrix_serial), **times,
        "gate_applies": False,
        "note": "serial wall-clock is below process-pool startup cost; "
                "recorded for reference, equality still asserted"}

    sweep_serial, sweep_fanned, times = _serial_vs_fanned(
        lambda: run_fault_sweep(rates=SWEEP_RATES, rounds=SWEEP_ROUNDS),
        lambda: run_fault_sweep(rates=SWEEP_RATES, rounds=SWEEP_ROUNDS,
                                workers=workers))
    assert sweep_fanned == sweep_serial
    rows["fault_sweep"] = {
        "points": len(SWEEP_RATES), **times,
        "gate_applies": False,
        "note": "serial wall-clock is below process-pool startup cost; "
                "recorded for reference, equality still asserted"}

    if gated:
        assert chaos_speedup is not None and chaos_speedup >= MIN_SPEEDUP, (
            f"chaos campaign parallel speedup {chaos_speedup}x below the "
            f"{MIN_SPEEDUP}x gate at {workers} workers")

    record(PERF, "sharding", {
        "workers": workers,
        "gated": gated,
        "min_speedup_gate": MIN_SPEEDUP,
        "benches": rows,
    })
