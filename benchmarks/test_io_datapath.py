"""Notification-coalescing smoke for the batched split-driver datapath.

Gates, in CI and locally:

- **Hard acceptance** (machine-independent, deterministic): the X-U iperf
  sender amortizes event-channel doorbells over ring batches — at most
  0.25 notifies per transmitted segment (the seed datapath rang once per
  packet).  dbench's background writeback likewise pays per batch, never
  per block.
- **Regression gates** (vs the committed ``BENCH_perf.json`` ``io``
  section): >10% loss on the notify-suppression ratio, the simulated
  transfer time, or the throughput of either workload fails the run.
  The simulator is deterministic, so these gates are exact re-runs of
  the committed numbers — 10% is headroom for intentional cost-model
  tuning, not for noise.  Host wall time gets only a generous 3x bound
  (CI runners vary); the *simulated* elapsed time is the strict one.

The measured section is rewritten on every run so the improvement stays
auditable next to the seed baseline.
"""

from __future__ import annotations

from conftest import PERF, committed, record, timed
from repro.bench.configs import build_config
from repro.workloads.dbench import run_dbench
from repro.workloads.iperf import run_iperf

#: measured on the pre-batching seed (per-request datapath)
SEED_IPERF_XU_MBIT_S = 282.6
SEED_IPERF_XU_NOTIFIES_PER_PACKET = 1.0
SEED_DBENCH_XU_MB_S = 2080.97

#: generous host-wall bound; the strict gates are all simulated-time
WALL_S_CEILING = 3.0


def _run():
    net_stack = build_config("X-U")
    tcp = run_iperf(net_stack.kernel, net_stack.peer_kernel, proto="tcp",
                    total_bytes=2 * 1024 * 1024)
    blk_stack = build_config("X-U")
    return tcp, blk_stack, run_dbench(blk_stack.kernel, blk_stack.cpu)


def test_io_datapath_notify_coalescing_and_record():
    # read before this run overwrites it
    cur = committed(PERF, "io")["current"]

    (tcp, blk_stack, db), wall_s = timed(_run)

    # -- hard acceptance: doorbells amortize over batches ----------------
    assert tcp.packets_sent > 1000  # the run is big enough to mean something
    assert tcp.notifies_per_packet <= 0.25, (
        f"{tcp.notifies_per_packet:.3f} notifies/packet — the TX datapath "
        "is ringing the doorbell per packet again")
    tcp_events = tcp.notifies_sent + tcp.notifies_suppressed
    tcp_suppression = tcp.notifies_suppressed / tcp_events if tcp_events else 0.0
    assert tcp.notifies_suppressed > 0, "no sends were ever coalesced"
    assert tcp.mbit_s > SEED_IPERF_XU_MBIT_S, (
        f"X-U iperf {tcp.mbit_s:.1f} Mbit/s is no better than the "
        f"per-request seed ({SEED_IPERF_XU_MBIT_S})")
    # dbench's writeback: one submit + one completion doorbell per flushed
    # batch — strictly fewer doorbells than blocks on the per-block path
    db_blocks = blk_stack.vmm.io_stats.ring_batched_entries
    assert db.notifies_sent < db_blocks or db.notifies_sent == 0

    # -- >10% regression gates vs the committed baseline -----------------
    assert tcp.mbit_s >= 0.9 * cur["iperf_xu_mbit_s"]
    assert tcp.elapsed_us <= 1.1 * cur["iperf_xu_elapsed_us"]
    assert (tcp.notifies_per_packet
            <= 1.1 * cur["iperf_xu_notifies_per_packet"] + 1e-9)
    assert tcp_suppression >= 0.9 * cur["iperf_xu_suppression_ratio"]
    assert db.throughput_mb_s >= 0.9 * cur["dbench_xu_mb_s"]

    # -- record the io section next to the wallclock numbers -------------
    record(PERF, "io", {
        "workload": "iperf tcp 2 MiB, X-U sender -> native receiver; "
                    "dbench 4 clients on X-U",
        "seed_baseline": {
            "iperf_xu_mbit_s": SEED_IPERF_XU_MBIT_S,
            "iperf_xu_notifies_per_packet": SEED_IPERF_XU_NOTIFIES_PER_PACKET,
            "dbench_xu_mb_s": SEED_DBENCH_XU_MB_S,
        },
        "current": {
            "iperf_xu_mbit_s": round(tcp.mbit_s, 1),
            "iperf_xu_elapsed_us": round(tcp.elapsed_us, 1),
            "iperf_xu_notifies_per_packet": round(tcp.notifies_per_packet, 4),
            "iperf_xu_suppression_ratio": round(tcp_suppression, 4),
            "dbench_xu_mb_s": round(db.throughput_mb_s, 2),
            "io_smoke_wall_s": round(wall_s, 3),
        },
        "iperf_improvement_pct": round(
            100.0 * (tcp.mbit_s / SEED_IPERF_XU_MBIT_S - 1.0), 1),
    })

    assert wall_s < WALL_S_CEILING, (
        f"io smoke took {wall_s:.2f}s of host time — something is "
        "pathologically slow")
