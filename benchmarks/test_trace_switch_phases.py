"""Per-phase switch-latency breakdown and tracing-overhead accounting.

Three jobs:

- Decompose the §7.4 headline (~0.2 ms attach / ~0.06 ms detach) into the
  §4.3 phases using the cycle-domain tracer — once for the paper's
  full-recompute attach and once for the incremental (dirty-root) steady
  state — and record both tables to ``BENCH_perf.json`` under
  ``switch_trace``.
- **Regression gates** (vs the committed ``switch_trace`` section,
  mirroring the io-datapath gates): the incremental steady-state
  ``transfer.page-tables`` must stay under 50 µs simulated, and neither it
  nor the full-recompute phase may exceed its committed value by >10%.
  The simulator is deterministic, so the gates are exact re-runs of the
  committed numbers — 10% is headroom for intentional cost-model tuning,
  not for noise.
- Bound the cost of the *disabled* tracer: every hook is one
  ``_ACTIVE is None`` test, so the overhead on a real workload is (hook
  traversals × guard cost).  Both factors are measured here and their
  product asserted ≤ 2% of the workload's wall time.
"""

from __future__ import annotations

import timeit

from conftest import PERF, committed, record, timed
from repro import trace
from repro.bench.configs import build_config
from repro.bench.runner import SWITCH_PROCESSES, switch_stack
from repro.core.switch import Direction
from repro.workloads.kbuild import run_kbuild

ROUND_TRIPS = 5

#: the paper's Section 7.4 reference numbers
PAPER_ATTACH_MS = 0.22
PAPER_DETACH_MS = 0.06

#: incremental steady-state attach budget for the page-table phase
INCREMENTAL_PT_BUDGET_US = 50.0


def _phase_means_us(mercury, direction: str, freq: int) -> dict[str, float]:
    """Mean per-phase µs over ROUND_TRIPS traced switches of one
    direction (the return leg of each round-trip runs untraced).  Starts
    and ends in native mode."""
    tracer = trace.Tracer(mercury.machine.clock)
    for _ in range(ROUND_TRIPS):
        if direction == "attach":
            with trace.tracing(tracer):
                mercury.attach()
            mercury.detach()
        else:
            mercury.attach()
            with trace.tracing(tracer):
                mercury.detach()
    events = tracer.events()
    assert trace.validate(events, dropped=tracer.dropped) == []
    return {name: round(stat.mean_cycles / freq, 3)
            for name, stat in trace.phase_summary(
                events, names=trace.SWITCH_PHASES).items()}


def test_switch_phase_breakdown_and_disabled_overhead(bench_config):
    freq = bench_config.cost.freq_mhz
    # read before this run overwrites it
    baseline = committed(PERF, "switch_trace")

    # -- per-phase decomposition of the §7.4 numbers (full recompute) -----
    up = switch_stack(bench_config, SWITCH_PROCESSES, False)
    up.attach(), up.detach()  # warm the accountants before measuring
    attach_us = _phase_means_us(up, "attach", freq)
    detach_us = _phase_means_us(up, "detach", freq)
    attach_total_ms = up.mean_switch_us(Direction.TO_VIRTUAL) / 1000.0
    detach_total_ms = up.mean_switch_us(Direction.TO_NATIVE) / 1000.0

    assert attach_us, "no attach phases recorded"
    assert "transfer.page-tables" in attach_us
    assert "reload.cp" in attach_us
    # §7.4: the page-info recompute dominates the paper-default attach
    assert attach_us["transfer.page-tables"] == max(
        v for k, v in attach_us.items() if k != "switch.commit")

    # -- the incremental steady state -------------------------------------
    inc = switch_stack(bench_config, SWITCH_PROCESSES, True)
    inc.attach(), inc.detach()  # first attach pays the full validation
    inc.engine.records.clear()
    inc_attach_us = _phase_means_us(inc, "attach", freq)
    inc_attach_total_ms = inc.mean_switch_us(Direction.TO_VIRTUAL) / 1000.0
    inc_pt_us = inc_attach_us["transfer.page-tables"]

    assert inc.mmu_log.full_recomputes == 1, \
        "warmed steady state must never fall back to the full recompute"
    assert inc_pt_us < INCREMENTAL_PT_BUDGET_US, (
        f"incremental attach transfer.page-tables {inc_pt_us:.1f} us "
        f"blew the {INCREMENTAL_PT_BUDGET_US:.0f} us budget")
    assert inc_pt_us < attach_us["transfer.page-tables"], \
        "incremental must undercut the full recompute"

    # -- >10% regression gates vs the committed baseline ------------------
    full_pt = baseline["per_phase_us"]["attach"]["transfer.page-tables"]
    assert attach_us["transfer.page-tables"] <= 1.1 * full_pt, (
        f"full-recompute transfer.page-tables regressed: "
        f"{attach_us['transfer.page-tables']:.1f} us vs committed "
        f"{full_pt:.1f} us")
    inc_committed = baseline["incremental"]
    base = inc_committed["per_phase_us"]["transfer.page-tables"]
    assert inc_pt_us <= 1.1 * base, (
        f"incremental transfer.page-tables regressed: "
        f"{inc_pt_us:.1f} us vs committed {base:.1f} us")
    assert inc_attach_total_ms <= 1.1 * inc_committed["attach_total_ms"]

    # -- disabled-tracer overhead bound -----------------------------------
    # guard cost: what every hot-path hook pays when no tracer is installed
    per_guard_s = timeit.timeit(
        "t._ACTIVE is not None", setup="from repro import trace as t",
        number=1_000_000) / 1e6

    # traversal count + wall time of a real workload, tracer disabled
    assert trace.active() is None
    sut = build_config("M-V")
    _, wall_s = timed(lambda: run_kbuild(sut.kernel, sut.cpu, files=12))
    # every hypercall and doorbell crosses one guard; switch-pipeline hooks
    # add a handful more per switch — bound generously with 4 guards per
    # hypercall-equivalent event
    traversals = 4 * (sut.vmm.hypercalls_served + sut.vmm.traps_emulated)
    overhead_pct = 100.0 * (traversals * per_guard_s) / wall_s

    assert overhead_pct <= 2.0, (
        f"disabled tracer costs {overhead_pct:.3f}% of kbuild wall time "
        f"({traversals} guard traversals x {per_guard_s * 1e9:.1f} ns)")

    # -- record ------------------------------------------------------------
    record(PERF, "switch_trace", {
        "paper_reference_ms": {"attach": PAPER_ATTACH_MS,
                               "detach": PAPER_DETACH_MS},
        "measured_total_ms": {"attach": round(attach_total_ms, 4),
                              "detach": round(detach_total_ms, 4)},
        "per_phase_us": {"attach": attach_us, "detach": detach_us},
        "incremental": {
            "attach_total_ms": round(inc_attach_total_ms, 4),
            "per_phase_us": inc_attach_us,
            "pt_budget_us": INCREMENTAL_PT_BUDGET_US,
        },
        "disabled_overhead": {
            "guard_ns": round(per_guard_s * 1e9, 2),
            "guard_traversals": traversals,
            "kbuild_wall_s": round(wall_s, 3),
            "overhead_pct": round(overhead_pct, 4),
        },
    })
