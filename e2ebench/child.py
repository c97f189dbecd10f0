"""Run one benchmark workload once, in this process, and report it.

Usage: python3 e2ebench/child.py WORKLOAD SEED SIZE TRACE

Prints one JSON record as the last line of standard output.  ``setup_s``
runs from the first line of this file (before ``repro`` is imported) to
the end of set-up; ``run_s`` from there to the end of the simulation.
With TRACE 1 the public boundaries of every layer are wrapped (see
``spans.py``), the spans go to ``e2ebench/out/<workload>.spans.jsonl``
and the record carries the per-layer metrics.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

#: per-layer metric -> span names whose (outermost) time it totals
SPAN_SECONDS = {
    "sim.advance_s": ("sim:FleetNode.advance",),
    "sim.collect_s": ("sim:Shard.collect",),
    "trace.finalize_s": ("trace:validate", "trace:canonical_lines",
                         "trace:merge_canonical"),
    "fleet.build_s": ("fleet:build_fleet_node",),
    "fleet.route_s": ("fleet:LoadBalancer.pick",),
    "fleet.on_message_s": ("fleet:FrontendNode.on_message",
                           "fleet:ServiceNode.on_message"),
    "scenarios.update_s": ("scenarios:LiveUpdater.apply",),
    "core.attach_s": ("core:Mercury.attach",),
    "core.detach_s": ("core:Mercury.detach",),
    "core.recover_s": ("core:RecoveryManager.recover",),
    "core.invariants_s": ("core:check_all",),
    "watchdog.scan_s": ("watchdog:Watchdog.scan",),
    "vmm.elastic_step_s": ("vmm:ElasticMemoryController.step",),
    "guestos.syscall_s": ("guestos:Kernel.syscall",),
    "bench.sut_build_s": ("bench:build_config",),
    "metrics.snapshot_s": ("metrics:MetricsCollector.snapshot",),
}

#: per-layer metric -> span name whose calls it counts
SPAN_CALLS = {
    "sim.advance_calls": "sim:FleetNode.advance",
    "fleet.route_calls": "fleet:LoadBalancer.pick",
    "core.attach_calls": "core:Mercury.attach",
    "core.detach_calls": "core:Mercury.detach",
}

#: per-layer metric -> field or property of the merged MetricsSnapshot
COUNTERS = {
    "trace.events": "trace_events",
    "trace.dropped": "trace_dropped",
    "core.switch_retries": "switch_retries",
    "core.rollbacks": "switch_rollbacks",
    "core.aborts": "switch_aborts",
    "watchdog.scans": "watchdog_scans",
    "watchdog.detections": "watchdog_detections",
    "vmm.hypercalls": "hypercalls",
    "vmm.page_validations": "page_validations",
    "vmm.traps_emulated": "traps_emulated",
    "vmm.mmu_batch_avg": "avg_batch_size",
    "vmm.notify_suppression_ratio": "notify_suppression_ratio",
    "vmm.events_coalesced": "events_coalesced",
    "guestos.syscalls": "syscalls",
    "guestos.minor_faults": "minor_faults",
    "guestos.cow_breaks": "cow_breaks",
    "guestos.context_switches": "context_switches",
    "guestos.cache_hit_rate": "cache_hit_rate",
    "hw.disk_requests": "disk_requests",
    "hw.tlb_flushes": "tlb_flushes",
    "hw.interrupts_delivered": "interrupts_delivered",
    "hw.ipis_sent": "ipis_sent",
}

#: layers whose self time is reported as ``<layer>.self_s``
LAYERS = ("sim", "trace", "fleet", "scenarios", "core", "watchdog", "vmm",
          "guestos", "bench", "metrics")

#: simulated results and per-layer values only some workloads produce;
#: the others report 0
WORKLOAD_VALUES = (
    "req_p50_us", "req_p99_us", "req_p999_us", "wave_p99_us", "wave_ms",
    "attach_us", "detach_us", "mttr_p50_us", "mttr_p99_us", "paper_err_pct",
    "sim.windows", "sim.messages", "sim.sched_steps",
    "fleet.forced_dispatch_frac", "fleet.served_imbalance",
    "fleet.gen_late_max_us", "fleet.gen_late_p99_us",
    "vmm.pages_reclaimed", "vmm.victim_faults", "vmm.floor_skips",
    "watchdog.detect_p50_us", "watchdog.detect_p99_us",
    *(f"core.{d}.{p}_us" for d in ("attach", "detach")
      for p in ("switch.commit", "transfer.page-tables", "reload.cp")),
)


def layer_metrics(rec: spans.Recorder, outcome: workloads.Outcome,
                  traced_run_s: float, wall_s: float) -> dict:
    """Every per-layer value of one traced run."""
    from repro.metrics import MetricsSnapshot

    out = {name: 0.0 for name in WORKLOAD_VALUES}
    out.update({k: v for k, v in outcome.sim.items() if k in out})
    out.update(outcome.layer)
    for metric, names in SPAN_SECONDS.items():
        out[metric] = rec.inclusive_s(*names)
    for metric, name in SPAN_CALLS.items():
        out[metric] = rec.calls(name)
    counters = MetricsSnapshot.merge(outcome.snapshots)
    for metric, attr in COUNTERS.items():
        out[metric] = getattr(counters, attr)
    advances = out["sim.advance_calls"]
    out["sim.advance_useful_ratio"] = (
        rec.counts["advances_useful"] / advances if advances else 0.0)
    out["sim.step_self_s"] = rec.self_s("sim:Shard.step")
    out["trace.tracing_enters"] = rec.counts["tracing_enters"]
    episodes = rec.durations("bench:run_episode")
    for label, q in (("p50", 0.50), ("p99", 0.99)):
        out[f"bench.episode_ms_{label}"] = (
            1000.0 * workloads._quantile(episodes, q) if episodes else 0.0)
    by_layer = rec.self_by_layer()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    out["traced_run_s"] = traced_run_s
    out["unwrapped_s"] = wall_s - rec.top_level_s() - rec.top_hook_s
    return out


def main(argv: list) -> int:
    name, seed, size, trace = argv[1], int(argv[2]), argv[3], argv[4] == "1"
    rec = spans.Recorder() if trace else None
    marks: dict = {}

    def mark(label: str) -> None:
        marks[label] = time.perf_counter()
        if rec is not None:
            marks[f"{label}_hook_s"] = rec.hook_s
            if label == "done":
                rec.restore()

    if rec is not None:
        spans.instrument(rec)
    call_start = time.perf_counter()
    outcome = workloads.RUNNERS[name](name, seed, size, rec, mark)
    run_s = marks["done"] - marks["setup"]
    record = {
        "workload": name, "seed": seed, "size": size, "traced": trace,
        "setup_s": marks["setup"] - T0,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": outcome.ops,
        "failed": outcome.failed,
        "sha256": outcome.sha256,
        "segments": outcome.segments,
        "sim": outcome.sim,
        "problems": outcome.problems,
        "numpy": sys.modules["numpy"].__version__,
    }
    if rec is not None:
        # traced times leave out the hooks' own bookkeeping
        record["run_s"] = run_s - (marks["done_hook_s"]
                                   - marks["setup_hook_s"])
        wall_s = marks["done"] - call_start
        traced_run_s = wall_s - marks["done_hook_s"]
        layer = layer_metrics(rec, outcome, traced_run_s, wall_s)
        accounted = sum(layer[f"{x}.self_s"] for x in LAYERS) \
            + layer["unwrapped_s"]
        if abs(accounted - traced_run_s) > 0.05 * traced_run_s:
            record["problems"].append(
                f"layer self times + unwrapped {accounted:.3f} s != traced "
                f"run {traced_run_s:.3f} s")
        record["layer"] = layer
        rec.write_jsonl(HERE / "out" / f"{name}.spans.jsonl", call_start)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
