"""Trace cost on a fleet: the events a 150-machine rolling update records,
what each one costs to record, and what finalising them costs.

Every fleet node records its own trace (one ``trace.tracing`` entry per
advance, a ``sim.slice`` span per scheduler slice, instants for message
traffic), and ``Shard.collect`` finalises each node's ring into canonical
lines plus ``trace.validate`` errors.  The bench runs ``fleet-sparse``'s
parameters once, times ``Shard.collect`` by wrapping it here, micro-times
the two recording hooks under an installed tracer (best of 3), records a
``fleet_trace`` section in ``BENCH_perf.json`` and gates it against the
committed section:

- recorded events may not rise (the count is deterministic);
- each per-event cost (an instant, one edge of a span pair, finalisation)
  may be at most twice its committed value.
"""

from __future__ import annotations

import re
import time
from collections import Counter

from conftest import PERF, committed, record
from repro import Machine, small_config, trace
from repro.fleet import run_fleet
from repro.sim.shard import Shard

MACHINES = 150
SEED = 2007  # ICPP'07

#: hook calls per micro-timing pass, and passes (the fastest counts)
CALLS = 100_000
REPEATS = 3

#: the per-event cost gate, as a multiple of the committed value
MAX_NS_RATIO = 2.0

#: the kind mark of a merged canonical line (``m3|cpu0 . > sim.slice``)
_MARK = re.compile(r"m\d+\|cpu\d+ (?:\. )*(.)")


def _best_ns_per_call(body) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - t0)
    return best / CALLS * 1e9


def _hook_ns() -> tuple[float, float]:
    """ns per ``trace.instant`` and per ``with trace.span`` pair, each
    with the keyword arg the fleet passes, under a default tracer."""
    machine = Machine(small_config())
    cpu_id = machine.boot_cpu.cpu_id

    def instants():
        with trace.tracing(machine):
            for _ in range(CALLS):
                trace.instant(cpu_id, "fleet.msg-post", kind="request")

    def spans():
        with trace.tracing(machine):
            for _ in range(CALLS):
                with trace.span(cpu_id, "sim.slice", task="server"):
                    pass

    return _best_ns_per_call(instants), _best_ns_per_call(spans)


def test_fleet_trace_cost(monkeypatch):
    # read before this run overwrites it
    baseline = committed(PERF, "fleet_trace")

    collect_s = 0.0
    collect = Shard.collect

    def timed_collect(shard):
        nonlocal collect_s
        t0 = time.perf_counter()
        data = collect(shard)
        collect_s += time.perf_counter() - t0
        return data

    monkeypatch.setattr(Shard, "collect", timed_collect)
    t0 = time.perf_counter()
    result = run_fleet(machines=MACHINES, scenario="liveupdate", seed=SEED,
                       workers=1)
    wall_s = time.perf_counter() - t0
    monkeypatch.undo()
    summary = result.summary()
    assert summary["completed"] == summary["requests"]

    metrics = result.fleet.metrics
    events = metrics.trace_events
    kinds = Counter(_MARK.match(line).group(1)
                    for line in result.fleet.canonical)
    assert sum(kinds.values()) == events - metrics.trace_dropped
    instant_ns, span_pair_ns = _hook_ns()
    span_edge_ns = span_pair_ns / 2
    finalize_ns = collect_s / events * 1e9
    # recording estimated from the kept events' kinds and the hook costs
    record_s = (kinds["*"] * instant_ns
                + (kinds[">"] + kinds["<"]) * span_edge_ns) / 1e9

    assert events <= baseline["events"], (
        f"{events} trace events, committed {baseline['events']}: the fleet "
        f"records more than it did")
    for name, now in (("instant_ns", instant_ns),
                      ("span_edge_ns", span_edge_ns),
                      ("finalize_ns_per_event", finalize_ns)):
        limit = MAX_NS_RATIO * baseline[name]
        assert now <= limit, (
            f"{name} {now:.0f} ns, over {MAX_NS_RATIO}x the committed "
            f"{baseline[name]} ns")

    record(PERF, "fleet_trace", {
        "workload": f"run_fleet(machines={MACHINES}, scenario='liveupdate',"
                    f" seed={SEED}, workers=1)",
        "events": events,
        "dropped": metrics.trace_dropped,
        "kept_by_kind": {"begin": kinds[">"], "end": kinds["<"],
                         "instant": kinds["*"]},
        "instant_ns": round(instant_ns),
        "span_edge_ns": round(span_edge_ns),
        "finalize_ns_per_event": round(finalize_ns),
        "collect_s": round(collect_s, 4),
        "wall_s": round(wall_s, 3),
        "trace_share": round((record_s + collect_s) / wall_s, 3),
        "max_ns_ratio": MAX_NS_RATIO,
    })
