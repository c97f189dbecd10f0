"""Trace well-formedness properties under switch storms.

Whatever interleaving of switches, retries, aborts, injected faults and
workload syscalls runs, the recorded trace must stay well-formed: spans
strictly nest, per-CPU timestamps never decrease (even though the SMP
coordinator rewinds the shared clock to overlap secondary work), every
begin has a matching end across ``SwitchAborted`` unwinds, and ring
overflow drops oldest-first with a counted ``trace_dropped`` metric.

Reuses the storm machinery of ``test_switch_storm``.  The second half
pins the recorder and the canonical rendering against plain reference
models: :func:`reference_canonical_lines` renders each event and arg
afresh, and a per-CPU ``deque(maxlen)`` merged by ``seq`` models the
rings.
"""

from __future__ import annotations

import dataclasses
import re
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine, Mercury, faults, small_config, trace
from repro.errors import ReproError
from repro.metrics import MetricsCollector

from tests.integration.test_switch_storm import OPS, _apply, _fresh, _settle


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(OPS, max_size=12))
def test_storm_trace_is_well_formed(ops):
    mercury = _fresh()
    plan = faults.FaultPlan()
    state = {"children": []}
    with trace.tracing(mercury.machine) as tracer:
        try:
            with faults.injected(plan):
                for op in ops:
                    try:
                        _apply(mercury, plan, op, state)
                    except ReproError:
                        pass
        finally:
            faults.clear_plan()
        _settle(mercury)
    assert trace.validate(tracer.events(), dropped=tracer.dropped) == []


UP_SITES = [s.name for s in faults.SWITCH_SITES if not s.smp_only]
SMP_SITES = [s.name for s in faults.SWITCH_SITES if s.smp_only]


@pytest.mark.parametrize("site", UP_SITES)
@pytest.mark.parametrize("start_attached", [False, True])
def test_aborted_switch_trace_balances(site, start_attached):
    """A terminally aborted switch (fault at any UP-reachable site) leaves
    a balanced trace: the rollback unwinds through the same span context
    managers the forward path opened."""
    mercury = _fresh()
    if start_attached:
        mercury.attach()
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(site, times=None)
    with trace.tracing(mercury.machine) as tracer, faults.injected(plan):
        try:
            if start_attached:
                mercury.detach()
            else:
                mercury.attach()
        except ReproError:
            pass
    assert trace.validate(tracer.events(), dropped=tracer.dropped) == []


@pytest.mark.parametrize("site", SMP_SITES)
def test_aborted_smp_switch_trace_balances(site):
    """Same property across the rendezvous-only fault sites — including
    the clock-rewinding overlapped secondary reloads."""
    cfg = dataclasses.replace(small_config(), num_cpus=2)
    mercury = Mercury(Machine(cfg))
    mercury.create_kernel()
    mercury.engine.max_retries = 0
    plan = faults.FaultPlan()
    plan.arm(site, times=None)
    with trace.tracing(mercury.machine) as tracer, faults.injected(plan):
        try:
            mercury.attach()
        except ReproError:
            pass
    events = tracer.events()
    assert trace.validate(events, dropped=tracer.dropped) == []
    # and per-CPU monotonicity specifically survived the clock rewind
    last: dict[int, int] = {}
    for ev in events:
        assert ev.ts >= last.get(ev.cpu_id, 0)
        last[ev.cpu_id] = ev.ts


@given(st.integers(min_value=1, max_value=16),
       st.integers(min_value=0, max_value=64))
@settings(max_examples=40, deadline=None)
def test_ring_overflow_drops_oldest_first(capacity, n):
    clock = SimpleNamespace(cycles=0)
    tracer = trace.Tracer(clock, capacity_per_cpu=capacity)
    for i in range(n):
        clock.cycles += 1
        tracer.instant(0, f"ev{i}")
    events = tracer.events()
    assert len(events) == min(n, capacity)
    assert [e.name for e in events] == \
        [f"ev{i}" for i in range(max(0, n - capacity), n)]
    assert tracer.dropped == max(0, n - capacity)
    assert tracer.recorded == n


def test_trace_dropped_surfaces_as_metric():
    """Overflow is not silent: the metrics snapshot reports both the
    lifetime event count and the evicted count of the installed tracer."""
    mercury = _fresh()
    collector = MetricsCollector(mercury.machine, kernel=mercury.kernel,
                                 mercury=mercury)
    tiny = trace.Tracer(mercury.machine.clock, capacity_per_cpu=4)
    with trace.tracing(tiny) as tracer:
        mercury.attach()
        snap = collector.snapshot()
    assert tracer.dropped > 0
    assert snap.trace_dropped == tracer.dropped
    assert snap.trace_events == tracer.recorded
    assert tracer.recorded > tracer.capacity_per_cpu
    # with no tracer installed the fields read zero
    snap2 = collector.snapshot()
    assert snap2.trace_events == 0 and snap2.trace_dropped == 0


def test_truncated_trace_still_builds_span_trees():
    """A ring small enough to evict the opening BEGINs still yields a
    usable (validated, truncation-tolerant) span forest."""
    mercury = _fresh()
    tiny = trace.Tracer(mercury.machine.clock, capacity_per_cpu=8)
    with trace.tracing(tiny) as tracer:
        mercury.attach()
        mercury.detach()
    events = tracer.events()
    assert trace.validate(events, dropped=tracer.dropped) == []
    forests = trace.build_span_trees(events)
    assert forests  # something survived
    for forest in forests.values():
        for root in forest:
            for node in root.walk():
                if node.closed:
                    assert node.end >= node.start


# ---------------------------------------------------------------------------
# reference models for the recorder and the canonical rendering
# ---------------------------------------------------------------------------

_MARK = {trace.BEGIN: ">", trace.END: "<", trace.INSTANT: "*"}


def reference_canonical_lines(events) -> list[str]:
    """The canonical form rendered afresh for every event and every arg:
    per-CPU depth (an END with no open span leaves it at 0), then the
    CPU, the depth dots and kind mark, the name, and each symbolic arg
    (bool or non-number) in key order with digit runs scrubbed."""
    depths: dict[int, int] = {}
    lines = []
    for ev in events:
        depth = depths.get(ev.cpu_id, 0)
        if ev.kind == trace.END:
            depth = max(0, depth - 1)
            depths[ev.cpu_id] = depth
        parts = [f"cpu{ev.cpu_id}", ". " * depth + _MARK[ev.kind], ev.name]
        if ev.args:
            for key in sorted(ev.args):
                value = ev.args[key]
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    scrubbed = re.sub(r"\d+", "N", str(value))
                    parts.append(f"{key}={scrubbed}")
        lines.append(" ".join(parts))
        if ev.kind == trace.BEGIN:
            depths[ev.cpu_id] = depth + 1
    return lines


_TEXT = st.text(alphabet="ab-_.:0129\u0663", max_size=8)
_ARG_VALUES = st.one_of(
    _TEXT, st.booleans(), st.integers(-10**6, 10**6), st.floats(),
    st.none(), st.tuples(st.integers(0, 99), _TEXT))
_ARGS = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["task", "kind", "call", "dev", "n2"]),
                    _ARG_VALUES, max_size=3))
_EVENTS = st.lists(st.tuples(
    st.sampled_from([trace.BEGIN, trace.END, trace.INSTANT]),
    st.integers(0, 2),
    st.sampled_from(["sim.slice", "reload.cp", "x", "m10"]),
    _ARGS), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_EVENTS)
def test_canonical_lines_match_the_reference(stream):
    """B/E/I in any order on 1-3 CPUs, with ENDs that close nothing or
    the wrong name and args of every type, render byte for byte as the
    reference does, and merging prefixes each machine's lines."""
    events = [trace.TraceEvent(kind, name, cpu, seq, seq, args)
              for seq, (kind, cpu, name, args) in enumerate(stream)]
    lines = trace.canonical_lines(events)
    assert lines == reference_canonical_lines(events)
    halves = {3: lines[len(lines) // 2:], 1: lines[:len(lines) // 2]}
    assert trace.merge_canonical(halves) == \
        [f"m{i}|{line}" for i in (1, 3) for line in halves[i]]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 3),
                          st.sampled_from([trace.BEGIN, trace.END,
                                           trace.INSTANT]),
                          st.integers(-5, 5)), max_size=80))
def test_tracer_rings_match_a_deque_model(capacity, ops):
    """Per-CPU rings of 1-8 events: ``events()`` is every CPU's newest
    ``capacity`` events merged by ``seq``, timestamps are clamped to be
    non-decreasing per CPU, and ``dropped`` counts the evictions."""
    clock = SimpleNamespace(cycles=100)
    tracer = trace.Tracer(clock, capacity_per_cpu=capacity)
    emit = {trace.BEGIN: tracer.begin, trace.END: tracer.end,
            trace.INSTANT: tracer.instant}
    model: dict[int, deque] = {}
    last_ts: dict[int, int] = {}
    dropped = 0
    for seq, (cpu, kind, step) in enumerate(ops):
        clock.cycles += step
        emit[kind](cpu, f"e{seq}", n=seq)
        ring = model.setdefault(cpu, deque(maxlen=capacity))
        dropped += len(ring) == capacity
        ts = max(clock.cycles, last_ts.get(cpu, 0))
        last_ts[cpu] = ts
        ring.append((kind, f"e{seq}", cpu, ts, seq, {"n": seq}))
    expected = sorted((e for ring in model.values() for e in ring),
                      key=lambda e: e[4])
    assert [(e.kind, e.name, e.cpu_id, e.ts, e.seq, e.args)
            for e in tracer.events()] == expected
    assert tracer.dropped == dropped
    assert tracer.recorded == len(ops)


def _recorded(tracer) -> list[tuple]:
    return [(e.kind, e.name, e.args) for e in tracer.events()]


def test_span_balances_when_its_body_raises():
    tracer = trace.Tracer(SimpleNamespace(cycles=0))
    with trace.tracing(tracer):
        with pytest.raises(RuntimeError):
            with trace.span(0, "outer", task="t1"):
                with trace.span(0, "inner"):
                    raise RuntimeError("unwind")
        trace.instant(0, "after")
    assert _recorded(tracer) == [
        ("B", "outer", {"task": "t1"}), ("B", "inner", None),
        ("E", "inner", None), ("E", "outer", None), ("I", "after", None)]
    assert trace.validate(tracer.events()) == []


def test_span_records_only_the_edges_that_see_a_tracer():
    tracer = trace.Tracer(SimpleNamespace(cycles=0))
    try:
        with trace.span(0, "opened-untraced"):
            trace.install(tracer)
        with trace.span(0, "closed-untraced"):
            trace.uninstall()
    finally:
        trace.uninstall()
    assert _recorded(tracer) == [("E", "opened-untraced", None),
                                 ("B", "closed-untraced", None)]
    assert trace.active() is None


def test_tracing_returns_or_builds_its_tracer_and_always_uninstalls():
    machine = Machine(small_config())
    ready = trace.Tracer(machine.clock)
    with trace.tracing(ready) as tracer:
        assert tracer is ready and trace.active() is ready
    assert trace.active() is None
    for target in (machine, machine.clock):
        with trace.tracing(target) as tracer:
            assert trace.active() is tracer
            assert tracer.clock is machine.clock
            assert tracer.capacity_per_cpu == trace.DEFAULT_CAPACITY
    with pytest.raises(ValueError):
        with trace.tracing(machine) as tracer:
            trace.instant(0, "before-raise")
            raise ValueError("unwind")
    assert trace.active() is None
    assert [e.name for e in tracer.events()] == ["before-raise"]


# ---------------------------------------------------------------------------
# trace.validate against the plain per-event loop it replaced
# ---------------------------------------------------------------------------

def reference_validate(events, dropped: int = 0) -> list[str]:
    """Every event looks up its CPU's stack and last timestamp afresh."""
    errors: list[str] = []
    stacks: dict = {}
    last_ts: dict = {}
    for ev in events:
        prev = last_ts.get(ev.cpu_id)
        if prev is not None and ev.ts < prev:
            errors.append(f"cpu{ev.cpu_id}: timestamp went backwards at "
                          f"{ev.kind} {ev.name} ({ev.ts} < {prev})")
        last_ts[ev.cpu_id] = ev.ts
        stack = stacks.setdefault(ev.cpu_id, [])
        if ev.kind == trace.BEGIN:
            stack.append(ev.name)
        elif ev.kind == trace.END:
            if stack:
                if stack[-1] != ev.name:
                    errors.append(
                        f"cpu{ev.cpu_id}: end {ev.name!r} does not match "
                        f"open span {stack[-1]!r} (spans must nest)")
                else:
                    stack.pop()
            elif dropped == 0:
                errors.append(f"cpu{ev.cpu_id}: end {ev.name!r} with no "
                              f"open span and nothing dropped")
        elif ev.kind != trace.INSTANT:
            errors.append(f"cpu{ev.cpu_id}: unknown event kind {ev.kind!r}")
    for cpu_id, stack in stacks.items():
        for name in stack:
            errors.append(f"cpu{cpu_id}: span {name!r} never ended")
    return errors


#: (kind, name, cpu, ts step) — a step below 0 sends the CPU's clock
#: backwards; kind "X" is unknown; few names and CPUs, so ENDs match,
#: mismatch and hit empty stacks, and runs of one CPU interleave
_VALIDATE_EVENTS = st.lists(
    st.tuples(st.sampled_from([trace.BEGIN, trace.END, trace.INSTANT, "X"]),
              st.sampled_from(["a", "b", "c"]),
              st.integers(0, 2),
              st.integers(-2, 3)),
    max_size=40)


@settings(max_examples=400, deadline=None)
@given(_VALIDATE_EVENTS, st.sampled_from([0, 1, 5]))
def test_validate_matches_the_reference(stream, dropped):
    """Same violations in the same order — backwards timestamps, a
    mismatched END, an END on an empty stack with and without drops,
    unknown kinds, never-ended spans walked in first-seen CPU order —
    whatever the interleaving of CPUs."""
    clocks: dict = {}
    events = []
    for seq, (kind, name, cpu, step) in enumerate(stream):
        clocks[cpu] = clocks.get(cpu, 10) + step
        events.append(trace.TraceEvent(kind, name, cpu, clocks[cpu], seq))
    assert (trace.validate(events, dropped=dropped)
            == reference_validate(events, dropped=dropped))
