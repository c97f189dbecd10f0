"""Cycle-domain tracing for the mode-switch pipeline (xentrace-style).

The paper's headline number — a whole attach completes in ~0.2 ms (§7.4) —
is a *sum* over the phases of §4.3/§5.1: state tracking, state transfer,
and state reloading.  The metrics layer can say *that* a switch happened;
this module records *where the cycles went*: a per-CPU bounded ring buffer
of typed events stamped in the **simulated cycle domain** (the same RDTSC
timeline §7.4 measures with), recorded by hooks threaded through the switch
engine, the state-transfer functions, the per-CPU reloads, the SMP
rendezvous, the hypercall dispatcher, the fault-injection seams, and the
split-driver doorbell path.

Design rules:

- **Near-zero cost when disabled.**  Every hook starts with one
  ``_ACTIVE is None`` test and returns.  No tracer installed — no
  allocation, no clock read, no string formatting.
- **Observation only.**  The tracer never calls :meth:`Cpu.charge` or
  advances the clock; enabling it cannot perturb a single simulated cycle
  (``tests/integration/test_trace_equivalence.py`` proves it).
- **Bounded.**  Each CPU's buffer is a ring of ``capacity_per_cpu``
  events; overflow drops oldest-first and counts what it dropped
  (surfaced as the ``trace_dropped`` metric).
- **Well-formed by construction.**  Pipeline spans are emitted through
  the :class:`span` context manager, whose exit runs on every unwind, so
  every begin has a matching end even when a fault unwinds the switch
  mid-transfer.
- **Monotonic per CPU.**  The SMP coordinator overlaps secondary work
  against the control processor's timeline by rewinding the shared clock
  (:mod:`repro.core.smp`); the recorder clamps each CPU's timestamps to be
  non-decreasing so every per-CPU track reads as a valid timeline.

Three consumers sit on top of the raw ring:

- :func:`build_span_trees` / :func:`phase_summary` — the per-phase latency
  breakdown (mean/min/max cycles per phase, the §7.4 decomposition);
- :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON (load in ``chrome://tracing`` / Perfetto);
- :func:`canonical_lines` — a *structural* rendering (event kinds,
  nesting, phase ordering, symbolic args with digit runs scrubbed; no raw
  cycle values) diffed against the committed goldens in ``tests/goldens/``.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from repro.hw.clock import Clock

#: event kinds (Chrome trace_event phase letters)
BEGIN = "B"
END = "E"
INSTANT = "I"

#: default per-CPU ring capacity (events, not bytes)
DEFAULT_CAPACITY = 65536

#: the span names that make up one mode switch, in pipeline order — the
#: per-phase breakdown reports exactly these (benches and docs key off it)
SWITCH_PHASES = (
    "switch.quiesce",
    "smp.gather",
    "switch.lazy-drain",
    "transfer.page-tables",
    "transfer.segments",
    "transfer.irq-bindings",
    "reload.cp",
    "reload.secondary",
    "switch.rollback",
    "switch.commit",
)


@dataclass(slots=True)
class TraceEvent:
    """One recorded event: a span edge (B/E) or an instant (I)."""

    kind: str
    name: str
    cpu_id: int
    #: simulated cycle timestamp (clamped monotonic per CPU)
    ts: int
    #: global emission order (total order across CPUs)
    seq: int
    args: Optional[dict] = None


_BY_SEQ = attrgetter("seq")


class _CpuRing:
    """Bounded per-CPU ring: overflow evicts oldest-first, counted."""

    __slots__ = ("events", "dropped", "last_ts")

    def __init__(self, capacity: int):
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.last_ts = 0


class Tracer:
    """Records events against one machine's clock until uninstalled."""

    def __init__(self, clock: "Clock", capacity_per_cpu: int = DEFAULT_CAPACITY):
        if capacity_per_cpu < 1:
            raise ValueError("capacity_per_cpu must be >= 1")
        self.clock = clock
        self.capacity_per_cpu = capacity_per_cpu
        self._rings: dict[int, _CpuRing] = {}
        #: lifetime count of recorded events (monotonic; metrics snapshots
        #: diff it, so it is not reduced by ring eviction); it is also the
        #: next event's ``seq``
        self.recorded = 0

    # -- recording -------------------------------------------------------

    def _emit(self, kind: str, cpu_id: int, name: str,
              args: Optional[dict]) -> None:
        ring = self._rings.get(cpu_id)
        if ring is None:
            ring = self._rings[cpu_id] = _CpuRing(self.capacity_per_cpu)
        ts = self.clock.cycles
        if ts < ring.last_ts:       # overlapped SMP timeline: clamp
            ts = ring.last_ts
        else:
            ring.last_ts = ts
        events = ring.events
        if len(events) == self.capacity_per_cpu:
            ring.dropped += 1       # deque(maxlen) evicts the oldest
        seq = self.recorded
        events.append(TraceEvent(kind, name, cpu_id, ts, seq, args))
        self.recorded = seq + 1

    def begin(self, cpu_id: int, name: str, **args) -> None:
        self._emit(BEGIN, cpu_id, name, args or None)

    def end(self, cpu_id: int, name: str, **args) -> None:
        self._emit(END, cpu_id, name, args or None)

    def instant(self, cpu_id: int, name: str, **args) -> None:
        self._emit(INSTANT, cpu_id, name, args or None)

    # -- reading ---------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events evicted by ring overflow, across all CPUs."""
        return sum(r.dropped for r in self._rings.values())

    def events(self) -> list[TraceEvent]:
        """Buffered events of every CPU, merged in emission order."""
        rings = [r.events for r in self._rings.values() if r.events]
        if len(rings) == 1:         # one ring is already in seq order
            return list(rings[0])
        merged: list[TraceEvent] = []
        for events in rings:
            merged.extend(events)
        merged.sort(key=_BY_SEQ)
        return merged


# ---------------------------------------------------------------------------
# the active tracer (module scope == machine-wide scope, like repro.faults;
# the simulator is single-threaded)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def install(tracer: Tracer) -> None:
    global _ACTIVE
    _ACTIVE = tracer


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[Tracer]:
    return _ACTIVE


class tracing:
    """Install a tracer for the duration of a with-block; ``as`` binds it.

    ``target`` is a ready-made :class:`Tracer`, a clock, or anything with
    a ``.clock`` attribute (a ``Machine``) to build a fresh tracer
    against.  Leaving the block uninstalls it, also on an exception.
    Fleet nodes enter one per advance, so this is a plain class rather
    than a generator context manager."""

    __slots__ = ("tracer",)

    def __init__(self, target) -> None:
        if isinstance(target, Tracer):
            self.tracer = target
        else:
            self.tracer = Tracer(getattr(target, "clock", target))

    def __enter__(self) -> Tracer:
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> None:
        uninstall()


# -- the pipeline hooks (near-zero cost when no tracer is installed) --------

def instant(cpu_id: int, name: str, **args) -> None:
    if _ACTIVE is None:
        return
    _ACTIVE._emit(INSTANT, cpu_id, name, args or None)


class span:
    """Begin/end pair guaranteed to match across exceptions.  The enabled
    check happens at both edges so the pair stays balanced even if a tracer
    is (un)installed mid-span: only an edge that sees a tracer records."""

    __slots__ = ("cpu_id", "name", "args")

    def __init__(self, cpu_id: int, name: str, **args) -> None:
        self.cpu_id = cpu_id
        self.name = name
        self.args = args or None

    def __enter__(self) -> None:
        if _ACTIVE is not None:
            _ACTIVE._emit(BEGIN, self.cpu_id, self.name, self.args)

    def __exit__(self, *exc) -> None:
        if _ACTIVE is not None:
            _ACTIVE._emit(END, self.cpu_id, self.name, None)


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One node of the reconstructed per-CPU span tree.  Instants become
    leaf nodes with ``end == start`` and ``kind == "instant"``."""

    name: str
    cpu_id: int
    start: int
    end: Optional[int] = None
    args: Optional[dict] = None
    kind: str = "span"
    children: list["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def cycles(self) -> int:
        return (self.end - self.start) if self.end is not None else 0

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_trees(events: list[TraceEvent]) -> dict[int, list[Span]]:
    """Reconstruct per-CPU span forests from a B/E/I event stream.

    Tolerant of ring truncation: an END with no open span (its BEGIN was
    evicted) is dropped; a BEGIN still open at the end of the stream stays
    in the tree with ``end=None`` (and is excluded from histograms)."""
    roots: dict[int, list[Span]] = {}
    stacks: dict[int, list[Span]] = {}
    for ev in events:
        stack = stacks.setdefault(ev.cpu_id, [])
        dest = stack[-1].children if stack else \
            roots.setdefault(ev.cpu_id, [])
        if ev.kind == BEGIN:
            node = Span(ev.name, ev.cpu_id, ev.ts, args=ev.args)
            dest.append(node)
            stack.append(node)
        elif ev.kind == END:
            if stack and stack[-1].name == ev.name:
                stack.pop().end = ev.ts
            # else: truncated head — matching BEGIN was evicted
        else:
            dest.append(Span(ev.name, ev.cpu_id, ev.ts, end=ev.ts,
                             args=ev.args, kind="instant"))
    return roots


def validate(events: list[TraceEvent], dropped: int = 0) -> list[str]:
    """Well-formedness check; returns human-readable violations.

    Rules: per-CPU timestamps never decrease; END events match the
    innermost open BEGIN of the same CPU (strict nesting); every BEGIN is
    closed by the end of the stream.  When ``dropped > 0`` the buffer head
    was evicted oldest-first, so an END arriving with an *empty* stack is
    the expected truncation artifact and is tolerated; a mismatched END on
    a non-empty stack never is."""
    errors: list[str] = []
    stacks: dict[int, list[str]] = {}
    last_ts: dict[int, int] = {}
    # the current CPU's stack and last timestamp stay in locals while
    # consecutive events share it; the dicts change hands at a CPU switch
    cpu_id = stack = prev = None
    for ev in events:
        if stack is None or ev.cpu_id != cpu_id:
            if stack is not None:
                last_ts[cpu_id] = prev
            cpu_id = ev.cpu_id
            stack = stacks.get(cpu_id)
            if stack is None:
                stack = stacks[cpu_id] = []
            prev = last_ts.get(cpu_id)
        if prev is not None and ev.ts < prev:
            errors.append(f"cpu{ev.cpu_id}: timestamp went backwards at "
                          f"{ev.kind} {ev.name} ({ev.ts} < {prev})")
        prev = ev.ts
        if ev.kind == BEGIN:
            stack.append(ev.name)
        elif ev.kind == END:
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
        elif ev.kind != INSTANT:
            errors.append(f"cpu{ev.cpu_id}: unknown event kind {ev.kind!r}")
    for cpu_id, stack in stacks.items():
        for name in stack:
            errors.append(f"cpu{cpu_id}: span {name!r} never ended")
    return errors


# ---------------------------------------------------------------------------
# per-phase latency breakdown
# ---------------------------------------------------------------------------

@dataclass
class PhaseStat:
    """Duration distribution of one span name across a trace."""

    name: str
    durations: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total_cycles(self) -> int:
        return sum(self.durations)

    @property
    def min_cycles(self) -> int:
        return min(self.durations) if self.durations else 0

    @property
    def max_cycles(self) -> int:
        return max(self.durations) if self.durations else 0

    @property
    def mean_cycles(self) -> float:
        return self.total_cycles / self.count if self.durations else 0.0


def phase_summary(events: list[TraceEvent],
                  names: Optional[tuple[str, ...]] = None
                  ) -> dict[str, PhaseStat]:
    """Histogram of closed-span durations by name (all names, or a
    selection such as :data:`SWITCH_PHASES`)."""
    stats: dict[str, PhaseStat] = {}
    for forest in build_span_trees(events).values():
        for root in forest:
            for node in root.walk():
                if node.kind != "span" or not node.closed:
                    continue
                if names is not None and node.name not in names:
                    continue
                stats.setdefault(node.name,
                                 PhaseStat(node.name)).durations.append(
                    node.cycles)
    return stats


def format_phase_table(stats: dict[str, PhaseStat],
                       freq_mhz: int = 3000) -> str:
    """Fixed-width per-phase latency table (µs), :data:`SWITCH_PHASES`
    order first."""
    lines = [f"  {'phase':<24}{'count':>7}{'mean µs':>10}{'min µs':>10}"
             f"{'max µs':>10}"]
    ordered = [n for n in SWITCH_PHASES if n in stats]
    ordered += [n for n in sorted(stats) if n not in SWITCH_PHASES]
    for name in ordered:
        s = stats[name]
        lines.append(
            f"  {name:<24}{s.count:>7}{s.mean_cycles / freq_mhz:>10.2f}"
            f"{s.min_cycles / freq_mhz:>10.2f}"
            f"{s.max_cycles / freq_mhz:>10.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def to_chrome_trace(events: list[TraceEvent],
                    freq_mhz: int = 3000) -> list[dict]:
    """Chrome ``trace_event`` array: one dict per event, timestamps in µs,
    CPUs as threads of a single "machine" process."""
    out: list[dict] = []
    for ev in events:
        entry: dict = {
            "name": ev.name,
            "ph": "i" if ev.kind == INSTANT else ev.kind,
            "ts": ev.ts / freq_mhz,
            "pid": 0,
            "tid": ev.cpu_id,
        }
        if ev.kind == INSTANT:
            entry["s"] = "t"  # thread-scoped instant
        if ev.args:
            entry["args"] = dict(ev.args)
        out.append(entry)
    return out


def write_chrome_trace(path, events: list[TraceEvent],
                       freq_mhz: int = 3000) -> None:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    payload = {
        "displayTimeUnit": "ns",
        "traceEvents": to_chrome_trace(events, freq_mhz),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def format_timeline(events: list[TraceEvent], freq_mhz: int = 3000) -> str:
    """Human-readable text timeline: one line per span (with duration) or
    instant, indented by nesting depth, offsets relative to the first
    event."""
    if not events:
        return "  (no events recorded)"
    base = min(ev.ts for ev in events)
    lines: list[str] = []

    def _args(span: Span) -> str:
        if not span.args:
            return ""
        body = ", ".join(f"{k}={v}" for k, v in sorted(span.args.items()))
        return f" ({body})"

    def _render(node: Span, depth: int) -> None:
        at = (node.start - base) / freq_mhz
        indent = "  " * depth
        if node.kind == "instant":
            lines.append(f"  cpu{node.cpu_id} {at:>10.2f}µs  {indent}"
                         f"* {node.name}{_args(node)}")
        else:
            dur = (f"{node.cycles / freq_mhz:.2f}µs" if node.closed
                   else "unclosed")
            lines.append(f"  cpu{node.cpu_id} {at:>10.2f}µs  {indent}"
                         f"{node.name}{_args(node)} [{dur}]")
        for child in node.children:
            _render(child, depth + 1)

    forests = build_span_trees(events)
    roots = [r for forest in forests.values() for r in forest]
    roots.sort(key=lambda s: (s.start, s.cpu_id))
    for root in roots:
        _render(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonicalization (the golden-trace form)
# ---------------------------------------------------------------------------

_DIGITS = re.compile(r"\d+")

#: canonical rendering of the three event kinds
_KIND_MARK = {BEGIN: ">", END: "<", INSTANT: "*"}


def canonical_lines(events: list[TraceEvent]) -> list[str]:
    """Structural canonical form, stable under cost-model recalibration.

    Keeps: event kinds, names, per-CPU nesting depth, event ordering, and
    *symbolic* args (strings/bools, with digit runs scrubbed to ``N`` so
    frame numbers and cycle-derived values cannot leak in).  Drops: raw
    timestamps and every numeric arg.  Two traces with the same structure
    canonicalize identically even if every cycle count differs.

    A line is ``cpu{id} {". " * depth}{mark} {name}`` plus `` key=value``
    per symbolic arg in key order.  A trace repeats a few shapes many
    times, so each ``(cpu, depth, kind)`` head and each scrubbed
    ``(key, str(value))`` pair is built once per call."""
    depths: dict[int, int] = {}
    heads: dict[tuple, str] = {}
    pairs: dict[tuple, str] = {}
    lines: list[str] = []
    append = lines.append
    for ev in events:
        cpu, kind = ev.cpu_id, ev.kind
        depth = depths.get(cpu, 0)
        if kind == END and depth:
            depth -= 1
            depths[cpu] = depth
        head = heads.get((cpu, depth, kind))
        if head is None:
            head = heads[cpu, depth, kind] = \
                f"cpu{cpu} {'. ' * depth}{_KIND_MARK[kind]} "
        args = ev.args
        if args:
            parts = [head, ev.name]
            for key in sorted(args):
                value = args[key]
                if value.__class__ is not str:
                    if not isinstance(value, bool) and isinstance(
                            value, (int, float)):
                        continue    # numeric: cycle-derived, dropped
                    value = str(value)
                pair = pairs.get((key, value))
                if pair is None:
                    pair = pairs[key, value] = \
                        f" {key}={_DIGITS.sub('N', value)}"
                parts.append(pair)
            append("".join(parts))
        else:
            append(head + ev.name)
        if kind == BEGIN:
            depths[cpu] = depth + 1
    return lines


def merge_canonical(per_machine: dict[int, list[str]]) -> list[str]:
    """Merge per-machine canonical lines into one fleet-wide listing.

    Each machine's lines are prefixed ``m{index}|`` and machines appear in
    ascending index order.  Concatenation (not timestamp interleaving) is
    deliberate: canonical lines carry no timestamps, and each machine's
    stream is already internally ordered — so the merged listing is a pure
    function of the per-machine streams, identical however the fleet was
    sharded."""
    merged: list[str] = []
    for index in sorted(per_machine):
        prefix = f"m{index}|"
        merged.extend([prefix + line for line in per_machine[index]])
    return merged
