"""In-memory span recorder that wraps public functions of the simulator.

The traced benchmark run replaces selected public functions and methods
with wrappers that record one span per call: its name, host start and end
(``time.perf_counter`` seconds), the index of the enclosing wrapped span
(-1 at top level) and the shared id of the unit of work it belongs to
(the fleet window, chaos episode or paper configuration).  Nothing inside
``src/`` changes; :meth:`Recorder.restore` puts every original back.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the time covered by
the top-level spans, and ``run time - top-level time`` is the unwrapped
remainder.  Hooks may run code before a call (set the shared id, read a
counter) and after it (capture a result); the after part runs outside
the span and its time is excluded everywhere (:attr:`Recorder.hook_s`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: a hook gets the call's positional arguments before the call and may
#: return a callable that receives the call's result after it
Hook = Callable[[tuple], Optional[Callable[[Any], None]]]

# span record slots
_NAME, _START, _END, _PARENT, _CTX, _CHILD_S = range(6)


class Recorder:
    """Collects spans and counts from wrapped functions."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent, ctx, child_seconds]`` per call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: shared id stamped on spans opened from now on
        self.ctx: Any = None
        #: host seconds spent in after-hooks (excluded from every span),
        #: in total and outside any span
        self.hook_s = 0.0
        self.top_hook_s = 0.0
        #: objects the hooks captured, by kind
        self.captured: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- installing ------------------------------------------------------

    def original(self, owner: Any, attr: str) -> Any:
        """The unwrapped function behind ``owner.attr``."""
        for o, a, fn in self._originals:
            if o is owner and a == attr:
                return fn
        return getattr(owner, attr)

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> Any:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._originals.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))
        return original

    def wrap(self, owner: Any, attr: str, layer: str,
             hook: Optional[Hook] = None) -> None:
        """Record a span named ``layer:Owner.attr`` around every call."""
        label = (f"{owner.__name__}.{attr}" if isinstance(owner, type)
                 else attr)
        name = f"{layer}:{label}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        original = None

        def wrapper(*args, **kwargs):
            after = hook(args) if hook is not None else None
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, clock(), 0.0, parent, self.ctx, 0.0]
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                record[_END] = clock()
                if parent >= 0:
                    spans[parent][_CHILD_S] += record[_END] - record[_START]
            if after is not None:
                t0 = clock()
                after(result)
                spent = clock() - t0
                self.hook_s += spent
                if parent >= 0:  # hide the hook from the parent's self time
                    spans[parent][_CHILD_S] += spent
                else:
                    self.top_hook_s += spent
            return result

        original = self._replace(owner, attr, wrapper)

    def count(self, owner: Any, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` under ``key`` without a span."""
        counts = self.counts
        original = None

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        original = self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (newest wrapper first)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[_END] - s[_START] for s in self.spans if s[_NAME] == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[_NAME] == name)

    def inclusive_s(self, *names: str) -> float:
        """Total time inside spans of ``names``, counting a span nested in
        another span of the same set once."""
        wanted = set(names)
        spans = self.spans
        total = 0.0
        for span in spans:
            if span[_NAME] not in wanted:
                continue
            parent = span[_PARENT]
            while parent >= 0 and spans[parent][_NAME] not in wanted:
                parent = spans[parent][_PARENT]
            if parent < 0:
                total += span[_END] - span[_START]
        return total

    def self_s(self, name: str) -> float:
        return sum(s[_END] - s[_START] - s[_CHILD_S]
                   for s in self.spans if s[_NAME] == name)

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[_NAME].split(":", 1)[0]] += s[_END] - s[_START] - s[_CHILD_S]
        return dict(out)

    def top_level_s(self) -> float:
        return sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)

    def write_jsonl(self, path: Path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for index, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": s[_NAME],
                    "start": round(s[_START] - origin, 9),
                    "end": round(s[_END] - origin, 9),
                    "parent": s[_PARENT], "ctx": s[_CTX]}) + "\n")


def instrument(rec: Recorder) -> None:
    """Wrap the public boundaries of every layer the workloads reach.

    Hooks stamp the shared id (window number, episode index, configuration
    key) and capture the objects the per-layer counters are read from: the
    systems under test and each chaos episode's stack.  The fleet runner
    keeps its nodes itself (every run checks them)."""
    from repro import trace
    from repro.bench import chaoscampaign, runner
    from repro.core.mercury import Mercury
    from repro.core.recovery import RecoveryManager
    from repro.fleet import orchestrator
    from repro.fleet.balancer import LoadBalancer
    from repro.fleet.node import FrontendNode, ServiceNode
    from repro.guestos.kernel import Kernel
    from repro.metrics import MetricsCollector
    from repro.scenarios.liveupdate import LiveUpdater
    from repro.sim.shard import FleetNode, Shard
    from repro.vmm.elastic import ElasticMemoryController
    from repro.watchdog import Watchdog

    snapshot = rec.original(MetricsCollector, "snapshot")

    def next_window(args):
        rec.counts["windows"] += 1
        rec.ctx = rec.counts["windows"]

    def advance(args):
        sched = args[0].sched
        before = sched.steps

        def after(_):
            rec.counts["advances_useful"] += sched.steps - before > 1
        return after

    def sut(args):
        rec.ctx = args[0]
        return rec.captured["suts"].append

    def scan(args):
        rec.captured["episode_stack"] = [args[0].mercury]

    def episode(args):
        rec.ctx = args[0]
        rec.captured["episode_stack"] = []

        def after(_):
            for mercury in rec.captured.pop("episode_stack", []):
                rec.captured["snapshots"].append(snapshot(MetricsCollector(
                    mercury.machine, kernel=mercury.kernel,
                    mercury=mercury)))
        return after

    rec.wrap(Shard, "step", "sim", next_window)
    rec.wrap(FleetNode, "advance", "sim", advance)
    rec.wrap(Shard, "collect", "sim")
    rec.count(trace, "tracing", "tracing_enters")
    for name in ("validate", "canonical_lines", "merge_canonical"):
        rec.wrap(trace, name, "trace")
    rec.wrap(orchestrator, "build_fleet_node", "fleet")
    rec.wrap(LoadBalancer, "pick", "fleet")
    rec.wrap(FrontendNode, "on_message", "fleet")
    rec.wrap(ServiceNode, "on_message", "fleet")
    rec.wrap(LiveUpdater, "apply", "scenarios")
    rec.wrap(Mercury, "attach", "core")
    rec.wrap(Mercury, "detach", "core")
    rec.wrap(RecoveryManager, "recover", "core")
    rec.wrap(chaoscampaign, "check_all", "core")
    rec.wrap(Watchdog, "scan", "watchdog", scan)
    rec.wrap(ElasticMemoryController, "step", "vmm")
    rec.wrap(Kernel, "syscall", "guestos")
    rec.wrap(chaoscampaign, "run_episode", "bench", episode)
    rec.wrap(runner, "build_config", "bench", sut)
    rec.wrap(MetricsCollector, "snapshot", "metrics")
