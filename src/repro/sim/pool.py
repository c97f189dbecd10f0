"""The sharded fleet driver and the parallel-episode pool.

Two parallelism shapes, both deterministic:

- :class:`ShardedSim` — ONE fleet of interacting machines, partitioned
  round-robin across shards and advanced in lock-step time windows.  The
  barrier protocol (below) guarantees a ``workers=k`` run is
  byte-identical to ``workers=1``.
- :func:`parallel_episodes` — MANY independent episodes (crash-matrix
  cells, fault-sweep points, chaos episodes) fanned across worker
  processes; each episode derives everything from its own parameters, so
  results are position-identical to the serial map.

Barrier protocol (window ``W``, horizons on the ``W`` grid)::

    horizon = W
    loop:
      batch   = pending messages with deliver_cycle <= horizon,
                sorted by (deliver_cycle, src, src_seq, dst)
      reports = every shard: inject its slice of batch, run its due nodes
                to horizon (a node is due in the first window, when it
                gets a message, or when its next work is <= horizon)
      pending += all outbound messages from reports
      done when all shards finished, no runnable work, nothing pending
      deadlock when only blocked tasks remain and nothing is in flight
      earliest = min(shard next-work cycles, pending deliver cycles)
      horizon  = max(horizon + W, W * ceil(earliest / W))   # skip idle gaps

Every quantity steering the loop (batch membership and order, the horizon
schedule, termination) is computed from *global* information, so the
schedule cannot depend on how machines were partitioned — that, plus
per-machine local purity and latency >= W (see :mod:`repro.sim.shard`),
is the whole determinism argument.  Skipping a node that is not due
changes nothing it would have computed (:meth:`~repro.sim.shard.Shard.step`
gives the argument), so the schedule is the one stepping every node in
every window would produce.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from math import ceil
from typing import Any, Callable, Iterable, Optional, Sequence

from repro import trace
from repro.hw.machine import isolated_machine_ids
from repro.metrics import MetricsSnapshot
from repro.sim.scheduler import SimDeadlock
from repro.sim.shard import (FleetMessage, NodeBuilder, Shard, ShardError,
                             ShardReport, sort_batch)

#: default barrier window: 200k cycles ~= 66 us at 3 GHz, comfortably
#: above every per-slice cost in the model yet short against workloads
DEFAULT_WINDOW_CYCLES = 200_000

#: barrier windows before a fleet that is still live counts as runaway
MAX_WINDOWS = 100_000


def _build_shard(shard_id: int, indices: Sequence[int],
                 builder: NodeBuilder, seed: int, kwargs: dict,
                 min_latency: int) -> Shard:
    """Construct one shard's nodes.  Each builder call runs under a fresh
    machine-id allocator, so node identity is a pure function of
    ``(index, seed, kwargs)`` — not of which shard (or process) builds it
    or in what order."""
    shard = Shard(shard_id, min_latency)
    for index in indices:
        with isolated_machine_ids():
            node = builder(index, seed, **kwargs)
        if node.index != index:
            raise ShardError(
                f"builder returned node index {node.index} for machine "
                f"{index}")
        shard.add(node)
    return shard


class _InlineShard:
    """Shard hosted in this process (workers=1, and property tests that
    want k-shard behavior without process startup)."""

    def __init__(self, shard_id, indices, builder, seed, kwargs,
                 min_latency):
        self._shard = _build_shard(shard_id, indices, builder, seed,
                                   kwargs, min_latency)
        self._report: Optional[ShardReport] = None

    def step_begin(self, horizon, inbound) -> None:
        self._report = self._shard.step(horizon, inbound)

    def step_end(self) -> ShardReport:
        report, self._report = self._report, None
        return report

    def blocked(self) -> list:
        return self._shard.blocked()

    def collect(self) -> dict:
        return self._shard.collect()

    def close(self) -> None:
        pass


def _shard_worker(conn, shard_id, indices, builder, seed, kwargs,
                  min_latency) -> None:
    """Worker-process loop: build once, then step/blocked/collect/exit on
    demand.
    Errors are forwarded as ("error", text) so the parent can raise with
    context instead of hanging on a dead pipe."""
    try:
        shard = _build_shard(shard_id, indices, builder, seed, kwargs,
                             min_latency)
        conn.send(("ready", None))
        while True:
            op, arg = conn.recv()
            if op == "step":
                horizon, inbound = arg
                conn.send(("report", shard.step(horizon, inbound)))
            elif op == "blocked":
                conn.send(("blocked", shard.blocked()))
            elif op == "collect":
                conn.send(("data", shard.collect()))
            elif op == "exit":
                return
            else:  # pragma: no cover - protocol misuse
                raise ShardError(f"unknown shard op {op!r}")
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


class _ProcessShard:
    """Shard hosted in a spawned worker process, driven over a pipe."""

    def __init__(self, ctx, shard_id, indices, builder, seed, kwargs,
                 min_latency):
        self.shard_id = shard_id
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker,
            args=(child, shard_id, indices, builder, seed, kwargs,
                  min_latency),
            daemon=True)
        self._proc.start()
        child.close()
        self._expect("ready")

    def _expect(self, tag: str):
        try:
            kind, payload = self._conn.recv()
        except EOFError:
            # EOF can arrive before the child is reaped; until then its
            # exitcode reads None
            self._proc.join(timeout=10)
            raise ShardError(
                f"shard {self.shard_id} worker died (exitcode="
                f"{self._proc.exitcode})") from None
        if kind == "error":
            raise ShardError(f"shard {self.shard_id} failed: {payload}")
        if kind != tag:  # pragma: no cover - protocol misuse
            raise ShardError(
                f"shard {self.shard_id}: expected {tag!r}, got {kind!r}")
        return payload

    def step_begin(self, horizon, inbound) -> None:
        self._conn.send(("step", (horizon, inbound)))

    def step_end(self) -> ShardReport:
        return self._expect("report")

    def blocked(self) -> list:
        self._conn.send(("blocked", None))
        return self._expect("blocked")

    def collect(self) -> dict:
        self._conn.send(("collect", None))
        return self._expect("data")

    def close(self) -> None:
        try:
            self._conn.send(("exit", None))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=10)
        if self._proc.is_alive():  # pragma: no cover - hung worker
            self._proc.terminate()
            self._proc.join(timeout=10)
        self._conn.close()


@dataclass
class FleetResult:
    """Merged outcome of a sharded fleet run.

    ``canonical_output`` deliberately excludes worker count and transport:
    the byte-identity contract is that those cannot matter."""

    num_machines: int
    window_cycles: int
    windows: int
    messages: int
    #: machine index -> that node's ``result()`` dict
    node_results: dict = field(default_factory=dict)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: fleet-wide canonical trace (``m{idx}|``-prefixed lines)
    canonical: list = field(default_factory=list)

    def canonical_output(self) -> str:
        head = {
            "machines": self.num_machines,
            "messages": self.messages,
            "nodes": {str(i): self.node_results[i]
                      for i in sorted(self.node_results)},
            "window_cycles": self.window_cycles,
            "windows": self.windows,
        }
        body = json.dumps(head, indent=1, sort_keys=True)
        return body + "\n" + "\n".join(self.canonical) + "\n"


class ShardedSim:
    """Drive one fleet of ``num_machines`` machines across ``workers``
    shards with conservative time-window barriers.

    ``builder(index, seed, **builder_kwargs)`` must be a module-level
    callable returning a :class:`~repro.sim.shard.FleetNode` — worker
    processes import it by reference.  ``transport`` defaults to
    ``"inline"`` for one worker (the serial fallback) and ``"process"``
    otherwise; property tests force ``"inline"`` with several shards to
    check partition-independence without process startup."""

    def __init__(self, builder: NodeBuilder, num_machines: int, *,
                 seed: int = 0, workers: int = 1,
                 window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 min_latency: Optional[int] = None,
                 transport: Optional[str] = None,
                 builder_kwargs: Optional[dict] = None):
        if num_machines < 1:
            raise ShardError("need at least one machine")
        if workers < 1:
            raise ShardError("need at least one worker")
        if window_cycles < 1:
            raise ShardError("window must be positive")
        self.builder = builder
        self.num_machines = num_machines
        self.seed = seed
        self.workers = min(workers, num_machines)
        self.window_cycles = int(window_cycles)
        self.min_latency = self.window_cycles if min_latency is None \
            else int(min_latency)
        if self.min_latency < self.window_cycles:
            raise ShardError(
                f"min_latency {self.min_latency} < window "
                f"{self.window_cycles}: conservative barriers need "
                f"lookahead >= the window")
        self.transport = transport or (
            "inline" if self.workers == 1 else "process")
        if self.transport not in ("inline", "process"):
            raise ShardError(f"unknown transport {self.transport!r}")
        self.builder_kwargs = dict(builder_kwargs or {})
        #: machine index -> shard id (round-robin)
        self.shard_of = {i: i % self.workers for i in range(num_machines)}

    # ------------------------------------------------------------------

    def _spawn_handles(self) -> list:
        ctx = multiprocessing.get_context("spawn") \
            if self.transport == "process" else None
        handles = []
        for shard_id in range(self.workers):
            indices = [i for i in range(self.num_machines)
                       if self.shard_of[i] == shard_id]
            args = (shard_id, indices, self.builder, self.seed,
                    self.builder_kwargs, self.min_latency)
            if ctx is None:
                handles.append(_InlineShard(*args))
            else:
                handles.append(_ProcessShard(ctx, *args))
        return handles

    def run(self) -> FleetResult:
        """Run the fleet to quiescence and return the merged result."""
        handles = self._spawn_handles()
        try:
            windows, messages = self._barrier_loop(handles)
            return self._gather(handles, windows, messages)
        finally:
            for handle in handles:
                handle.close()

    def _barrier_loop(self, handles: list) -> tuple:
        window = self.window_cycles
        pending: list[FleetMessage] = []
        horizon = window
        windows = 0
        messages = 0
        while True:
            windows += 1
            if windows > MAX_WINDOWS:
                raise ShardError(
                    f"fleet still live after {MAX_WINDOWS} windows "
                    f"(horizon {horizon}); runaway workload or too-small "
                    f"window")
            batch = sort_batch(
                [m for m in pending if m.deliver_cycle <= horizon])
            pending = [m for m in pending if m.deliver_cycle > horizon]
            for handle, shard_id in zip(handles, range(self.workers)):
                slice_ = [m for m in batch
                          if self.shard_of[m.dst] == shard_id]
                handle.step_begin(horizon, slice_)
            reports = [handle.step_end() for handle in handles]
            outbound = [m for r in reports for m in r.outbound]
            messages += len(outbound)
            pending.extend(outbound)

            all_finished = all(r.finished for r in reports)
            next_cycles = [r.next_cycle for r in reports
                           if r.next_cycle is not None]
            if not next_cycles and not pending:
                if all_finished:
                    return windows, messages
                blocked = ", ".join(
                    f"m{idx}:{name}" for handle in handles
                    for idx, name in handle.blocked())
                raise SimDeadlock(
                    f"fleet wedged at horizon {horizon}: no runnable "
                    f"work, no messages in flight; blocked: {blocked}")
            earliest = min(next_cycles +
                           [m.deliver_cycle for m in pending])
            horizon = max(horizon + window,
                          window * ceil(earliest / window))

    def _gather(self, handles: list, windows: int, messages: int
                ) -> FleetResult:
        node_results: dict[int, dict] = {}
        snapshots: dict[int, MetricsSnapshot] = {}
        canonical: dict[int, list] = {}
        for handle in handles:
            data = handle.collect()
            node_results.update(data["results"])
            snapshots.update(data["snapshots"])
            for index, (lines, errors) in data["traces"].items():
                if errors:
                    raise ShardError(
                        f"machine {index} trace ill-formed: "
                        + "; ".join(errors[:3]))
                canonical[index] = lines
        merged = MetricsSnapshot.merge(
            snapshots[i] for i in sorted(snapshots))
        return FleetResult(
            num_machines=self.num_machines,
            window_cycles=self.window_cycles,
            windows=windows,
            messages=messages,
            node_results=node_results,
            metrics=merged,
            canonical=trace.merge_canonical(canonical))


# ---------------------------------------------------------------------------
# independent-episode fan-out
# ---------------------------------------------------------------------------

def parallel_episodes(fn: Callable, params: Iterable, *,
                      workers: int = 1,
                      chunksize: Optional[int] = None) -> list:
    """Map ``fn`` over parameter tuples, optionally across processes.

    The parallel path is ``spawn``-based (no inherited state) and
    order-preserving (``Pool.starmap``), so with a per-episode-pure ``fn``
    the result list is identical at every worker count.  ``fn`` must be a
    module-level callable and every parameter/result picklable.  Scalars
    in ``params`` are promoted to 1-tuples."""
    jobs = [tuple(p) if isinstance(p, (list, tuple)) else (p,)
            for p in params]
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    procs = min(workers, len(jobs))
    if chunksize is None:
        chunksize = max(1, len(jobs) // (procs * 4))
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=procs) as pool:
        return pool.starmap(fn, jobs, chunksize=chunksize)
