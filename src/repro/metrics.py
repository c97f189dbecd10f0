"""System-wide metrics collection and reporting.

Gathers the counters every layer already maintains — hypercalls served,
traps emulated, interrupts delivered, TLB hit rates, buffer-cache hit
rates, ring traffic, mode switches — into one snapshot, diffable across a
workload run.  The examples and benches use it to explain *why* a
configuration is slower, not just that it is.

:data:`COUNTERS` is the one catalogue.  Each :class:`Counter` row names
the layer that owns the counter, its report label, the collector
attribute it is read from, the reader, and how readings of disjoint
machines combine.  The snapshot type, :meth:`MetricsCollector.snapshot`,
the diff, :meth:`MetricsSnapshot.merge` and :func:`format_report` all
iterate over it, so adding a counter is adding one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro import faults, trace

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.guestos.kernel import Kernel
    from repro.hw.machine import Machine
    from repro.vmm.hypervisor import Hypervisor

#: merge rules: per-machine counts add; ``max`` keeps the furthest reading
#: (every machine of a sharded fleet has its own clock); ``hist`` is a
#: ``{bucket: count}`` dict that diffs and adds key-wise
ADD = "add"
MAX = "max"
HIST = "hist"


@dataclass(frozen=True)
class Counter:
    """One counter.  ``read`` — a callable or a dotted attribute path —
    takes the collector attribute named by ``source`` and is skipped while
    that attribute is None (the reading keeps its zero default); a
    ``source=None`` row is filled in by its owner after collection.  An
    empty ``label`` keeps the row out of :func:`format_report`."""

    name: str
    #: the ``repro.<package>`` that owns the counter
    layer: str
    label: str
    source: Optional[str]
    read: Union[Callable[[Any], Any], str, None]
    merge: str = ADD

    def __post_init__(self):
        if isinstance(self.read, str):
            object.__setattr__(self, "read", attrgetter(self.read))


#: every counter, grouped by owning layer in report order
COUNTERS: tuple[Counter, ...] = (
    Counter("cycles", "hw", "", "machine", "clock.cycles", MAX),
    Counter("tlb_hits", "hw", "TLB hits", "machine",
            lambda m: sum(cpu.tlb.hits for cpu in m.cpus)),
    Counter("tlb_misses", "hw", "TLB misses", "machine",
            lambda m: sum(cpu.tlb.misses for cpu in m.cpus)),
    Counter("tlb_flushes", "hw", "TLB flushes", "machine",
            lambda m: sum(cpu.tlb.flushes for cpu in m.cpus)),
    Counter("interrupts_delivered", "hw", "interrupts", "machine",
            "intc.delivered"),
    Counter("ipis_sent", "hw", "IPIs sent", "machine", "intc.sent_ipis"),
    Counter("disk_requests", "hw", "disk requests", "machine",
            "disk.requests_served"),
    Counter("nic_tx_packets", "hw", "packets tx", "machine", "nic.tx_packets"),
    Counter("nic_rx_packets", "hw", "packets rx", "machine", "nic.rx_packets"),

    Counter("syscalls", "guestos", "syscalls", "kernel", "syscalls_served"),
    Counter("forks", "guestos", "forks", "kernel", "procs.forks"),
    Counter("execs", "guestos", "execs", "kernel", "procs.execs"),
    Counter("context_switches", "guestos", "context switches", "kernel",
            "scheduler.switches"),
    Counter("minor_faults", "guestos", "minor faults", "kernel",
            "vmem.minor_faults"),
    Counter("cow_breaks", "guestos", "COW breaks", "kernel",
            "vmem.cow_breaks"),
    Counter("prot_faults", "guestos", "protection faults", "kernel",
            "vmem.prot_faults"),
    Counter("cache_hits", "guestos", "cache hits", "kernel", "fs.cache.hits"),
    Counter("cache_misses", "guestos", "cache misses", "kernel",
            "fs.cache.misses"),
    Counter("journal_commits", "guestos", "journal commits", "kernel",
            "fs.journal_commits"),

    Counter("hypercalls", "vmm", "hypercalls", "vmm", "hypercalls_served"),
    Counter("traps_emulated", "vmm", "traps emulated", "vmm",
            "traps_emulated"),
    Counter("page_validations", "vmm", "page validations", "vmm",
            "page_info.validations"),
    Counter("world_switches", "vmm", "world switches", "vmm",
            "scheduler.world_switches"),
    Counter("mmu_batches", "vmm", "mmu batches", "vmm", "mmu_batches"),
    Counter("mmu_batched_updates", "vmm", "batched updates", "vmm",
            "mmu_batched_updates"),
    # split-driver datapath (§5.2 notification avoidance)
    Counter("io_notifies_sent", "vmm", "notifies sent", "vmm",
            "io_stats.notifies_sent"),
    Counter("io_notifies_suppressed", "vmm", "notifies suppressed", "vmm",
            "io_stats.notifies_suppressed"),
    Counter("io_ring_batches", "vmm", "ring batches", "vmm",
            "io_stats.ring_batches"),
    Counter("io_ring_batched_entries", "vmm", "ring entries", "vmm",
            "io_stats.ring_batched_entries"),
    Counter("io_rx_dropped", "vmm", "rx dropped", "vmm",
            "io_stats.rx_dropped"),
    Counter("events_coalesced", "vmm", "events coalesced", "vmm",
            lambda vmm: vmm.events.total_coalesced()),
    # memory elasticity: frames the balloon backends moved
    Counter("balloon_inflated", "vmm", "balloon inflated", "mercury",
            lambda m: sum(back.inflated for _, back in m.balloons.values())),
    Counter("balloon_deflated", "vmm", "balloon deflated", "mercury",
            lambda m: sum(back.deflated for _, back in m.balloons.values())),

    Counter("mode_switches", "core", "mode switches", "mercury",
            lambda mercury: len(mercury.switch_records)),
    Counter("vo_entries", "core", "VO entries", "kernel", "vo.entries"),
    # dependability (§8 failure-resistant switching)
    Counter("switch_retries", "core", "switch retries", "mercury",
            "engine.total_retries"),
    Counter("pending_retries", "core", "pending retries", "mercury",
            "engine.pending_retries"),
    Counter("failed_attempts", "core", "busy collisions", "mercury",
            "engine.failed_attempts"),
    Counter("switch_rollbacks", "core", "switch rollbacks", "mercury",
            "engine.switch_rollbacks"),
    Counter("rollback_steps", "core", "rollback steps", "mercury",
            "engine.rollback_steps"),
    Counter("switch_aborts", "core", "switch aborts", "mercury",
            "engine.switch_aborts"),
    # committed-switch retry distribution: retries consumed -> #switches
    Counter("retry_histogram", "core", "retry histogram", "mercury",
            lambda mercury: dict(mercury.engine.retry_histogram), HIST),
    Counter("faults_injected", "core", "faults injected", "faults",
            lambda module: module.injected_total()),
    # ReHype-style microreboot
    Counter("recoveries", "core", "recoveries", "recovery", "recoveries"),
    Counter("recovery_failures", "core", "recovery failures", "recovery",
            "recovery_failures"),
    Counter("emergency_detaches", "core", "emergency detaches", "recovery",
            "emergency_detaches"),

    Counter("watchdog_scans", "watchdog", "watchdog scans", "watchdog",
            "scans"),
    Counter("watchdog_detections", "watchdog", "corruptions found",
            "watchdog", "detections"),
    # invariant name -> #verdicts
    Counter("watchdog_verdicts", "watchdog", "verdicts", "watchdog",
            lambda watchdog: dict(watchdog.verdicts), HIST),

    # observation-only: both stay 0 unless a tracer is installed
    Counter("trace_events", "trace", "trace events", "tracer", "recorded"),
    Counter("trace_dropped", "trace", "trace dropped", "tracer", "dropped"),

    # request latency: log-bucketed cycles -> #requests (see
    # :mod:`repro.fleet.latency`); the fleet frontend fills it in
    Counter("latency_histogram", "fleet", "", None, None, HIST),
)

#: derived rates the report appends: (label, property, format type)
_RATES = (("avg batch size", "avg_batch_size", "f"),
          ("avg io batch", "avg_io_batch_size", "f"),
          ("notify suppression", "notify_suppression_ratio", "%"),
          ("TLB hit rate", "tlb_hit_rate", "%"),
          ("cache hit rate", "cache_hit_rate", "%"))


class _Readings:
    """What every snapshot can do: diff, merge, and the derived rates.
    The fields themselves come from :data:`COUNTERS`."""

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        out = {}
        for c in COUNTERS:
            mine, theirs = getattr(self, c.name), getattr(other, c.name)
            if c.merge == HIST:
                out[c.name] = {k: v - theirs.get(k, 0) for k, v in mine.items()
                               if v - theirs.get(k, 0)}
            else:
                out[c.name] = mine - theirs
        return type(self)(**out)

    @classmethod
    def merge(cls, snapshots) -> "MetricsSnapshot":
        """Combine snapshots of *disjoint* machine sets into one fleet-wide
        reading, each counter by its row's merge rule.  Associative and
        commutative, so merging per-shard merges equals merging all
        per-machine snapshots directly, however the fleet was
        partitioned."""
        out = cls()
        for snap in snapshots:
            for c in COUNTERS:
                value = getattr(snap, c.name)
                if c.merge == HIST:
                    acc = getattr(out, c.name)
                    for key, count in value.items():
                        acc[key] = acc.get(key, 0) + count
                else:
                    mine = getattr(out, c.name)
                    setattr(out, c.name, max(mine, value)
                            if c.merge == MAX else mine + value)
        return out

    @property
    def tlb_hit_rate(self) -> float:
        total = self.tlb_hits + self.tlb_misses
        return self.tlb_hits / total if total else 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def avg_batch_size(self) -> float:
        return (self.mmu_batched_updates / self.mmu_batches
                if self.mmu_batches else 0.0)

    @property
    def avg_io_batch_size(self) -> float:
        return (self.io_ring_batched_entries / self.io_ring_batches
                if self.io_ring_batches else 0.0)

    @property
    def notify_suppression_ratio(self) -> float:
        total = self.io_notifies_sent + self.io_notifies_suppressed
        return self.io_notifies_suppressed / total if total else 0.0

    @property
    def elapsed_us(self) -> float:
        return self.cycles / 3000.0


MetricsSnapshot = make_dataclass(
    "MetricsSnapshot",
    [(c.name, dict, field(default_factory=dict)) if c.merge == HIST
     else (c.name, int, 0) for c in COUNTERS],
    bases=(_Readings,),
    namespace={"__module__": __name__,
               "__doc__": "One point-in-time reading of every counter."})

#: collector attributes the readers take, each resolved once per snapshot
_SOURCES = tuple(dict.fromkeys(c.source for c in COUNTERS if c.source))


class MetricsCollector:
    """Reads the counters of one machine/kernel/VMM/Mercury stack."""

    #: home of the process-wide injected-fault count
    faults = faults

    def __init__(self, machine: "Machine",
                 kernel: Optional["Kernel"] = None,
                 vmm: Optional["Hypervisor"] = None,
                 mercury: Optional["Mercury"] = None):
        self.machine = machine
        self.kernel = kernel
        self.mercury = mercury
        self._vmm = vmm

    @property
    def vmm(self) -> Optional["Hypervisor"]:
        """The ``vmm`` passed in, else the stack's *current* VMM: a
        microreboot replaces ``mercury.vmm``."""
        if self._vmm is not None or self.mercury is None:
            return self._vmm
        return self.mercury.vmm

    @property
    def watchdog(self):
        return self.mercury.watchdog if self.mercury is not None else None

    @property
    def recovery(self):
        return self.mercury.recovery if self.mercury is not None else None

    @property
    def tracer(self) -> Optional["trace.Tracer"]:
        return trace.active()

    def snapshot(self) -> MetricsSnapshot:
        sources = {name: getattr(self, name) for name in _SOURCES}
        return MetricsSnapshot(**{
            c.name: c.read(sources[c.source]) for c in COUNTERS
            if sources.get(c.source) is not None})

    def measure(self, fn, *args, **kwargs):
        """Run ``fn`` and return (result, delta snapshot)."""
        before = self.snapshot()
        result = fn(*args, **kwargs)
        return result, self.snapshot() - before


def format_report(delta: MetricsSnapshot, title: str = "Metrics") -> str:
    """Human-readable account of one measured interval: every labelled,
    non-zero counter grouped by the layer that owns it, then the rates."""
    lines = [title, "", f"  elapsed           {delta.elapsed_us:14.1f} µs"]
    groups: dict[str, list[str]] = {}
    for c in COUNTERS:
        value = getattr(delta, c.name)
        if not (c.label and value):
            continue
        if c.merge == HIST:
            value = ", ".join(f"{k}x{v}" for k, v in sorted(value.items()))
        groups.setdefault(c.layer, []).append(f"    {c.label:<18}{value:>12}")
    for layer, rows in groups.items():
        lines.append(f"  {layer}:")
        lines.extend(rows)
    for label, name, kind in _RATES:
        value = getattr(delta, name)
        if value:
            lines.append(f"  {label:<18}{value:14.1{kind}}")
    return "\n".join(lines)
