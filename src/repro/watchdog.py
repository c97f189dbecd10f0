"""VMI-style corruption watchdog for the attached VMM (ROADMAP item 4).

The low-overhead VMI monitoring line of work (PAPERS.md) shows that an
observer *outside* the monitored TCB can detect kernel/hypervisor object
corruption by periodically re-deriving invariants over a handful of
critical structures — without pausing the system and at a per-scan cost
that is noise next to the workload.  This module is that observer for the
Mercury stack: a :class:`Watchdog` schedules the ``vmm`` entries of the
invariant registry (:data:`repro.core.invariants.REGISTRY`: trap tables,
VO reference counts, I/O ring indices, grant entries, the columnar
:class:`~repro.vmm.page_info.PageInfoTable` digest, event-channel masks,
split-driver backends, balloon rings) and produces a **typed verdict** — a
:class:`~repro.errors.VmmCorruption` naming the failed invariant — instead
of letting the corruption fester until a guest-visible crash.

Design points that matter for determinism and honesty:

- The checks read simulator state directly (the "trace/metrics plane"):
  they never call into the VMM under scrutiny, so a wedged backend or
  poisoned grant table cannot hang the scanner.
- A scan runs the entries in registry order, stops at the first verdict
  and charges a flat ``CYC_SCAN`` to the clock.  At the default 2 ms
  interval that is well under the 2 % steady-state overhead gate.
- *Liveness* entries (backend stuck in poll, channel pending+masked,
  balloon extents undrained) can be legitimately true mid-operation:
  ``BlkBack`` runs timer events while polling with its channel masked.
  They therefore use a double-observation rule — a violation must persist
  for ``suspect_scans`` consecutive scans before the verdict fires.
  Property tests that scan a quiescent stack pass ``suspect_scans=1`` to
  get the within-one-scan-period detection guarantee.
- The watchdog never recovers anything itself.  It records the verdict in
  ``pending_verdict`` (and emits a ``watchdog.corruption`` trace instant);
  :meth:`repro.core.recovery.RecoveryManager.recover` consumes it from
  task context, where the VO refcounts are quiescent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro import trace
from repro.core.invariants import STRUCTURAL, VMM_INVARIANTS, vmm_attached
from repro.errors import VmmCorruption

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.hw.clock import TimerHandle

#: flat per-scan cycle charge (≈0.7 µs at 3 GHz) — the "low overhead" in
#: low-overhead VMI; the page-info digest is folded into this constant
#: rather than re-charged per PTE
CYC_SCAN = 2_000

#: default scan period: 2 ms of simulated time
DEFAULT_INTERVAL_CYCLES = 6_000_000


class Watchdog:
    """Periodic invariant scanner over one Mercury stack."""

    def __init__(self, mercury: "Mercury", *, suspect_scans: int = 2):
        self.mercury = mercury
        self.machine = mercury.machine
        self.suspect_scans = max(1, suspect_scans)
        #: first undelivered verdict; recovery consumes and clears it
        self.pending_verdict: Optional[VmmCorruption] = None
        self.scans = 0
        #: verdicts per invariant name
        self.verdicts: dict[str, int] = {}
        self._timer: Optional["TimerHandle"] = None
        self._interval = DEFAULT_INTERVAL_CYCLES
        #: consecutive-observation counters for the liveness entries:
        #: entry -> {violation detail -> scans it has persisted}
        self._suspects: dict = {}
        mercury.watchdog = self

    @property
    def detections(self) -> int:
        return sum(self.verdicts.values())

    # -- periodic scheduling ------------------------------------------------

    @property
    def running(self) -> bool:
        return self._timer is not None and self._timer.pending

    def start(self, interval_cycles: int = DEFAULT_INTERVAL_CYCLES) -> None:
        """Begin periodic scanning on the machine clock."""
        self._interval = max(1, int(interval_cycles))
        self.stop()
        self._timer = self.machine.clock.schedule(self._interval, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self._timer = None
        self.scan()
        # keep scanning until stopped — detection does not end monitoring,
        # recovery needs the watchdog to confirm the repaired state
        self._timer = self.machine.clock.schedule(self._interval, self._tick)

    # -- scanning -----------------------------------------------------------

    def scan(self, cpu=None) -> Optional[VmmCorruption]:
        """Run the ``vmm`` invariants once; return (and record) the first
        verdict, or None if the stack looks healthy.

        Skipped (returns None) while detached — there is no attached VMM
        to monitor — and while a recovery is mid-flight, when the stack is
        deliberately inconsistent.
        """
        if not vmm_attached(self.mercury):
            self._suspects.clear()
            return None
        self.scans += 1
        if cpu is not None:
            cpu.charge(CYC_SCAN)
        else:
            self.machine.clock.advance(CYC_SCAN)
        verdict = self._first_verdict()
        if verdict is not None:
            name = verdict.invariant
            self.verdicts[name] = self.verdicts.get(name, 0) + 1
            verdict.detected_cycles = self.machine.clock.cycles
            if self.pending_verdict is None:
                self.pending_verdict = verdict
            trace.instant(cpu.cpu_id if cpu is not None else 0,
                          "watchdog.corruption",
                          invariant=verdict.invariant)
        return verdict

    def _first_verdict(self) -> Optional[VmmCorruption]:
        """Registry order, first verdict wins; a liveness violation fires
        once it has persisted for ``suspect_scans`` consecutive scans (a
        violation that clears drops its count)."""
        for inv in VMM_INVARIANTS:
            if inv.kind == STRUCTURAL:
                detail = next(iter(inv.check(self.mercury)), None)
                if detail is not None:
                    return VmmCorruption(inv.name, detail)
                continue
            before = self._suspects.get(inv, {})
            counts = {detail: before.get(detail, 0) + 1
                      for detail in inv.check(self.mercury)}
            self._suspects[inv] = counts
            for detail, count in counts.items():
                if count >= self.suspect_scans:
                    return VmmCorruption(inv.name, detail)
        return None

    def take_verdict(self) -> Optional[VmmCorruption]:
        """Consume the pending verdict (recovery calls this)."""
        verdict, self.pending_verdict = self.pending_verdict, None
        return verdict
