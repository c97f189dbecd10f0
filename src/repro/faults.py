"""Deterministic fault injection for the mode-switch pipeline (§8).

The paper's dependability argument (§4.3, §5.1) requires that a mode switch
never leaves the kernel half-transferred.  Proving that needs faults raised
*inside* the switch — not just resource exhaustion around it — at every
point where the pipeline touches shared state: the refcount gate, the SMP
rendezvous, the state-transfer loops, and the per-CPU hardware reloads.

Faults here are **deterministic**: a :class:`FaultPlan` arms a named
:class:`FaultSite` by *hit ordinal* (fire on the Nth time execution reaches
the site) and *count* (fire that many consecutive times, or forever).  No
wall-clock, no randomness — the same plan against the same workload injects
at exactly the same instruction, every run, which is what lets the crash
matrix bisect a rollback bug to a single site.

The pipeline hooks call :func:`fire`; it is a no-op (one ``is None`` test)
unless a plan is installed via :func:`install_plan` / :func:`injected`, so
production paths pay nothing.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro import trace


@dataclass(frozen=True)
class FaultSite:
    """One named seam in the switch pipeline where a fault can be armed."""

    name: str
    description: str
    #: the site only exists on multi-CPU machines (IPI/rendezvous seams)
    smp_only: bool = False
    #: the site is reached during a mode switch (matrix-testable); False
    #: for workload-time seams like the hypercall dispatcher
    during_switch: bool = True
    #: VMM sites only: the invariant registry entry
    #: (:data:`repro.core.invariants.REGISTRY`) whose verdict the
    #: corruption must trigger
    targets: str = ""


# -- the switch-pipeline site catalogue (docs/architecture.md mirrors it) --

REFCOUNT_STUCK = "switch.refcount-stuck"
IPI_DROPPED = "smp.ipi-dropped"
IPI_DELAYED = "smp.ipi-delayed"
RENDEZVOUS_TIMEOUT = "smp.rendezvous-timeout"
TRANSFER_HYPERCALL = "transfer.hypercall-error"
PT_TRANSFER_ABORT = "transfer.pt-abort"
RELOAD_SECONDARY = "reload.secondary-failure"
#: workload-time seam: a transient failure in the mmu_update hypercall
MMU_UPDATE_TRANSIENT = "vmm.mmu-update-transient"

#: the registry the crash matrix iterates: every site reached by the
#: attach/detach pipeline
SWITCH_SITES: tuple[FaultSite, ...] = (
    FaultSite(REFCOUNT_STUCK,
              "the VO reference count reads as stuck non-zero at the "
              "commit gate (§5.1.1), forcing the retry path"),
    FaultSite(IPI_DROPPED,
              "the rendezvous IPI to a secondary CPU is lost (§5.4)",
              smp_only=True),
    FaultSite(IPI_DELAYED,
              "the rendezvous IPI to a secondary CPU is delivered late, "
              "stretching the gather phase", smp_only=True),
    FaultSite(RENDEZVOUS_TIMEOUT,
              "the shared-counter gather never completes", smp_only=True),
    FaultSite(TRANSFER_HYPERCALL,
              "a transient HypercallError strikes mid state transfer "
              "(§5.1.2)"),
    FaultSite(PT_TRANSFER_ABORT,
              "the page-table transfer aborts partway, leaving some "
              "address spaces transferred and some not"),
    FaultSite(RELOAD_SECONDARY,
              "a secondary CPU's hardware state reload fails (§5.1.3) "
              "after the control processor already committed its work",
              smp_only=True),
)

#: seams outside the switch pipeline (stress/storm tests use these)
WORKLOAD_SITES: tuple[FaultSite, ...] = (
    FaultSite(MMU_UPDATE_TRANSIENT,
              "the mmu_update hypercall fails transiently under workload",
              during_switch=False),
)

# -- in-attached-mode VMM corruption sites (ReHype-style, chaos campaign) --

VMM_PAGEINFO_CORRUPT = "vmm.pageinfo-corrupt"
VMM_CHANNEL_WEDGED = "vmm.event-channel-wedged"
VMM_BACKEND_DEAD = "vmm.backend-dead"
VMM_GRANT_POISONED = "vmm.grant-poisoned"
VMM_REFCOUNT_RUNAWAY = "vmm.refcount-runaway"
VMM_TRAP_VECTOR_DROPPED = "vmm.trap-vector-dropped"
VMM_BALLOON_WEDGED = "vmm.balloon-ring-wedged"

#: corruption of the *attached* VMM's own structures — not switch-pipeline
#: seams.  These are state corruptors injected by :func:`inject_vmm_fault`
#: while a workload runs; the watchdog must notice and recovery must
#: microreboot the VMM under the live guest (ReHype, PAPERS.md)
VMM_SITES: tuple[FaultSite, ...] = (
    FaultSite(VMM_PAGEINFO_CORRUPT,
              "a PageInfoTable column cell (type or type_count) is "
              "silently corrupted, poisoning later validations",
              during_switch=False, targets="page-info"),
    FaultSite(VMM_CHANNEL_WEDGED,
              "a connected event channel is left pending+masked forever, "
              "so its upcall never runs again", during_switch=False,
              targets="channel-masks"),
    FaultSite(VMM_BACKEND_DEAD,
              "a split-driver backend wedges inside poll (its re-entry "
              "guard sticks), going dead to all future kicks",
              during_switch=False, targets="backend-liveness"),
    FaultSite(VMM_GRANT_POISONED,
              "a grant entry is poisoned: retargeted at a VMM-owned frame "
              "or given an impossible negative map count",
              during_switch=False, targets="grant-refs"),
    FaultSite(VMM_REFCOUNT_RUNAWAY,
              "the switch-gating VO reference count runs away upward, "
              "wedging every future mode-switch commit", during_switch=False,
              targets="vo-refcount"),
    FaultSite(VMM_TRAP_VECTOR_DROPPED,
              "a registered trap-table vector vanishes, so the VMM "
              "silently drops that interrupt", during_switch=False,
              targets="trap-table"),
    FaultSite(VMM_BALLOON_WEDGED,
              "a balloon backend's ring wedges: the deflate doorbell is "
              "lost (req_event pushed past any reachable producer index), "
              "so posted extents are never consumed", during_switch=False,
              targets="balloon-ring"),
)

ALL_SITES: tuple[FaultSite, ...] = SWITCH_SITES + WORKLOAD_SITES + VMM_SITES
_SITE_BY_NAME = {s.name: s for s in ALL_SITES}


def site(name: str) -> FaultSite:
    """Look up a site by name (KeyError on an unknown site)."""
    return _SITE_BY_NAME[name]


@dataclass
class ArmedFault:
    """One armed site: deterministic trigger bookkeeping."""

    site: str
    #: fire starting at this hit ordinal (1 = the first time the site runs)
    trigger_at: int = 1
    #: how many consecutive hits fire; ``None`` = every hit from trigger_at
    times: Optional[int] = 1
    #: restrict to one CPU's traversal of the site (None = any CPU)
    cpu_id: Optional[int] = None
    hits: int = 0
    fired: int = 0

    def matches(self, cpu_id: Optional[int]) -> bool:
        return self.cpu_id is None or self.cpu_id == cpu_id

    def should_fire(self) -> bool:
        """Record one hit; True if this hit is within the armed window."""
        self.hits += 1
        if self.hits < self.trigger_at:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A deterministic set of armed faults, installable as the active plan."""

    def __init__(self):
        self._armed: dict[str, list[ArmedFault]] = {}
        self.injected = 0
        #: (site, cpu_id) log of every firing, in order — the audit trail
        self.log: list[tuple[str, Optional[int]]] = []

    def arm(self, site_name: str, trigger_at: int = 1,
            times: Optional[int] = 1,
            cpu_id: Optional[int] = None) -> ArmedFault:
        if site_name not in _SITE_BY_NAME:
            raise KeyError(f"unknown fault site {site_name!r}")
        fault = ArmedFault(site_name, trigger_at=trigger_at, times=times,
                           cpu_id=cpu_id)
        self._armed.setdefault(site_name, []).append(fault)
        return fault

    def disarm(self, site_name: str) -> None:
        self._armed.pop(site_name, None)

    def disarm_all(self) -> None:
        self._armed.clear()

    def armed_sites(self) -> list[str]:
        return sorted(self._armed)

    def check(self, site_name: str, cpu_id: Optional[int] = None) -> bool:
        """Record one traversal of ``site_name``; True if a fault fires."""
        fired = False
        for fault in self._armed.get(site_name, ()):
            if fault.matches(cpu_id) and fault.should_fire():
                fired = True
        if fired:
            self.injected += 1
            self.log.append((site_name, cpu_id))
            global _INJECTED_TOTAL
            _INJECTED_TOTAL += 1
            trace.instant(cpu_id if cpu_id is not None else 0,
                          "fault.injected", site=site_name)
        return fired


# ---------------------------------------------------------------------------
# the active plan (the simulator is single-threaded; module scope is the
# natural "machine-wide" scope)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
#: lifetime count of injected faults, monotonic across plans — what the
#: metrics layer snapshots (plans come and go; snapshots are diffed)
_INJECTED_TOTAL = 0


def install_plan(plan: FaultPlan) -> None:
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def injected_total() -> int:
    return _INJECTED_TOTAL


def fire(site_name: str, cpu_id: Optional[int] = None) -> bool:
    """The pipeline hook: does the active plan (if any) inject here, now?"""
    if _ACTIVE is None:
        return False
    return _ACTIVE.check(site_name, cpu_id)


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a with-block (tests' main door)."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


# ---------------------------------------------------------------------------
# VMM-state corruptors (the chaos campaign's injection arm)
# ---------------------------------------------------------------------------
#
# Unlike the switch-pipeline sites — which raise an exception *at* a seam the
# pipeline traverses — VMM sites corrupt resident state in place and return.
# Nothing fails at injection time; the damage is latent until the watchdog
# scan (or a later workload touch) trips over it.  ``variant`` selects the
# victim deterministically (index-mod over the eligible set) so hypothesis
# can sweep single-field corruptions without randomness.

#: how far the runaway refcount jumps (well past the watchdog threshold)
REFCOUNT_RUNAWAY_AMOUNT = 1000


def _record_injection(site_name: str, cpu_id: Optional[int] = None) -> None:
    """Mirror :meth:`FaultPlan.check`'s bookkeeping for a direct injection:
    the lifetime counter, the active plan's audit log, and the trace mark."""
    global _INJECTED_TOTAL
    _INJECTED_TOTAL += 1
    if _ACTIVE is not None:
        _ACTIVE.injected += 1
        _ACTIVE.log.append((site_name, cpu_id))
    trace.instant(cpu_id if cpu_id is not None else 0,
                  "fault.injected", site=site_name)


def inject_vmm_fault(site_name: str, mercury, variant: int = 0) -> str:
    """Corrupt one piece of the *attached* VMM's state in place.

    Returns a short description of what was corrupted (victim + field) for
    episode logs.  Raises :class:`VMMError` when the stack has no eligible
    victim for the site (e.g. no connected channel to wedge) and
    ``ValueError`` on an unknown VMM site — both before any damage is done.
    """
    from repro.errors import VMMError

    vmm = mercury.vmm
    if site_name == VMM_PAGEINFO_CORRUPT:
        pi = vmm.page_info
        victim = variant % len(pi.type_count)
        if (variant // len(pi.type_count)) % 2:
            pi.type[victim] ^= 1
            what = f"type[{victim}] bit-flipped"
        else:
            pi.type_count[victim] += 7
            what = f"type_count[{victim}] skewed"
    elif site_name == VMM_CHANNEL_WEDGED:
        chans = vmm.events._channels
        connected = [chans[k] for k in sorted(chans)
                     if chans[k].peer_domain is not None]
        if not connected:
            raise VMMError("no connected event channel to wedge")
        ch = connected[variant % len(connected)]
        ch.masked = True
        ch.pending = True
        what = f"channel ({ch.owner_domain},{ch.port}) wedged pending+masked"
    elif site_name == VMM_BACKEND_DEAD:
        backends = mercury.backends
        if not backends:
            raise VMMError("no split-driver backend to kill")
        back = backends[variant % len(backends)]
        back._in_poll = True
        what = f"{type(back).__name__} wedged in poll"
    elif site_name == VMM_GRANT_POISONED:
        entries = vmm.grants._entries
        live = [entries[k] for k in sorted(entries) if not entries[k].revoked]
        if not live:
            raise VMMError("no live grant entry to poison")
        entry = live[variant % len(live)]
        if (variant // max(1, len(live))) % 2:
            entry.active_maps = -3
            what = (f"grant ({entry.granting_domain},{entry.ref}) "
                    f"active_maps poisoned")
        else:
            entry.frame = vmm._reserved_frames[0]
            what = (f"grant ({entry.granting_domain},{entry.ref}) retargeted "
                    f"at a VMM frame")
    elif site_name == VMM_REFCOUNT_RUNAWAY:
        if mercury.virtual_vo is None:
            raise VMMError("no virtual VO whose refcount could run away")
        mercury.virtual_vo.refcount += REFCOUNT_RUNAWAY_AMOUNT
        what = f"virtual VO refcount +{REFCOUNT_RUNAWAY_AMOUNT}"
    elif site_name == VMM_BALLOON_WEDGED:
        from repro.vmm.backend import BalloonBack
        balloons = [b for b in mercury.backends
                    if isinstance(b, BalloonBack)]
        if not balloons:
            raise VMMError("no balloon backend whose ring could wedge")
        back = balloons[variant % len(balloons)]
        ring = back.ring
        if (variant // max(1, len(balloons))) % 2:
            ring.c.rsp_event = ring.c.rsp_prod + 10 * ring.size
            what = (f"balloon ring completion doorbell lost (rsp_event "
                    f"pushed to {ring.c.rsp_event})")
        else:
            ring.c.req_event = ring.c.req_prod + 10 * ring.size
            what = (f"balloon ring deflate doorbell lost (req_event "
                    f"pushed to {ring.c.req_event})")
    elif site_name == VMM_TRAP_VECTOR_DROPPED:
        if mercury.domain is None:
            raise VMMError("no driver domain whose trap table could decay")
        table = mercury.domain.trap_table
        vectors = sorted(v for v in mercury.kernel.idt.gates if v in table)
        if not vectors:
            raise VMMError("no registered trap vector to drop")
        vector = vectors[variant % len(vectors)]
        del table[vector]
        what = f"trap vector {vector:#x} dropped"
    else:
        raise ValueError(f"not a VMM fault site: {site_name!r}")
    _record_injection(site_name)
    return what
