"""Cross-domain memory elasticity: the host-side reclaim/grant policy.

The balloon datapath (``guestos.splitio.BalloonFront`` /
``vmm.backend.BalloonBack``) moves frames; this controller decides *which
way* and *how many*.  Each round it samples per-domain memory pressure,
reclaims from idle domains (never below their floor) and grants to loaded
ones (never past what the host free pool can back).

Two ablatable strategies, following the related work:

- ``hypervisor-driven`` (HyperAlloc-style): the host names the exact
  victim frames, highest frame number first, from its P2M view of the
  guest's balloon-visible memory.  Victims may be mapped and hot — the
  guest must unmap them and pays a victim-page fault on the next touch.
- ``guest-delegated`` (Demeter-style): the host posts only a target; the
  guest surrenders its own coldest memory (pool first, region tails
  last), so no faults follow.

Both strategies converge to identical final domain sizes — the policy is
strategy-independent, only the victim choice (and so reclaim latency and
fault tax) differs.  All decisions are pure functions of simulator state,
preserving the byte-identical determinism contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from repro.core.mercury import Mercury
    from repro.hw.cpu import Cpu

STRATEGIES = ("hypervisor-driven", "guest-delegated")

#: frames the controller always leaves in the host free pool — a grant
#: must never starve the host's own allocations
HOST_HEADROOM_FRAMES = 16

#: pressure at or below this samples as idle (a reclaim candidate)
IDLE_PRESSURE = 0


class ElasticMemoryController:
    """Samples pressure and drives balloon targets for every connected
    domain of one :class:`~repro.core.mercury.Mercury` stack."""

    def __init__(self, mercury: "Mercury",
                 strategy: str = "guest-delegated", *,
                 reclaim_step: int = 16, grant_step: int = 16,
                 pressure_fn: Optional[Callable[[int], int]] = None):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown elastic strategy {strategy!r}")
        self.mercury = mercury
        self.strategy = strategy
        self.reclaim_step = reclaim_step
        self.grant_step = grant_step
        #: override pressure source (the fleet feeds queue depth through
        #: this); default is the guest's minor-fault delta per round
        self._pressure_fn = pressure_fn
        self._last_faults: dict[int, int] = {}
        self.rounds = 0
        self.reclaims = 0
        self.grants = 0
        self.pages_reclaimed = 0
        self.pages_granted = 0
        #: cycles from posting a reclaim target to the ledger reaching it
        self.reclaim_latencies: list[int] = []
        #: ``(round, op, owner, pages)`` — canonical decision log
        self.log: list[tuple] = []

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def pressure(self, owner_id: int) -> int:
        """Memory pressure of one domain this round.  The default metric
        is the guest's minor-fault delta since the last sample: a domain
        that faults is growing its working set; one that does not is
        idle."""
        if self._pressure_fn is not None:
            return self._pressure_fn(owner_id)
        front, _ = self.mercury.balloons[owner_id]
        faults = front.kernel.vmem.minor_faults
        last = self._last_faults.get(owner_id, 0)
        self._last_faults[owner_id] = faults
        return faults - last

    # ------------------------------------------------------------------
    # one policy round
    # ------------------------------------------------------------------

    def step(self, cpu: "Cpu") -> list[tuple]:
        """Sample every domain, then apply reclaims before grants (the
        reclaims stock the host free pool the grants draw from).  Returns
        this round's decision log entries."""
        self.rounds += 1
        decisions: list[tuple] = []
        reclaim_plans = []
        grant_plans = []
        for owner, (front, back) in sorted(self.mercury.balloons.items()):
            dom = back.guest_domain
            if dom.mem_pages == 0:
                continue
            if self.pressure(owner) <= IDLE_PRESSURE:
                target = max(dom.mem_floor,
                             dom.mem_pages - self.reclaim_step)
                if target < dom.mem_pages:
                    reclaim_plans.append((owner, front, back, target))
            else:
                grant_plans.append((owner, front, back))

        for owner, front, back, target in reclaim_plans:
            dom = back.guest_domain
            before = dom.mem_pages
            victims = ()
            if self.strategy == "hypervisor-driven":
                need = before - target
                victims = tuple(sorted(front.resident_frames,
                                       reverse=True)[:need])
            start = self.mercury.machine.clock.cycles
            back.set_target(cpu, target, victims=victims)
            if dom.mem_pages > target:
                # the notify coalesced onto a pending event; chase directly
                front.process_target(cpu)
            self.reclaim_latencies.append(
                self.mercury.machine.clock.cycles - start)
            moved = before - dom.mem_pages
            self.reclaims += 1
            self.pages_reclaimed += moved
            decisions.append((self.rounds, "reclaim", owner, moved))

        mem = self.mercury.machine.memory
        for owner, front, back in grant_plans:
            dom = back.guest_domain
            budget = max(0, mem.free_frames - HOST_HEADROOM_FRAMES)
            step = min(self.grant_step, budget)
            if step == 0:
                continue
            before = dom.mem_pages
            back.set_target(cpu, before + step)
            if dom.mem_pages < before + step:
                front.process_target(cpu)
            moved = dom.mem_pages - before
            self.grants += 1
            self.pages_granted += moved
            decisions.append((self.rounds, "grant", owner, moved))

        self.log.extend(decisions)
        return decisions

    def summary(self) -> dict:
        lat = sorted(self.reclaim_latencies)
        return {
            "strategy": self.strategy,
            "rounds": self.rounds,
            "reclaims": self.reclaims,
            "grants": self.grants,
            "pages_reclaimed": self.pages_reclaimed,
            "pages_granted": self.pages_granted,
            "reclaim_latency_cycles_p50":
                lat[len(lat) // 2] if lat else 0,
            "reclaim_latency_cycles_max": lat[-1] if lat else 0,
        }
