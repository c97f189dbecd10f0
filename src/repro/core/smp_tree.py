"""Loosely-coupled SMP rendezvous (the §8 extension, implemented).

"With the number of cores per-chip increasing continuously ... a more
loosely-coupled synchronization protocol might be necessary when
detaching/attaching a VMM, instead of current protocols using IPI and
shared variables."

The flat protocol (§5.4, :mod:`repro.core.smp`) has the control processor
IPI every core and collect every acknowledgement itself: O(n) serial work
on the CP.  The tree protocol here fans the notification out through a
binary tree — each core forwards the IPI to its two children and
aggregates its subtree's acknowledgements — so the CP's serial work is
O(log n) and the gather completes in tree-depth rounds.

Only the notification and gather differ: :class:`TreeSmpCoordinator`
overrides that one step of :class:`~repro.core.smp.SmpCoordinator`, whose
protocol body (switch work, overlapped secondary reloads, completion,
unmasking on failure) both protocols share.  They produce identical state
(every core reloaded, same shared flags); the ablation bench compares
their gather latency as the core count grows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.smp import SmpCoordinator
from repro.hw.interrupts import VEC_SV_RENDEZVOUS

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu


class TreeSmpCoordinator(SmpCoordinator):
    """Binary-tree fan-out/fan-in rendezvous."""

    @staticmethod
    def _children(idx: int, n: int) -> list[int]:
        return [c for c in (2 * idx + 1, 2 * idx + 2) if c < n]

    @staticmethod
    def tree_depth(n: int) -> int:
        depth = 0
        span = 1
        while span < n:
            span *= 2
            depth += 1
        return depth

    def _notify_and_gather(self, cp: "Cpu", secondaries: list["Cpu"]) -> int:
        clock = self.machine.clock
        cost = cp.cost
        intc = self.machine.intc
        # order cores so the CP is the tree root
        order = [cp.cpu_id] + [c.cpu_id for c in secondaries]
        n = len(order)

        # fan-out: each tree level forwards in parallel
        ipis = 0
        depth = self.tree_depth(n)
        for level in range(depth):
            # all sends within one level overlap; we charge the CP's clock
            # once per level (a forwarding core's send overlaps its peers')
            level_sent = 0
            lo, hi = (2 ** level) - 1, (2 ** (level + 1)) - 1
            for idx in range(lo, min(hi, n)):
                for child in self._children(idx, n):
                    intc.raise_vector(order[child], VEC_SV_RENDEZVOUS)
                    level_sent += 1
            if level_sent:
                clock.advance(cost.cyc_ipi_send + cost.cyc_ipi_deliver)
                ipis += level_sent
        # every tree IPI is a hardware IPI; the sends were charged per level
        intc.sent_ipis += ipis

        # fan-in: acknowledgements aggregate up the tree, each level one
        # shared-variable update deep
        for c in secondaries:
            intc.consume_vector(c.cpu_id, VEC_SV_RENDEZVOUS)
            c.interrupts_enabled = False
        clock.advance(cost.cyc_refcount_check * depth)
        self.ready_count = n
        return ipis


def use_tree_protocol(mercury) -> None:
    """Swap a Mercury instance's rendezvous for the tree protocol."""
    mercury.engine.smp = TreeSmpCoordinator(mercury.machine)
