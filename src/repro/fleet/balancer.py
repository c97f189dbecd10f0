"""Front-of-fleet load balancing with mode-switch awareness.

The balancer owns the routing view of every service machine: its
lifecycle state, and how many requests it has in flight.  Three policies:

- ``round-robin`` — cyclic over routable machines, ignores queue depth.
- ``least-outstanding`` — fewest in-flight requests wins (ties break on
  the lower machine index, keeping the pick deterministic).
- ``switch-aware`` — least-outstanding, but machines that announced an
  upcoming mode switch (:attr:`MachineState.DRAINING`) are excluded too,
  so their in-flight count bleeds to zero and the switch can start
  immediately.  This is the policy the paper's 0.2 ms switch wants in
  front of it: the wave drains one machine at a time instead of stalling
  requests behind a quiesce.

States and routability:

============  ===========================  =====================
state         meaning                      routable
============  ===========================  =====================
READY         serving                      always
DRAINING      mode switch announced        only non-switch-aware
SWITCHING     switch/update in progress    never
DOWN          failed / retired             never
SPARE         healthy, held in reserve     never (until promoted)
============  ===========================  =====================

Every decision is a pure function of the dispatch/completion history, so
the balancer adds nothing to the fleet's determinism obligations.
"""

from __future__ import annotations

import enum
from bisect import insort
from typing import Dict, Iterable, List

POLICIES = ("round-robin", "least-outstanding", "switch-aware")


class MachineState(enum.Enum):
    READY = "ready"
    DRAINING = "draining"
    SWITCHING = "switching"
    DOWN = "down"
    SPARE = "spare"


class NoRoutableMachine(RuntimeError):
    """Every machine is draining, switching, down, or held as a spare."""


class LoadBalancer:
    """Routing brain of the fleet frontend."""

    def __init__(self, machines: Iterable[int],
                 policy: str = "switch-aware",
                 spares: Iterable[int] = ()):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; "
                             f"expected one of {POLICIES}")
        self.policy = policy
        self.state: Dict[int, MachineState] = {}
        self.outstanding: Dict[int, int] = {}
        self.dispatches: Dict[int, int] = {}
        spare_set = set(spares)
        for index in machines:
            self.state[index] = (MachineState.SPARE if index in spare_set
                                 else MachineState.READY)
            self.outstanding[index] = 0
            self.dispatches[index] = 0
        if not self.state:
            raise ValueError("balancer needs at least one machine")
        self._rr_last = -1
        #: routable machines in index order, kept by :meth:`mark`
        self._routable = [i for i in sorted(self.state)
                          if self._routable_in(self.state[i])]

    # -- state transitions ------------------------------------------------

    def mark(self, index: int, state: MachineState) -> None:
        """The one writer of :attr:`state`; it keeps the routable list."""
        if index not in self.state:
            raise KeyError(f"unknown machine {index}")
        was = self._routable_in(self.state[index])
        self.state[index] = state
        now = self._routable_in(state)
        if now and not was:
            insort(self._routable, index)
        elif was and not now:
            self._routable.remove(index)

    def mark_draining(self, index: int) -> None:
        self.mark(index, MachineState.DRAINING)

    def mark_switching(self, index: int) -> None:
        self.mark(index, MachineState.SWITCHING)

    def mark_ready(self, index: int) -> None:
        self.mark(index, MachineState.READY)

    def mark_down(self, index: int) -> None:
        self.mark(index, MachineState.DOWN)

    # -- bookkeeping ------------------------------------------------------

    def dispatched(self, index: int) -> None:
        self.outstanding[index] += 1
        self.dispatches[index] += 1

    def completed(self, index: int) -> None:
        if self.outstanding[index] <= 0:
            raise RuntimeError(
                f"completion for machine {index} with nothing outstanding")
        self.outstanding[index] -= 1

    def drained(self, index: int) -> bool:
        return self.outstanding[index] == 0

    # -- routing ----------------------------------------------------------

    def _routable_in(self, state: MachineState) -> bool:
        """Whether a machine in ``state`` takes requests under this
        policy (the module docstring's table)."""
        return state is MachineState.READY or (
            state is MachineState.DRAINING
            and self.policy != "switch-aware")

    def pick(self) -> int:
        """Choose the target for the next request (does not dispatch)."""
        routable = self._routable
        if not routable:
            raise NoRoutableMachine(
                f"no routable machine under policy {self.policy!r}: "
                + ", ".join(f"{i}={self.state[i].value}"
                            for i in sorted(self.state)))
        if self.policy == "round-robin":
            for index in routable:
                if index > self._rr_last:
                    self._rr_last = index
                    return index
            self._rr_last = routable[0]
            return routable[0]
        # least-outstanding and switch-aware differ only in the routable
        # set; min keeps the first minimum in index order, so ties break on
        # the lower index
        return min(routable, key=self.outstanding.__getitem__)

    def serving_machines(self) -> List[int]:
        return [i for i in sorted(self.state)
                if self.state[i] is not MachineState.SPARE
                and self.state[i] is not MachineState.DOWN]

    def spare_machines(self) -> List[int]:
        return [i for i in sorted(self.state)
                if self.state[i] is MachineState.SPARE]
