"""Deterministic cooperative simulation scheduler.

The substrate that lets run-to-completion layers *interleave*: workloads
become generator tasks yielding at syscall/IO/compute boundaries, the
switch engine's retry timer and device events fire between (and inside)
slices, and a mode switch can genuinely observe a nonzero VO refcount
because another task is mid-sensitive-call — the live-application race of
§4.3 that the refcount-gated commit (§5.1.1) exists for.

Determinism contract: everything that can run is ordered by
``(cycle deadline, FIFO seq)`` where the seq is a ticket from the shared
:class:`~repro.hw.clock.Clock` counter.  No wall clock, no randomness, no
dict-order dependence — two runs of the same scenario produce bit-identical
traces and metrics.

Sequential entry points stay sequential: :func:`run_to_completion` drives a
workload generator without a scheduler installed, which is cycle-identical
to the pre-generator code path.

Scaling out, the same contract survives process boundaries: the sharded
fleet (:mod:`repro.sim.shard` / :mod:`repro.sim.pool`) partitions machines
across workers under conservative time-window barriers, and
``workers=k`` is byte-identical to ``workers=1``.
"""

from repro.sim.task import (Join, SimState, SimTask, Sleep, SleepUntil,
                            WaitFor, Yield)
from repro.sim.scheduler import (SimDeadlock, SimError, SimScheduler, active,
                                 preempt_point, quiet_until,
                                 run_to_completion)
from repro.sim.shard import (FleetMessage, FleetNode, Shard, ShardError,
                             ShardReport, sort_batch)
from repro.sim.pool import (DEFAULT_WINDOW_CYCLES, FleetResult, ShardedSim,
                            parallel_episodes)

__all__ = [
    "Join", "SimState", "SimTask", "Sleep", "SleepUntil", "WaitFor", "Yield",
    "SimDeadlock", "SimError", "SimScheduler", "active", "preempt_point",
    "quiet_until", "run_to_completion",
    "FleetMessage", "FleetNode", "Shard", "ShardError", "ShardReport",
    "sort_batch",
    "DEFAULT_WINDOW_CYCLES", "FleetResult", "ShardedSim",
    "parallel_episodes",
]
