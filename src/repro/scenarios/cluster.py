"""HPC cluster availability through self-virtualization (§6.5).

Nodes run long computations in native mode at full speed.  Hardware
monitors (temperature, fan, voltage, power — here: injected predictions)
warn of imminent failures; the threatened node self-virtualizes to
full-virtual mode and live-migrates its OS to a healthy node, which
simultaneously self-virtualizes to partial-virtual mode to accommodate it.
The running programs never stop.

The module also implements the comparison baselines the §6.5 argument is
made against: *stop-and-restart* (job dies with the node, restarts from
zero) and *periodic checkpoint* (restarts from the last checkpoint) — the
benches report lost work under each policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.mercury import Mercury, Mode
from repro.errors import ScenarioError
from repro.hw.clock import Clock
from repro.hw.machine import Machine
from repro.params import small_config
from repro.scenarios.checkpoint import checkpoint, restore
from repro.scenarios.migration import LiveMigration

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.scenarios.checkpoint import CheckpointImage


class _PredictionCleared(Exception):
    """Internal: sensors recovered mid-pre-copy; abandon the migration."""


class NodeState(enum.Enum):
    HEALTHY = "healthy"
    WARNED = "warned"       # monitors predict a failure
    FAILED = "failed"
    EVACUATED = "evacuated"


@dataclass
class HardwareMonitor:
    """The §6.5 sensor bank: temperature/fan/voltage/power thresholds.

    Readings are injected by the simulation; ``predicts_failure`` is the
    policy evaluation of [51]'s failure-prediction strategy."""

    temperature_c: float = 45.0
    fan_rpm: float = 9000.0
    voltage_v: float = 12.0
    power_ok: bool = True
    temp_limit_c: float = 85.0
    fan_min_rpm: float = 2000.0
    voltage_band_v: tuple[float, float] = (11.0, 13.0)

    def predicts_failure(self) -> bool:
        lo, hi = self.voltage_band_v
        return (self.temperature_c >= self.temp_limit_c
                or self.fan_rpm <= self.fan_min_rpm
                or not (lo <= self.voltage_v <= hi)
                or not self.power_ok)


class ClusterNode:
    """One machine in the cluster, with Mercury and a monitor."""

    def __init__(self, name: str, clock: Clock):
        self.name = name
        self.machine = Machine(small_config(), clock=clock, name=name)
        self.mercury = Mercury(self.machine)
        self.kernel = self.mercury.create_kernel(name=f"{name}-linux")
        self.monitor = HardwareMonitor()
        self.state = NodeState.HEALTHY
        #: progress counter of the long-running job hosted here (if any)
        self.job_progress: Optional[int] = None

    def run_job_step(self, work_us: float = 1000.0) -> None:
        """Advance the hosted computation by one step."""
        if self.job_progress is None:
            raise ScenarioError(f"{self.name} hosts no job")
        self.kernel.user_compute(self.machine.boot_cpu, work_us)
        self.job_progress += 1

    def fail(self) -> None:
        """The predicted hardware failure arrives."""
        self.machine.failed = True
        self.state = NodeState.FAILED


@dataclass
class AvailabilityReport:
    """Comparing §6.5 self-virtualization against restart baselines."""

    policy: str
    job_steps_completed: int
    job_steps_lost: int
    downtime_cycles: int

    def downtime_ms(self, freq_mhz: int = 3000) -> float:
        return self.downtime_cycles / (freq_mhz * 1000.0)


class HpcCluster:
    """A set of nodes plus the evacuation policy of §6.5."""

    def __init__(self, num_nodes: int = 2):
        if num_nodes < 2:
            raise ScenarioError("a cluster needs at least two nodes")
        self.clock = Clock(freq_mhz=small_config().cost.freq_mhz)
        self.nodes = [ClusterNode(f"node{i}", self.clock)
                      for i in range(num_nodes)]
        for a, b in zip(self.nodes, self.nodes[1:]):
            a.machine.link_to(b.machine)
        self.evacuations = 0

    def healthy_standby(self, exclude: ClusterNode) -> ClusterNode:
        """Pick the evacuation target: a healthy peer whose own sensors
        are quiet, preferring one not already accommodating an evacuee —
        so simultaneous predictions spread across distinct standbys
        instead of piling onto the first (they share one only when
        nothing else is left), and an evacuee is never parked on a
        machine that is itself about to fail."""
        candidates = [n for n in self.nodes
                      if n is not exclude and n.state == NodeState.HEALTHY
                      and not n.monitor.predicts_failure()]
        if not candidates:
            raise ScenarioError("no healthy standby node available")
        return min(candidates,
                   key=lambda n: (len(n.mercury.guests),
                                  self.nodes.index(n)))

    # ------------------------------------------------------------------
    # the self-virtualization policy
    # ------------------------------------------------------------------

    def handle_warning(self, node: ClusterNode, mutator=None,
                       cancel_on_recovery: bool = False) -> ClusterNode:
        """Monitors predicted a failure on ``node``: evacuate it to a
        healthy peer, per §6.5 — first every guest it hosts (an earlier
        evacuee, say), then its own OS.  Returns the standby now hosting
        them.

        ``mutator(round_no)`` models the job running (and dirtying pages)
        during each pre-copy round.  With ``cancel_on_recovery``, the
        sensors are re-read between rounds; if the prediction has cleared
        (a transient thermal event, say) the migration in flight is
        abandoned before stop-and-copy — pre-copy only streams page
        *copies*, so nothing needs undoing — and the node rolls back to
        native (unless it still hosts guests), returning ``node``
        itself."""
        if not node.monitor.predicts_failure():
            raise ScenarioError(f"{node.name} has no failure prediction")
        node.state = NodeState.WARNED
        standby = self.healthy_standby(node)
        standby_was_native = standby.mercury.mode is Mode.NATIVE

        # the threatened OS goes full-virtual; the standby partial-virtual
        node.mercury.full_virtualize()
        if standby_was_native:
            standby.mercury.attach()

        def _round(round_no: int) -> None:
            if mutator is not None:
                mutator(round_no)
            if cancel_on_recovery and not node.monitor.predicts_failure():
                raise _PredictionCleared

        try:
            for guest in node.mercury.guests:
                LiveMigration(node.mercury, standby.mercury,
                              kernel=guest).run(_round)
            _, report = LiveMigration(node.mercury,
                                      standby.mercury).run(_round)
        except _PredictionCleared:
            node.mercury.departial()
            if not node.mercury.guests:
                node.mercury.detach()
            if standby_was_native and not standby.mercury.guests:
                standby.mercury.detach()
            node.state = NodeState.HEALTHY
            return node
        standby.job_progress = node.job_progress
        node.job_progress = None
        node.state = NodeState.EVACUATED
        self.evacuations += 1
        self._last_migration = report
        return standby

    # ------------------------------------------------------------------
    # rolling maintenance (§6.3 applied fleet-wide)
    # ------------------------------------------------------------------

    def rolling_maintenance(self, maintain, job_steps_between: int = 3
                            ) -> list[str]:
        """Service every node's hardware, one at a time, while the
        cluster's job keeps running: each node in turn migrates its OS to
        a healthy peer, is maintained, and takes its OS back — the §6.3
        flow applied across the fleet.  Returns the maintenance order."""
        from repro.scenarios.maintenance import MaintenanceWindow

        order = []
        for node in list(self.nodes):
            standby = self.healthy_standby(node)
            had_job = node.job_progress is not None
            if had_job:
                # the job rides along inside the migrated OS; progress
                # bookkeeping follows it
                saved_progress = node.job_progress
            window = MaintenanceWindow(node.mercury, standby.mercury)
            window.perform(lambda n=node: maintain(n))
            order.append(node.name)
            # the standby no longer hosts anyone: back to native full speed
            if standby.mercury.mode is not Mode.NATIVE and \
                    not standby.mercury.guests:
                standby.mercury.detach()
            if had_job:
                node.job_progress = saved_progress
                for _ in range(job_steps_between):
                    node.run_job_step()
        return order

    # ------------------------------------------------------------------
    # policy comparison (for the scenario bench)
    # ------------------------------------------------------------------

    def run_with_policy(self, policy: str, total_steps: int,
                        fail_at_step: int,
                        checkpoint_every: int = 50) -> AvailabilityReport:
        """Run a ``total_steps`` job on node0 with a failure predicted (and
        then occurring) at ``fail_at_step``, under one of three policies:

        - ``"self-virtualization"``: proactive migration; no lost work.
        - ``"checkpoint"``: periodic checkpoints; work since the last one
          is lost.
        - ``"restart"``: the job restarts from zero.
        """
        node = self.nodes[0]
        node.job_progress = 0
        downtime = 0
        image: Optional["CheckpointImage"] = None
        last_ckpt_step = 0
        active = node

        step = 0
        while step < total_steps:
            if step == fail_at_step and active is node:
                if policy == "self-virtualization":
                    node.monitor.temperature_c = 95.0  # prediction fires
                    t0 = self.clock.cycles
                    active = self.handle_warning(node)
                    node.fail()  # the predicted failure arrives — harmless now
                    downtime += self._last_migration.downtime_cycles
                elif policy == "checkpoint":
                    node.fail()
                    t0 = self.clock.cycles
                    standby = self.healthy_standby(node)
                    if image is not None:
                        if standby.mercury.mode is Mode.NATIVE:
                            standby.mercury.attach()
                        from repro.scenarios.checkpoint import restore_as_guest
                        restore_as_guest(image, standby.mercury)
                        standby.job_progress = last_ckpt_step
                    else:
                        standby.job_progress = 0
                    active = standby
                    step = active.job_progress
                    downtime += self.clock.cycles - t0
                    continue
                elif policy == "restart":
                    node.fail()
                    t0 = self.clock.cycles
                    standby = self.healthy_standby(node)
                    standby.job_progress = 0
                    active = standby
                    step = 0
                    # a reboot + job restart window
                    self.clock.advance(30_000_000_000)  # ~10 s at 3 GHz
                    downtime += self.clock.cycles - t0
                    continue
                else:
                    raise ScenarioError(f"unknown policy {policy!r}")

            if policy == "checkpoint" and active is node and \
                    step and step % checkpoint_every == 0 and \
                    step != last_ckpt_step:
                image = checkpoint(node.mercury)
                last_ckpt_step = step

            active.run_job_step()
            step = active.job_progress

        lost = max(0, fail_at_step - (last_ckpt_step if policy == "checkpoint"
                                      else (0 if policy == "restart"
                                            else fail_at_step)))
        if policy == "restart":
            lost = fail_at_step
        elif policy == "self-virtualization":
            lost = 0
        return AvailabilityReport(policy=policy,
                                  job_steps_completed=total_steps,
                                  job_steps_lost=lost,
                                  downtime_cycles=downtime)
