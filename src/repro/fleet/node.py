"""Fleet nodes: the service machines and the front-of-fleet frontend.

One :class:`FrontendNode` (machine index 0) generates the open-loop
arrival stream, routes every request through a
:class:`~repro.fleet.balancer.LoadBalancer`, runs the scenario's *wave*
(rolling live update, predictive maintenance, or cluster availability),
and folds each completed request's latency into per-phase streaming
histograms.  ``machines`` :class:`ServiceNode`\\ s (indices 1..N) each own
a full Machine + Mercury + kernel stack and serve requests under the
deterministic simulation scheduler.

Requests, responses, and every control exchange are cross-machine
:class:`~repro.sim.shard.FleetMessage`\\ s, so the conservative-window
determinism contract of :mod:`repro.sim.pool` applies unchanged: a
``workers=k`` fleet run is byte-identical to ``workers=1``.

Every control exchange is one :meth:`~repro.sim.shard.FleetNode.call`:
the caller posts the control kind and waits until the callee posts the
paired answer back.  Only chaos injections do not wait: the cluster wave
posts each one with :meth:`~repro.sim.shard.FleetNode.ask` and takes
their answers together at its end.  Control kinds and their answers::

    control         answer           caller -> callee     payloads
    ctl.update      ctl.updated      frontend -> server   wave ordinal;
                                                          (index, attach_us, detach_us)
    ctl.maintain    ctl.maintained   frontend -> server   spare; index
    ctl.evacuate    ctl.evacuated    frontend -> server   spare; index
    chaos.inject    chaos.recovered  frontend -> server   (site, variant);
                                                          (index, site, detected,
                                                           mttr, elapsed)
    mig.state       mig.ack          server  -> spare     src; src
    mig.back-req    mig.back         server  -> spare     src; src

and three one-way kinds::

    req             frontend -> server   (req_id, service_cycles)
    rsp             server  -> frontend  req_id
    ctl.shutdown    frontend -> server   —

The per-machine mechanics reuse the single-machine §6 scenario modules:
the rolling update applies a real :class:`~repro.scenarios.liveupdate.
KernelPatch` through :class:`~repro.scenarios.liveupdate.LiveUpdater`;
maintenance and evacuation move no OS state yet: each migration leg
charges a constant :data:`~repro.scenarios.migration.FLEET_STREAM_PAGES`-page
stream through :func:`~repro.scenarios.migration.send_pages`; chaos rides
:func:`repro.faults.inject_vmm_fault`, the VMI
:class:`~repro.watchdog.Watchdog`, and the ReHype-style
:class:`~repro.core.recovery.RecoveryManager`.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Generator, Optional

from repro import faults
from repro.core.mercury import Mercury, Mode
from repro.core.recovery import RecoveryManager
from repro.fleet.balancer import LoadBalancer, MachineState, NoRoutableMachine
from repro.vmm.elastic import ElasticMemoryController
from repro.fleet.latency import LatencyHistogram
from repro.fleet.traffic import OpenLoopTraffic, TrafficSpec
from repro.hw.machine import Machine
from repro.metrics import MetricsCollector
from repro.params import MachineConfig
from repro.scenarios.liveupdate import KernelPatch, LiveUpdater
from repro.scenarios.migration import FLEET_STREAM_PAGES, send_pages
from repro.sim import FleetNode, Sleep, SleepUntil, WaitFor, Yield
from repro.watchdog import Watchdog

#: the measurement phases the percentile report distinguishes
PHASES = ("steady", "wave", "after")

#: chaos detection scan cadence inside a service node (1 ms at 3 GHz)
CHAOS_SCAN_INTERVAL = 3_000_000
CHAOS_MAX_SCANS = 12

#: requests a guest-hosting node serves between elastic-controller rounds
ELASTIC_EVERY = 8

#: cycles of hardware work one §6.3 maintenance takes on the idle machine
MAINTENANCE_CYCLES = 3_000_000

#: VMM fault sites injectable on a bare attached stack (the remaining
#: catalogue sites need hosted-guest state — channels, grants, backends —
#: that a drained fleet machine does not carry; the chaos *campaign*
#: covers those, see :mod:`repro.bench.chaoscampaign`)
CHAOS_SITES = (faults.VMM_PAGEINFO_CORRUPT, faults.VMM_REFCOUNT_RUNAWAY,
               faults.VMM_TRAP_VECTOR_DROPPED)


def _patched_getpid(kernel, cpu, task):
    """The rolling update's payload: the classic pid-offset live patch."""
    return task.pid + 1000


class ServiceNode(FleetNode):
    """One fleet machine: Mercury stack + request server + control ops."""

    def __init__(self, index: int, seed: int, *,
                 guest_domains: int = 0,
                 guest_mem_pages: int = 48, guest_mem_floor: int = 16,
                 elastic_strategy: str = "guest-delegated", **_ignored):
        machine = Machine(MachineConfig(num_cpus=1, mem_kb=4096))
        super().__init__(index, machine, trace_capacity=4096)
        self.mercury = Mercury(machine)
        self.kernel = self.mercury.create_kernel(
            name=f"fleet{index}-linux", image_pages=16)
        self.mercury.engine.max_retries = 64
        self.updater = LiveUpdater(self.mercury)

        self._queue: deque = deque()
        #: control messages, run one at a time in arrival order
        self._ctl: deque = deque()
        #: control kind -> the op that runs it and posts its answer; an op
        #: that waits on a call of its own is a generator
        self._ops = {
            "ctl.update": self._op_update,
            "ctl.maintain": self._op_maintain,
            "ctl.evacuate": self._op_evacuate,
            "chaos.inject": self._op_chaos,
            "mig.state": self._op_host_state,
            "mig.back-req": self._op_return_state,
        }
        self.done = False
        self.served = 0
        self.updates_applied = 0
        self.maintenances = 0
        self.evacuated = False
        self.chaos_recoveries = 0
        #: machines whose execution environment this spare hosts
        self._hosted: set = set()

        # guest-domain serving (M-U): the node becomes a standing driver
        # domain hosting ``guest_domains`` ballooned guests; requests are
        # served from the guests, never from one below its memory floor
        self.guests: list = []
        self.elastic: Optional[ElasticMemoryController] = None
        self.guest_served: dict[int, int] = {}
        self.floor_skips = 0
        self._rr = 0
        if guest_domains:
            self.mercury.attach(machine.boot_cpu)
            for g in range(guest_domains):
                guest = self.mercury.host_guest(
                    name=f"m{index}g{g}", image_pages=8,
                    mem_pages=guest_mem_pages, mem_floor=guest_mem_floor)
                self.guests.append(guest)
                self.guest_served[guest.owner_id] = 0
            self.elastic = ElasticMemoryController(
                self.mercury, elastic_strategy)

        self.spawn_traced(self._server_task(), name=f"serve{index}",
                          cpu=machine.boot_cpu, kernel=self.kernel)
        self.spawn_traced(self._control_task(), name=f"ctl{index}",
                          cpu=machine.boot_cpu)

    # -- messaging --------------------------------------------------------

    def on_message(self, msg) -> None:
        super().on_message(msg)
        kind = msg.kind
        if kind == "req":
            self._queue.append(msg.payload)
        elif kind == "ctl.shutdown":
            self.done = True
        elif kind in self._ops:
            self._ctl.append(msg)
        else:
            self.file_answer(msg)

    # -- the request server -----------------------------------------------

    def _server_task(self) -> Generator:
        cpu = self.machine.boot_cpu
        while True:
            yield WaitFor(lambda: self._queue or self.done,
                          desc="requests")
            if self._queue:
                req_id, svc = self._queue.popleft()
                if self.mercury.mode is not Mode.NATIVE:
                    svc += svc // 10  # partial-virtual service tax
                server = self._pick_server()
                server.user_compute_cycles(cpu, svc)
                self.served += 1
                if server is not self.kernel:
                    self.guest_served[server.owner_id] += 1
                if (self.elastic is not None
                        and self.served % ELASTIC_EVERY == 0):
                    self.elastic.step(cpu)
                self.post(0, "rsp", payload=req_id)
                yield Yield()  # control ops interleave between requests
                continue
            return

    def _pick_server(self):
        """Round-robin over the hosted guest domains, skipping any whose
        reservation sits below its memory floor (a squeezed guest must not
        take traffic until the controller grants it back).  Falls back to
        the bare kernel when no guest is routable."""
        if not self.guests:
            return self.kernel
        doms = self.mercury.vmm.domains
        n = len(self.guests)
        for off in range(n):
            guest = self.guests[(self._rr + off) % n]
            dom = doms.get(guest.owner_id)
            if dom is None or dom.below_floor:
                self.floor_skips += 1
                continue
            self._rr = (self._rr + off + 1) % n
            return guest
        return self.kernel

    # -- control ops ------------------------------------------------------

    def _control_task(self) -> Generator:
        while True:
            yield WaitFor(lambda: self._ctl or self.done, desc="control")
            if not self._ctl:
                return
            msg = self._ctl.popleft()
            waiting = self._ops[msg.kind](msg.payload)
            if waiting is not None:
                yield from waiting

    def _op_update(self, ordinal: int) -> None:
        """Rolling live kernel update (§6.4): transiently attach, patch,
        detach — the machine was drained, so both switches commit on the
        quiescent fast path."""
        rec = self.updater.apply(KernelPatch(
            f"rolling-{ordinal}", "getpid", _patched_getpid))
        self.updates_applied += 1
        self.post(0, "ctl.updated",
                  payload=(self.index, round(rec.attach_us, 3),
                           round(rec.detach_us, 3)))

    def _migrate_out(self, spare: int) -> Generator:
        """The outbound leg of maintenance and evacuation:
        full-virtualize, stream the execution environment to ``spare``,
        and wait until it hosts it."""
        self.mercury.full_virtualize()
        send_pages(self.machine.boot_cpu, FLEET_STREAM_PAGES)
        yield from self.call(spare, "mig.state", "mig.ack", self.index)

    def _op_maintain(self, spare: int) -> Generator:
        """Predictive hardware maintenance (§6.3): full-virtualize,
        migrate the execution environment to ``spare``, service the
        hardware, migrate back, return to native."""
        yield from self._migrate_out(spare)
        self.machine.boot_cpu.charge(MAINTENANCE_CYCLES)
        yield from self.call(spare, "mig.back-req", "mig.back", self.index)
        send_pages(self.machine.boot_cpu, FLEET_STREAM_PAGES)
        self.mercury.departial()
        if not self.guests:  # a standing driver domain stays attached
            self.mercury.detach()
        self.maintenances += 1
        self.post(0, "ctl.maintained", payload=self.index)

    def _op_evacuate(self, spare: int) -> Generator:
        """Failure-predicted evacuation (§6.5): one-way migration to the
        promoted spare; this machine then takes the predicted failure."""
        yield from self._migrate_out(spare)
        self.evacuated = True
        self.post(0, "ctl.evacuated", payload=self.index)
        self.done = True

    def _op_host_state(self, src: int) -> None:
        """Spare side of a migration stream: go partial-virtual to host
        the inbound execution environment, absorb the pages, ack."""
        if self.mercury.mode is Mode.NATIVE:
            self.mercury.attach()
        send_pages(self.machine.boot_cpu, FLEET_STREAM_PAGES)
        self._hosted.add(src)
        self.post(src, "mig.ack", payload=src)

    def _op_return_state(self, src: int) -> None:
        """Spare side of the §6.3 return trip.  The answer goes out before
        the detach, whose cost would otherwise delay its delivery."""
        self._hosted.discard(src)
        send_pages(self.machine.boot_cpu, FLEET_STREAM_PAGES)
        self.post(src, "mig.back", payload=src)
        if not self._hosted and not self.guests and \
                self.mercury.mode is Mode.PARTIAL_VIRTUAL:
            self.mercury.detach()  # nobody hosted: back to full speed

    def _op_chaos(self, fault: tuple) -> Generator:
        """Chaos fault under load: attach, corrupt one VMM structure,
        let the VMI watchdog detect it, microreboot, return to native —
        while the server task keeps serving between scans."""
        site, variant = fault
        clock = self.machine.clock
        if self.mercury.mode is Mode.NATIVE:
            self.mercury.attach()
        Watchdog(self.mercury, suspect_scans=2)  # installs mercury.watchdog
        manager = RecoveryManager(self.mercury)
        faults.inject_vmm_fault(site, self.mercury, variant=variant)
        self.faults_injected += 1
        injected_at = clock.cycles
        record = None
        for _ in range(CHAOS_MAX_SCANS):
            yield Sleep(CHAOS_SCAN_INTERVAL)
            record = manager.recover(cpu=self.machine.boot_cpu)
            if record is not None:
                break
        detected = record is not None
        mttr = record.mttr_cycles if detected else -1
        self.chaos_recoveries += int(detected and record.success)
        if self.mercury.mode is not Mode.NATIVE and not self.guests:
            self.mercury.detach()
        self.post(0, "chaos.recovered",
                  payload=(self.index, site, detected, mttr,
                           clock.cycles - injected_at))

    # -- reporting --------------------------------------------------------

    def collector(self) -> MetricsCollector:
        return MetricsCollector(self.machine, kernel=self.kernel,
                                mercury=self.mercury)

    def result(self) -> dict:
        out = super().result()
        out.update({
            "served": self.served,
            "queued_residual": len(self._queue),
            "updates_applied": self.updates_applied,
            "maintenances": self.maintenances,
            "evacuated": self.evacuated,
            "chaos_recoveries": self.chaos_recoveries,
            "mode": self.mercury.mode.value,
            "mode_switches": len(self.mercury.switch_records),
        })
        if self.guests:
            doms = self.mercury.vmm.domains
            out.update({
                "guest_domains": len(self.guests),
                "guest_served": {g.owner_id: self.guest_served[g.owner_id]
                                 for g in self.guests},
                "guest_mem_pages": {
                    g.owner_id: doms[g.owner_id].mem_pages
                    for g in self.guests if g.owner_id in doms},
                "floor_skips": self.floor_skips,
                "elastic": self.elastic.summary(),
            })
        return out


class FrontendNode(FleetNode):
    """Front of fleet: traffic source, balancer, wave orchestration, and
    the per-request latency log."""

    def __init__(self, index: int, seed: int, *,
                 machines: int, scenario: str = "liveupdate",
                 policy: str = "switch-aware",
                 arrival: str = "poisson",
                 requests: int = 400,
                 mean_gap_cycles: int = 45_000,
                 mean_service_cycles: int = 300_000,
                 spares: int = 0,
                 evacuations: int = 0,
                 chaos_events: int = 0,
                 maintain_count: int = 0,
                 log_requests: bool = False,
                 **_ignored):
        machine = Machine(MachineConfig(num_cpus=1, mem_kb=1024))
        super().__init__(index, machine, trace_capacity=65536)
        if machines < 2:
            raise ValueError("a fleet needs at least two service machines")
        self.scenario = scenario
        self.num_machines = machines
        server_indices = range(1, machines + 1)
        spare_indices = list(range(machines - spares + 1, machines + 1))
        self.balancer = LoadBalancer(server_indices, policy=policy,
                                     spares=spare_indices)
        self.traffic = OpenLoopTraffic(
            TrafficSpec(kind=arrival, mean_gap_cycles=mean_gap_cycles,
                        mean_service_cycles=mean_service_cycles), seed)
        self.requests = requests
        # the wave starts once a quarter of the requests have completed
        self.wave_after = requests // 4
        self._rng = random.Random(f"fleet-ops:{seed}")

        self.phase = "steady"
        self.hist = {phase: LatencyHistogram() for phase in PHASES}
        self._open: dict = {}          # req_id -> (target, t0, phase)
        self.dispatched = 0
        self.completed = 0
        self.forced_dispatches = 0
        #: (req_id, target, cycle, phase) per request, kept only with
        #: ``log_requests``
        self.request_log: Optional[list] = [] if log_requests else None
        self.drain_log: list = []      # per-machine wave intervals
        self.traffic_done = False
        self.wave_done = False
        self.wave_start_cycle = -1
        self.wave_end_cycle = -1
        #: the rolling update's answers: (index, attach_us, detach_us)
        self.update_records: list = []
        #: the chaos injections' answers, taken at the end of the wave
        self.chaos_log: list = []

        # scenario-specific wave plan, drawn up-front from the seeded rng
        serving = [i for i in server_indices
                   if i not in set(spare_indices)]
        self._spare_pool = list(spare_indices)
        if scenario == "cluster":
            self._victims = self._rng.sample(
                serving, min(evacuations, len(self._spare_pool),
                             len(serving) - 1))
            chaos_pool = [i for i in serving if i not in self._victims]
            self._chaos_plan = [
                (self._rng.randrange(0, 40_000_000),
                 victim,
                 self._rng.choice(CHAOS_SITES),
                 self._rng.randrange(0, 2))
                for victim in self._rng.sample(
                    chaos_pool, min(chaos_events, len(chaos_pool)))]
        else:
            self._victims = []
            self._chaos_plan = []
        if scenario == "maintenance":
            # the machines whose failure the §6.5 sensor bank predicts
            self._flagged = sorted(self._rng.sample(
                serving, min(maintain_count, len(serving) - 1)))
        else:
            self._flagged = []

        self.spawn_traced(self._traffic_task(), name="traffic",
                          cpu=machine.boot_cpu)
        self.spawn_traced(self._wave_task(), name="wave",
                          cpu=machine.boot_cpu)
        self.spawn_traced(self._shutdown_task(), name="shutdown",
                          cpu=machine.boot_cpu)

    # -- messaging --------------------------------------------------------

    def on_message(self, msg) -> None:
        super().on_message(msg)
        if msg.kind == "rsp":
            target, t0, phase = self._open.pop(msg.payload)
            self.hist[phase].record(self.machine.clock.cycles - t0)
            self.balancer.completed(target)
            self.completed += 1
        else:
            self.file_answer(msg)

    # -- traffic ----------------------------------------------------------

    def _traffic_task(self) -> Generator:
        start = self.min_latency  # first arrival after one window
        for req_id, (at, svc) in enumerate(
                self.traffic.schedule(self.requests, start_cycle=start)):
            yield SleepUntil(at)
            try:
                target = self.balancer.pick()
            except NoRoutableMachine:
                # degenerate fleets only (everything switching at once):
                # fall back to the least-loaded non-down machine so the
                # request is never dropped — conservation above latency
                self.forced_dispatches += 1
                candidates = [i for i, st in self.balancer.state.items()
                              if st not in (MachineState.DOWN,
                                            MachineState.SPARE)]
                target = min(candidates,
                             key=lambda i: (self.balancer.outstanding[i], i))
            now = self.machine.clock.cycles
            self.balancer.dispatched(target)
            self._open[req_id] = (target, now, self.phase)
            if self.request_log is not None:
                self.request_log.append((req_id, target, now, self.phase))
            self.dispatched += 1
            self.post(target, "req", payload=(req_id, svc))
        self.traffic_done = True

    # -- the wave ---------------------------------------------------------

    def _wave_task(self) -> Generator:
        yield WaitFor(lambda: self.completed >= self.wave_after,
                      desc="steady-state measured")
        self.phase = "wave"
        self.wave_start_cycle = self.machine.clock.cycles
        if self.scenario == "liveupdate":
            yield from self._rolling_update()
        elif self.scenario == "maintenance":
            yield from self._maintenance_wave()
        elif self.scenario == "cluster":
            yield from self._cluster_wave()
        else:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        self.phase = "after"
        self.wave_end_cycle = self.machine.clock.cycles
        self.wave_done = True

    def _drain(self, index: int) -> Generator:
        """Announce the switch, then wait for in-flight requests to
        bleed off before the machine may leave service."""
        entry = {"machine": index,
                 "drain_at": self.machine.clock.cycles,
                 "switch_at": -1, "ready_at": -1}
        self.drain_log.append(entry)
        self.balancer.mark_draining(index)
        yield WaitFor(lambda: self.balancer.drained(index),
                      desc=f"drain m{index}")
        self.balancer.mark_switching(index)
        entry["switch_at"] = self.machine.clock.cycles
        return entry

    def _rolling_update(self) -> Generator:
        """§6.4 as a fleet operation: one machine at a time leaves
        rotation, applies the kernel patch under a transient VMM, and
        rejoins."""
        for ordinal, index in enumerate(self.balancer.serving_machines()):
            entry = yield from self._drain(index)
            record = yield from self.call(index, "ctl.update",
                                          "ctl.updated", ordinal)
            self.update_records.append(record)
            self.balancer.mark_ready(index)
            entry["ready_at"] = self.machine.clock.cycles

    def _maintenance_wave(self) -> Generator:
        """§6.3 as a fleet operation: every failure-predicted machine
        migrates its execution environment to a healthy peer, is
        serviced, and takes it back."""
        for index in self._flagged:
            entry = yield from self._drain(index)
            peers = [i for i in self.balancer.serving_machines()
                     if i != index
                     and self.balancer.state[i] is MachineState.READY]
            spare = min(peers,
                        key=lambda i: (self.balancer.outstanding[i], i))
            yield from self.call(index, "ctl.maintain", "ctl.maintained",
                                 spare)
            self.balancer.mark_ready(index)
            entry["ready_at"] = self.machine.clock.cycles

    def _cluster_wave(self) -> Generator:
        """§6.5 as a fleet operation: predicted failures evacuate to
        promoted spares while chaos faults strike (and are recovered on)
        other machines mid-wave."""
        events = [("chaos", offset, victim, site, variant)
                  for offset, victim, site, variant in self._chaos_plan]
        events += [("evacuate", 8_000_000 * (n + 1), victim, "", 0)
                   for n, victim in enumerate(self._victims)]
        events.sort(key=lambda e: (e[1], e[0], e[2]))
        recoveries = []
        for kind, offset, victim, site, variant in events:
            yield SleepUntil(self.wave_start_cycle + offset)
            if kind == "chaos":
                recoveries.append(self.ask(victim, "chaos.inject",
                                           "chaos.recovered",
                                           (site, variant)))
                continue
            entry = yield from self._drain(victim)
            spare = self._spare_pool.pop(0)
            yield from self.call(victim, "ctl.evacuate", "ctl.evacuated",
                                 spare)
            # the predicted failure arrives on the evacuated machine;
            # the promoted spare takes its place in rotation
            self.balancer.mark_down(victim)
            self.balancer.mark_ready(spare)
            entry["ready_at"] = self.machine.clock.cycles
        self.chaos_log = yield from self.take_answers(
            recoveries, desc="chaos recovered")

    # -- shutdown ---------------------------------------------------------

    def _shutdown_task(self) -> Generator:
        yield WaitFor(lambda: (self.traffic_done and self.wave_done
                               and not self._open),
                      desc="quiescent fleet")
        for index in sorted(self.balancer.state):
            if self.balancer.state[index] is not MachineState.DOWN:
                self.post(index, "ctl.shutdown")

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        snap = super().snapshot()
        snap.latency_histogram = dict(
            LatencyHistogram.merge_all(self.hist.values()).buckets)
        return snap

    def percentiles(self) -> dict:
        freq = self.machine.clock.freq_mhz
        return {phase: self.hist[phase].summary(freq_mhz=freq)
                for phase in PHASES}

    def result(self) -> dict:
        out = super().result()
        # the wave ends only once every machine it drained has answered
        wave = sorted(entry["machine"] for entry in self.drain_log)
        out.update({
            "scenario": self.scenario,
            "policy": self.balancer.policy,
            "requests": self.requests,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "in_flight_residual": len(self._open),
            "forced_dispatches": self.forced_dispatches,
            "wave_start_cycle": self.wave_start_cycle,
            "wave_end_cycle": self.wave_end_cycle,
            "updated_machines": wave if self.scenario == "liveupdate" else [],
            "maintained_machines":
                wave if self.scenario == "maintenance" else [],
            "evacuated_machines": wave if self.scenario == "cluster" else [],
            "chaos_log": sorted(self.chaos_log),
            "drain_log": self.drain_log,
            "percentiles": self.percentiles(),
        })
        if self.request_log is not None:
            out["request_log"] = self.request_log
        return out
