"""Multicore mode-switch coordination (§5.4).

"Mercury uses the IPI mechanism and shared variables to control the mode
switch of each processor": the control processor (CP) — the one that
received the switch request — IPIs every other core; each core acknowledges
by incrementing a shared counter and spins on a shared flag; the CP raises
the flag once the counter equals the CPU count; every core then performs its
per-CPU share of the switch; completion is gathered through a second shared
counter.

Timing model: the CP's heavy work (state transfer, page-info recompute, VMM
(de)activation) is charged to the global clock as usual.  The secondaries'
per-CPU reloads happen *concurrently* with it, so their cycles are measured,
overlapped against the CP timeline, and only the straggler extends the
total — giving the switch-time-vs-core-count curve of the scalability
ablation (§8's 'performance scalability of Mercury' concern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import faults, trace
from repro.errors import RendezvousTimeout
from repro.hw.interrupts import VEC_SV_RENDEZVOUS

#: how much longer a fault-delayed IPI takes than a healthy delivery
IPI_DELAY_FACTOR = 50

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine


@dataclass
class RendezvousResult:
    """Timeline of one coordinated switch, all values in cycles."""

    num_cpus: int
    start: int
    #: when every CPU had acknowledged the IPI (shared count == num CPUs)
    gathered: int
    #: when the control processor finished its heavy work
    cp_done: int
    #: when the last secondary finished its per-CPU reload
    secondaries_done: int
    #: overall completion
    finish: int
    ipis_sent: int = 0

    @property
    def total_cycles(self) -> int:
        return self.finish - self.start

    @property
    def gather_cycles(self) -> int:
        return self.gathered - self.start


class SmpCoordinator:
    """Executes the shared-counter/flag rendezvous protocol.

    :meth:`coordinated_switch` is the protocol body; how the control
    processor notifies the other cores and gathers their acknowledgements
    is the one step a protocol variant overrides
    (:meth:`_notify_and_gather`; see :mod:`repro.core.smp_tree`)."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        # shared variables of the protocol (§5.4), exposed for tests
        self.ready_count = 0
        self.go_flag = False
        self.done_count = 0

    def _make_ack(self, c: "Cpu") -> Callable[[], None]:
        """The secondary's IPI acknowledgement: consume the vector, mask,
        charge the refcount check, bump the shared counter."""
        def ack() -> None:
            clock = self.machine.clock
            self.machine.intc.consume_vector(c.cpu_id, VEC_SV_RENDEZVOUS)
            c.interrupts_enabled = False
            clock.advance(c.cost.cyc_refcount_check)
            self.ready_count += 1
        return ack

    def _notify_and_gather(self, cp: "Cpu", secondaries: list["Cpu"]) -> int:
        """Bring every secondary into the rendezvous, masked, with
        ``ready_count`` equal to the CPU count; returns the IPIs sent.

        The flat protocol: the CP IPIs each core itself (a dropped IPI
        never reaches its core: the gather comes up short and times out),
        then collects every acknowledgement serially."""
        clock = self.machine.clock
        cost = cp.cost
        reached: list["Cpu"] = []
        for c in secondaries:
            if faults.fire(faults.IPI_DROPPED, cpu_id=c.cpu_id):
                continue
            self.machine.intc.send_ipi(cp, c.cpu_id, VEC_SV_RENDEZVOUS)
            trace.instant(cp.cpu_id, "smp.ipi", target=f"cpu{c.cpu_id}")
            reached.append(c)

        # each secondary receives the IPI (in parallel), masks its own
        # interrupts, and bumps the shared count.  Each acknowledgement is
        # a *scheduled event* on the shared clock at the cycle the serial
        # handshake reaches that core; the CP, spinning on the count,
        # drives exactly those events to their deadlines.  Targeted
        # :meth:`Clock.fire` (not ``run_due``) keeps unrelated due timers
        # from running inside the masked rendezvous window.
        with trace.span(cp.cpu_id, "smp.gather"):
            acks = []
            if reached:
                deadline = clock.cycles + cost.cyc_ipi_deliver
                for c in reached:
                    if faults.fire(faults.IPI_DELAYED, cpu_id=c.cpu_id):
                        deadline += cost.cyc_ipi_deliver * IPI_DELAY_FACTOR
                    acks.append(clock.schedule(deadline - clock.cycles,
                                               self._make_ack(c)))
                    deadline += cost.cyc_refcount_check
            for handle in acks:
                clock.fire(handle)
            ncpus = len(self.machine.cpus)
            if faults.fire(faults.RENDEZVOUS_TIMEOUT):
                raise RendezvousTimeout(
                    f"injected: gather stalled at {self.ready_count}"
                    f"/{ncpus} CPUs")
            if self.ready_count != ncpus:
                raise RendezvousTimeout(
                    f"gathered {self.ready_count}/{ncpus} CPUs")
        return len(reached)

    def coordinated_switch(self, cp: "Cpu",
                           cp_work: Callable[["Cpu"], None],
                           secondary_work: Callable[["Cpu"], None]
                           ) -> RendezvousResult:
        """Run ``cp_work`` on the control processor and ``secondary_work``
        on every other core, under the rendezvous protocol."""
        clock = self.machine.clock
        cpus = self.machine.cpus
        secondaries = [c for c in cpus if c is not cp]
        t_start = clock.cycles

        self.ready_count = 1  # the CP itself
        self.go_flag = False
        self.done_count = 0

        with trace.span(cp.cpu_id, "smp.rendezvous"):
            try:
                # 1-2. the CP notifies the other processors and gathers
                # their acknowledgements
                ipis = self._notify_and_gather(cp, secondaries)
                t_gathered = clock.cycles

                # 3. CP raises the flag and performs the heavy switch work
                self.go_flag = True
                cp_work(cp)
                t_cp_done = clock.cycles

                # 4. the secondaries saw the flag at t_gathered and reloaded
                # their own state concurrently with the CP's work: execute
                # their reloads for state correctness, overlap their cycle
                # cost against the CP
                t_secondaries_done = t_gathered
                for c in secondaries:
                    before = clock.cycles
                    with trace.span(c.cpu_id, "reload.secondary"):
                        secondary_work(c)
                    self.done_count += 1
                    delta = clock.cycles - before
                    clock.cycles = before  # overlapped with cp_work
                    t_secondaries_done = max(t_secondaries_done,
                                             t_gathered + delta)
            except BaseException:
                # a failed rendezvous/switch must not strand secondaries
                # with interrupts masked — the rollback path runs with the
                # machine responsive again
                for c in secondaries:
                    c.interrupts_enabled = True
                raise

        # 5. completion: the switch is over when the straggler finishes
        t_finish = max(t_cp_done, t_secondaries_done)
        clock.cycles = max(clock.cycles, t_finish)
        self.done_count += 1  # the CP

        for c in secondaries:
            c.interrupts_enabled = True

        return RendezvousResult(
            num_cpus=len(cpus), start=t_start, gathered=t_gathered,
            cp_done=t_cp_done, secondaries_done=t_secondaries_done,
            finish=t_finish, ipis_sent=ipis)
