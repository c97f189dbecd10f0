"""Online hardware maintenance (§6.3).

"An operator could switch the machine to be maintained to the full-virtual
mode dynamically.  The execution environment of the machine can then be
live migrated to another machine that has been virtualized and is in the
partial-virtual mode...  After the maintenance work is completed, the
execution environment is migrated back and the machine is returned to the
native mode for full speed."

:class:`MaintenanceWindow` orchestrates exactly that round trip and reports
the application-visible disruption (the two migration downtimes) against
the wall-clock maintenance duration — the paper's availability argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.mercury import Mercury, Mode
from repro.errors import MigrationError, ScenarioError
from repro.scenarios.migration import LiveMigration, MigrationReport


@dataclass
class MaintenanceReport:
    """Outcome of one maintenance round trip."""

    outbound: MigrationReport
    inbound: MigrationReport
    maintenance_cycles: int = 0
    total_cycles: int = 0

    @property
    def disruption_cycles(self) -> int:
        """Application-visible pause: the two stop-and-copy downtimes."""
        return self.outbound.downtime_cycles + self.inbound.downtime_cycles

    def disruption_ms(self, freq_mhz: int = 3000) -> float:
        return self.disruption_cycles / (freq_mhz * 1000.0)


class MaintenanceWindow:
    """Maintain ``primary``'s hardware while its OS keeps running on
    ``standby``."""

    def __init__(self, primary: Mercury, standby: Mercury):
        if primary.machine.clock is not standby.machine.clock:
            raise ScenarioError("primary and standby must share a clock")
        self.primary = primary
        self.standby = standby

    def perform(self, maintain: Callable[[], None],
                mutator: Optional[Callable[[int], None]] = None
                ) -> MaintenanceReport:
        """Run the full §6.3 flow.  ``maintain()`` is the operator's work
        on the idle primary (may advance the clock); ``mutator`` models the
        workload running across the migrations."""
        clock = self.primary.machine.clock
        t0 = clock.cycles

        # 0. refuse before any mode change: the primary's own OS cannot
        # leave while it hosts guests (LiveMigration refuses it too)
        if self.primary.guests:
            raise MigrationError(
                f"primary still hosts {len(self.primary.guests)} guest(s); "
                "move them before maintaining it")

        # 1. primary goes full-virtual; standby must be able to host
        self.primary.full_virtualize()
        if self.standby.mode is Mode.NATIVE:
            self.standby.attach()

        # 2. migrate the execution environment away
        hosted, outbound = LiveMigration(self.primary,
                                         self.standby).run(mutator=mutator)

        # 3. hardware maintenance on the now-idle primary
        m0 = clock.cycles
        maintain()
        maintenance_cycles = clock.cycles - m0

        # 4. migrate back: the hosted OS returns into the primary's shell
        _, inbound = LiveMigration(self.standby, self.primary,
                                   kernel=hosted).run(mutator=mutator)

        # 5. the primary returns to native mode for full speed
        self.primary.departial()
        self.primary.detach()
        return MaintenanceReport(
            outbound=outbound, inbound=inbound,
            maintenance_cycles=maintenance_cycles,
            total_cycles=clock.cycles - t0)
