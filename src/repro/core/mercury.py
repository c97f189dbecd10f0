"""Mercury — the top-level self-virtualization controller (§4.4).

One :class:`Mercury` instance per machine.  It owns the pre-cached VMM, the
native/virtual VO pair, and the mode-switch engine, and it exposes the
operations the usage scenarios (§6) are built from:

- :meth:`attach` / :meth:`detach` — move the OS between native and
  partial-virtual mode (VMM underneath, OS as driver domain);
- :meth:`full_virtualize` / :meth:`departial` — prepare the OS for being
  treated as a migratable guest (full-virtual mode);
- :meth:`host_guest` — run an unmodified para-virtual guest OS on top of
  the self-virtualized OS (the M-U configuration of §7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.accounting import (AccountingStrategy, ActiveAccountant,
                                   MmuAccounting)
from repro.core.native_vo import NativeVO
from repro.core.precache import PrecacheInfo, precache_vmm
from repro.core.switch import Direction, ModeSwitchEngine, SwitchRecord
from repro.core.virtual_vo import VirtualVO
from repro.errors import ModeSwitchError
from repro.guestos.kernel import Kernel
from repro.guestos.splitio import (connect_split_balloon, connect_split_block,
                                   connect_split_net)

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.machine import Machine
    from repro.vmm.domain import Domain


class Mode(enum.Enum):
    """Execution modes of a self-virtualized OS (§6 terminology)."""

    NATIVE = "native"
    #: VMM attached; the OS is the driver domain and may host other guests
    PARTIAL_VIRTUAL = "partial-virtual"
    #: VMM attached and the OS prepared as a migratable guest
    FULL_VIRTUAL = "full-virtual"


class PagingMode(enum.Enum):
    """Physical-address handling in virtual mode (§3.2.2).

    DIRECT is the paper's choice: guest page tables are installed in the
    MMU read-only after validation.  SHADOW is the alternative it avoided:
    the VMM runs the hardware on translated copies — implemented here so
    the design choice can be measured (ablation A4)."""

    DIRECT = "direct"
    SHADOW = "shadow"


@dataclass(eq=False)
class GuestWiring:
    """One domain's split I/O as Mercury records it: what to connect —
    kept across a VMM microreboot, so the re-host connects the same I/O —
    and the ``(front, back)`` pairs connected now, in wiring order."""

    kernel: Kernel
    #: address on the wire; None wires no block/net pair (dom0 ballooning)
    addr: Optional[str]
    #: reservation floor the elastic controller must respect
    mem_floor: int = 0
    #: wire a balloon pair (always the last pair)
    balloon: bool = False
    pairs: list = field(default_factory=list)

    @property
    def balloon_pair(self) -> Optional[tuple]:
        """The connected ``(BalloonFront, BalloonBack)``, if any."""
        return self.pairs[-1] if self.balloon and self.pairs else None


class Mercury:
    """Self-virtualization support for one machine + kernel."""

    def __init__(self, machine: "Machine",
                 strategy: AccountingStrategy = AccountingStrategy.RECOMPUTE,
                 paging: PagingMode = PagingMode.DIRECT,
                 charge_boot_time: bool = False,
                 incremental_attach: bool = True):
        self.machine = machine
        self.strategy = strategy
        self.paging = paging
        #: shadow pager (created on first attach when paging=SHADOW)
        self.pager = None

        # §4.1: warm the VMM up at boot and keep it resident
        self.vmm, self.precache_info = precache_vmm(
            machine, charge_boot_time=charge_boot_time)

        accountant = None
        if strategy is AccountingStrategy.ACTIVE:
            accountant = ActiveAccountant(self.vmm.page_info)
        self.accountant = accountant

        #: dirty-root tracker for the incremental attach recompute (§5.1.2
        #: sharpened); ``incremental_attach=False`` reproduces the paper's
        #: full recompute on every attach
        self.mmu_log = MmuAccounting() if incremental_attach else None

        self.native_vo = NativeVO(machine, accountant=accountant,
                                  mmu_log=self.mmu_log)
        self.virtual_vo: Optional[VirtualVO] = None
        self.kernel: Optional[Kernel] = None
        self.domain: Optional["Domain"] = None
        self.engine = ModeSwitchEngine(self)
        self.mode = Mode.NATIVE
        #: ``owner_id -> GuestWiring`` for every hosted guest and, when dom0
        #: balloons, the kernel itself — in wiring order
        self._wiring: dict[int, GuestWiring] = {}
        #: installed by repro.watchdog.Watchdog / core.recovery.RecoveryManager
        self.watchdog = None
        self.recovery = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def create_kernel(self, name: str = "mercury-linux", owner_id: int = 0,
                      boot: bool = True, image_pages: int = 96) -> Kernel:
        """Build the self-virtualizable kernel on this machine."""
        if self.kernel is not None:
            raise ModeSwitchError("Mercury already has a kernel")
        self.kernel = Kernel(self.machine, self.native_vo, owner_id=owner_id,
                             name=name)
        if boot:
            self.kernel.boot(image_pages=image_pages)
        self.engine.install_handlers()
        return self.kernel

    def adopt_kernel(self, kernel: Kernel) -> None:
        """Adopt an externally-built kernel (it must use our native VO)."""
        if kernel.vo is not self.native_vo:
            raise ModeSwitchError("adopted kernel must run on Mercury's native VO")
        self.kernel = kernel
        self.engine.install_handlers()

    def ensure_domain(self) -> "Domain":
        """The driver domain backing the self-virtualized OS (created on
        first attach, with the kernel's frame-owner identity)."""
        if self.domain is None:
            self.domain = self.vmm.create_domain(
                self.kernel.name, num_vcpus=len(self.machine.cpus),
                is_driver_domain=True, domain_id=self.kernel.owner_id)
            self.domain.guest = self.kernel
            if self.paging is PagingMode.SHADOW:
                from repro.core.shadow_vo import ShadowVirtualVO
                from repro.vmm.shadow import ShadowPager
                self.pager = ShadowPager(self.machine.memory,
                                         self.kernel.owner_id)
                self.virtual_vo = ShadowVirtualVO(self.machine, self.vmm,
                                                  self.domain, self.pager,
                                                  mmu_log=self.mmu_log)
            else:
                self.virtual_vo = VirtualVO(self.machine, self.vmm,
                                            self.domain,
                                            mmu_log=self.mmu_log)
        return self.domain

    # ------------------------------------------------------------------
    # mode switching
    # ------------------------------------------------------------------

    def attach(self, cpu: Optional["Cpu"] = None,
               wait: bool = True) -> Optional[SwitchRecord]:
        """Native → partial-virtual: attach the pre-cached VMM underneath
        the running OS.  Returns the switch record once committed (drains
        the retry timer if ``wait``)."""
        if self.mode is not Mode.NATIVE:
            raise ModeSwitchError(f"attach from mode {self.mode}")
        before = len(self.engine.records)
        self.engine.request(Direction.TO_VIRTUAL, cpu)
        if wait:
            self._drain_until_committed(before)
        if len(self.engine.records) > before:
            return self.engine.records[-1]
        return None

    def detach(self, cpu: Optional["Cpu"] = None) -> Optional[SwitchRecord]:
        """Partial-virtual → native: detach the VMM, OS back on bare
        hardware.  Returns the switch record once committed (drains the
        retry timer)."""
        if self.mode is Mode.NATIVE:
            raise ModeSwitchError("detach while already native")
        guests = self.guests
        if guests:
            raise ModeSwitchError(
                f"cannot detach while hosting {len(guests)} guest(s)")
        before = len(self.engine.records)
        self.engine.request(Direction.TO_NATIVE, cpu)
        self._drain_until_committed(before)
        if len(self.engine.records) > before:
            return self.engine.records[-1]
        return None

    def full_virtualize(self, cpu: Optional["Cpu"] = None) -> None:
        """Enter full-virtual mode: attach if needed, then quiesce the OS
        as a migratable guest (flush dirty file state; device frontends are
        re-created post-migration, §5.2)."""
        if self.mode is Mode.NATIVE:
            self.attach(cpu)
        cpu = cpu or self.machine.boot_cpu
        self.kernel.fs.sync_all(cpu)
        self.mode = Mode.FULL_VIRTUAL

    def departial(self) -> None:
        """Leave full-virtual mode back to partial-virtual (after a
        migration returns, for instance)."""
        if self.mode is not Mode.FULL_VIRTUAL:
            raise ModeSwitchError(f"departial from mode {self.mode}")
        self.mode = Mode.PARTIAL_VIRTUAL

    def _drain_until_committed(self, before: int) -> None:
        """Let the retry timer fire until the pending switch commits."""
        for _ in range(10_000):  # retry-timer events before giving up
            if len(self.engine.records) > before:
                return
            if self.machine.clock.next_deadline() is None:
                return  # nothing pending: request must have failed hard
            self.machine.clock.drain_until_idle(max_events=1)
            self.machine.poll()

    # ------------------------------------------------------------------
    # hosting unmodified guests (M-U)
    # ------------------------------------------------------------------

    def host_guest(self, name: str = "domU", image_pages: int = 96,
                   mem_pages: Optional[int] = None, mem_floor: int = 0,
                   balloon: bool = False) -> Kernel:
        """Create and boot an unmodified Xen-Linux guest on top of the
        self-virtualized OS (which serves as its driver domain).

        ``mem_pages`` (or ``balloon=True``) makes the guest's reservation
        elastic: a balloon pair is connected, the reservation is topped up
        to ``mem_pages`` with cold pool frames, and the elastic controller
        may reclaim it down to ``mem_floor``."""
        if self.mode is Mode.NATIVE:
            raise ModeSwitchError("host_guest requires an attached VMM")
        guest = self.guest_shell(name)
        addr = f"{self.machine.nic.addr}:u{guest.owner_id}"
        record = GuestWiring(guest, addr, mem_floor,
                             balloon or mem_pages is not None)
        self.wire(record)
        guest.boot(image_pages=image_pages)
        if record.balloon:
            self._reserve(record, mem_pages)
        return guest

    def guest_shell(self, name: str, guest: Optional[Kernel] = None) -> Kernel:
        """Build a hosted guest's VMM-side shell: a domain and a VirtualVO.

        A new guest (``guest`` None) also gets its Kernel, under the next
        free domain id.  A surviving guest (the re-host after a VMM
        microreboot) keeps its kernel and id and moves onto the fresh VO."""
        owner_id = (guest.owner_id if guest is not None
                    else max([*self.vmm.domains, 0]) + 1)
        domain = self.vmm.create_domain(name, domain_id=owner_id)
        vo = VirtualVO(self.machine, self.vmm, domain)
        if guest is None:
            guest = Kernel(self.machine, vo, owner_id=owner_id, name=name,
                           has_devices=False)
        else:
            guest.vo = vo
        domain.guest = guest
        return guest

    def wire(self, record: GuestWiring) -> None:
        """Connect a domain's split-driver pairs to the driver domain and
        record them: block and net when ``record.addr`` is set, then the
        balloon.  The one wiring path for hosting, restoring a migrated
        guest and re-hosting after a microreboot.

        A re-wired balloon adopts the previous frontend's pool and regions,
        and a running kernel's reservation ledger is re-derived from the
        frames it owns — a squeezed guest comes back at its resized
        footprint, not its original one."""
        guest, driver, vmm = record.kernel, self.kernel, self.vmm
        old_balloon, record.pairs = record.balloon_pair, []
        if record.addr is not None:
            record.pairs.append(connect_split_block(guest, driver, vmm))
            record.pairs.append(
                connect_split_net(guest, driver, vmm, record.addr))
        if record.balloon:
            mmu_log = self.mmu_log if guest is driver else None
            front, back = connect_split_balloon(guest, driver, vmm,
                                                mmu_log=mmu_log)
            if old_balloon is not None:
                front.adopt(old_balloon[0])
            record.pairs.append((front, back))
        self._wiring[guest.owner_id] = record
        if record.balloon and guest.booted:
            self._reserve(record)

    def _reserve(self, record: GuestWiring,
                 mem_pages: Optional[int] = None) -> None:
        """Establish a ballooned domain's reservation ledger from the
        frames it owns, topped up to ``mem_pages`` with cold pool frames."""
        guest = record.kernel
        domain = self.vmm.domains[guest.owner_id]
        domain.mem_floor = record.mem_floor
        owned = len(self.machine.memory.frames_owned_by(guest.owner_id))
        if mem_pages is not None and mem_pages > owned:
            record.balloon_pair[0].fill_pool(guest.boot_cpu,
                                             mem_pages - owned)
            owned = mem_pages
        domain.mem_pages = owned

    def unwire(self, guest: Kernel) -> GuestWiring:
        """Disconnect ``guest``'s split I/O: drop its record (it leaves the
        guests, backends and balloons views) and the driver domain's route
        to its address.  Returns the record for a re-host to wire again."""
        record = self._wiring.pop(guest.owner_id)
        if record.addr is not None:
            self.kernel.route_table.pop(record.addr, None)
        return record

    def connect_balloon(self):
        """Dom0 ballooning: make the self-virtualized OS's own reservation
        elastic.  The kernel is its own driver domain, so front and back
        both live in dom0 — exactly Xen's arrangement.  Returns the
        ``(front, back)`` pair."""
        if self.mode is Mode.NATIVE:
            raise ModeSwitchError("connect_balloon requires an attached VMM")
        self.ensure_domain()
        record = GuestWiring(self.kernel, None, balloon=True)
        self.wire(record)
        return record.balloon_pair

    @property
    def balloons(self) -> dict:
        """``owner_id -> (BalloonFront, BalloonBack)`` for every connected
        balloon (hosted guests and, for dom0 ballooning, the kernel)."""
        return {owner: record.balloon_pair
                for owner, record in self._wiring.items() if record.balloon}

    @property
    def backends(self) -> list:
        """Every split-driver backend, in wiring order (the watchdog's scan
        set; fault sites pick from it by index)."""
        return [back for record in self._wiring.values()
                for _, back in record.pairs]

    def shutdown_guest(self, guest: Kernel) -> None:
        """Tear a hosted guest down: unwire its split I/O and destroy its
        domain."""
        if guest not in self.guests:
            raise ModeSwitchError("unknown guest")
        self.unwire(guest)
        domain = self.vmm.domains.get(guest.owner_id)
        if domain is not None:
            self.vmm.destroy_domain(domain)

    @property
    def guests(self) -> list[Kernel]:
        return [record.kernel for record in self._wiring.values()
                if record.kernel is not self.kernel]

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    @property
    def switch_records(self) -> list[SwitchRecord]:
        return self.engine.records

    def mean_switch_us(self, direction: Direction) -> Optional[float]:
        recs = [r for r in self.engine.records if r.direction is direction]
        if not recs:
            return None
        freq = self.machine.config.cost.freq_mhz
        return sum(r.us(freq) for r in recs) / len(recs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Mercury(mode={self.mode.value}, strategy={self.strategy.value}, "
                f"switches={len(self.engine.records)})")
