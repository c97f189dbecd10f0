"""The six evaluated configurations (§7: N-L, M-N, X-0, M-V, X-U, M-U).

| key | system                                   | construction               |
|-----|------------------------------------------|----------------------------|
| N-L | native (unmodified) Linux                | bare kernel, no VO charge  |
| M-N | Mercury-Linux in native mode             | Mercury, VMM pre-cached    |
| X-0 | Xen-Linux domain0                        | VMM from boot, driver dom  |
| M-V | Mercury-Linux in virtual mode            | Mercury after attach       |
| X-U | Xen-Linux domainU                        | + split I/O through dom0   |
| M-U | Xen-Linux hosted on self-virtualized OS  | Mercury attach + host      |

Every configuration also gets a *peer*: a plain native-Linux box wired to
the system under test through the gigabit link, used by the network
benchmarks (the load-generator end is held constant so differences come
from the system under test, as in §7.1's client/server setup).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.accounting import AccountingStrategy
from repro.core.mercury import Mercury
from repro.core.native_vo import NativeVO
from repro.core.virtual_vo import VirtualVO
from repro.errors import ReproError
from repro.guestos.kernel import Kernel
from repro.guestos.splitio import connect_split_block, connect_split_net
from repro.hw.clock import Clock
from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.vmm.hypervisor import Hypervisor

#: configuration keys in the paper's column order
CONFIG_KEYS = ("N-L", "M-N", "X-0", "M-V", "X-U", "M-U")


class BareMetalVO(NativeVO):
    """The VO an *unmodified* kernel effectively has: direct hardware
    access with no function-table indirection cost (the N-L baseline).
    Refcounting is kept (it is free) so shared invariants hold."""

    mode_name = "bare"
    #: the knob the sensitive wrapper honors — an unmodified kernel has
    #: no function table to indirect through
    charges_indirect = False


@dataclass
class SystemUnderTest:
    """One built configuration, ready to take workloads."""

    key: str
    machine: Machine
    #: the kernel workloads run on (dom0/domU/native as the config demands)
    kernel: Kernel
    #: a native peer box on the other end of the wire
    peer_kernel: Kernel
    mercury: Optional[Mercury] = None
    vmm: Optional[Hypervisor] = None
    #: the driver-domain kernel when distinct from `kernel` (X-U, M-U)
    driver_kernel: Optional[Kernel] = None

    @property
    def cpu(self):
        return self.machine.boot_cpu


def _make_peer(clock: Clock, config: MachineConfig, sut_machine: Machine) -> Kernel:
    """The constant native load-generator on the other end of the link."""
    peer_machine = Machine(config, clock=clock, name="peer")
    peer_kernel = Kernel(peer_machine, BareMetalVO(peer_machine),
                         owner_id=0, name="peer-linux")
    peer_kernel.boot()
    sut_machine.link_to(peer_machine)
    return peer_kernel


def build_config(key: str, config: Optional[MachineConfig] = None,
                 image_pages: int = 96,
                 strategy: AccountingStrategy = AccountingStrategy.RECOMPUTE
                 ) -> SystemUnderTest:
    """Construct one of the six systems, booted and ready."""
    config = config or MachineConfig()
    clock = Clock(freq_mhz=config.cost.freq_mhz)
    machine = Machine(config, clock=clock, name=f"sut-{key}")

    if key == "N-L":
        kernel = Kernel(machine, BareMetalVO(machine), owner_id=0,
                        name="native-linux")
        kernel.boot(image_pages=image_pages)
        peer = _make_peer(clock, config, machine)
        return SystemUnderTest(key, machine, kernel, peer)

    if key == "M-N":
        mercury = Mercury(machine, strategy=strategy)
        kernel = mercury.create_kernel(name="mercury-linux",
                                       image_pages=image_pages)
        peer = _make_peer(clock, config, machine)
        return SystemUnderTest(key, machine, kernel, peer, mercury=mercury,
                               vmm=mercury.vmm)

    if key == "M-V":
        mercury = Mercury(machine, strategy=strategy)
        kernel = mercury.create_kernel(name="mercury-linux",
                                       image_pages=image_pages)
        peer = _make_peer(clock, config, machine)
        mercury.attach()
        return SystemUnderTest(key, machine, kernel, peer, mercury=mercury,
                               vmm=mercury.vmm)

    if key == "M-U":
        mercury = Mercury(machine, strategy=strategy)
        driver = mercury.create_kernel(name="mercury-linux",
                                       image_pages=image_pages)
        peer = _make_peer(clock, config, machine)
        mercury.attach()
        guest = mercury.host_guest(name="domU", image_pages=image_pages)
        return SystemUnderTest(key, machine, guest, peer, mercury=mercury,
                               vmm=mercury.vmm, driver_kernel=driver)

    if key in ("X-0", "X-U"):
        # Xen from boot: warm up + activate before the guest exists
        vmm = Hypervisor(machine)
        vmm.warm_up()
        dom0 = vmm.create_domain("dom0", num_vcpus=config.num_cpus,
                                 is_driver_domain=True, domain_id=0)
        vmm.activate()
        dom0_vo = VirtualVO(machine, vmm, dom0)
        dom0_kernel = Kernel(machine, dom0_vo, owner_id=0, name="xen-dom0")
        dom0.guest = dom0_kernel
        dom0_kernel.boot(image_pages=image_pages)
        peer = _make_peer(clock, config, machine)
        if key == "X-0":
            return SystemUnderTest(key, machine, dom0_kernel, peer, vmm=vmm)
        domU = vmm.create_domain("domU", num_vcpus=config.num_cpus,
                                 domain_id=1)
        domU_vo = VirtualVO(machine, vmm, domU)
        domU_kernel = Kernel(machine, domU_vo, owner_id=1, name="xen-domU",
                             has_devices=False)
        domU.guest = domU_kernel
        connect_split_block(domU_kernel, dom0_kernel, vmm)
        connect_split_net(domU_kernel, dom0_kernel, vmm,
                          guest_addr=f"{machine.nic.addr}:u1")
        domU_kernel.boot(image_pages=image_pages)
        return SystemUnderTest(key, machine, domU_kernel, peer, vmm=vmm,
                               driver_kernel=dom0_kernel)

    raise ReproError(f"unknown configuration key {key!r}; "
                     f"expected one of {CONFIG_KEYS}")
