"""Domains and virtual CPUs.

A :class:`Domain` is one guest OS instance as the VMM sees it: an id, a
memory reservation, the set of address spaces it has registered, its event
channels/grant entries, and one :class:`Vcpu` per virtual processor.

Domain 0 conventions follow Xen: the *driver domain* has direct device
access and hosts the backend drivers (§5.2).  Under Mercury the
self-virtualized OS itself becomes the driver domain when the VMM attaches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import DomainError

if TYPE_CHECKING:
    from repro.hw.paging import AddressSpace

DOM0_ID = 0


@dataclass(eq=False)
class Vcpu:
    """One virtual CPU: scheduling state plus the architectural context the
    VMM saves/restores at world switches.  Identity semantics (``eq=False``)
    — a VCPU is a unique schedulable entity, not a value."""

    vcpu_id: int
    domain_id: int
    runnable: bool = True
    #: saved guest context (CR3 frame, privilege, interrupt flag)
    saved_cr3: Optional[int] = None
    saved_if: bool = True
    #: credit-scheduler accounting
    credits: int = 0
    runtime_cycles: int = 0


class Domain:
    """One guest as managed by the VMM."""

    def __init__(self, domain_id: int, name: str, num_vcpus: int = 1,
                 is_driver_domain: bool = False):
        if domain_id < 0:
            raise DomainError(f"bad domain id {domain_id}")
        self.domain_id = domain_id
        self.name = name
        self.is_driver_domain = is_driver_domain
        self.vcpus = [Vcpu(i, domain_id) for i in range(num_vcpus)]
        #: address spaces this domain registered (pinned page tables)
        self.aspaces: list["AddressSpace"] = []
        #: pgd frame -> aspace index for CR3 loads (runs on every context
        #: switch; the list above stays for ordered iteration)
        self.aspace_by_pgd: dict[int, "AddressSpace"] = {}
        #: guest-installed trap table (vector -> handler) the VMM forwards to
        self.trap_table: dict[int, object] = {}
        self.alive = True
        #: the guest kernel object (set by the OS layer; opaque to the VMM)
        self.guest = None
        #: balloon reservation ledger, in pages.  Maintained by the balloon
        #: backend (inflate decrements, deflate increments); 0 means no
        #: balloon is connected and the domain's footprint is static.
        self.mem_pages = 0
        #: reservation floor: the elastic controller must never reclaim the
        #: domain below this, and the fleet balancer refuses to route to a
        #: domain under it
        self.mem_floor = 0

    @property
    def below_floor(self) -> bool:
        """True when the balloon ledger sits under the domain's floor."""
        return 0 < self.mem_pages < self.mem_floor

    def balloon_adjust(self, delta: int) -> None:
        """Move the reservation ledger by ``delta`` pages (the backend's
        commit point for inflate/deflate).  The ledger can never go
        negative: the frontend surrenders only frames it owns, so a
        negative ledger means double-accounting."""
        if self.mem_pages + delta < 0:
            raise DomainError(
                f"domain {self.domain_id} balloon ledger would go negative "
                f"({self.mem_pages} {delta:+d})")
        self.mem_pages += delta

    def register_aspace(self, aspace: "AddressSpace") -> None:
        if aspace not in self.aspaces:
            self.aspaces.append(aspace)
            self.aspace_by_pgd[aspace.pgd_frame] = aspace

    def unregister_aspace(self, aspace: "AddressSpace") -> None:
        try:
            self.aspaces.remove(aspace)
        except ValueError:
            raise DomainError("address space was not registered") from None
        self.aspace_by_pgd.pop(aspace.pgd_frame, None)

    def destroy(self) -> None:
        if not self.alive:
            raise DomainError(f"domain {self.domain_id} already destroyed")
        self.alive = False
        self.aspaces.clear()
        self.aspace_by_pgd.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Domain(id={self.domain_id}, name={self.name!r}, "
                f"vcpus={len(self.vcpus)}, driver={self.is_driver_domain})")
