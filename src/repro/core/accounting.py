"""Page type/count maintenance strategies — the §5.1.2 design choice.

The VMM's page-info table goes stale the moment the VMM deactivates.  Two
ways to have it correct again at the next attach:

- **RECOMPUTE** (the paper's default): rebuild it during the switch by
  re-validating every page-table page.  Free in native mode; costs the bulk
  of the 0.22 ms native→virtual switch.
- **ACTIVE**: keep it warm from native mode by shadowing every PT operation
  with cheap bookkeeping (:class:`ActiveAccountant`, hooked into
  :class:`~repro.core.native_vo.NativeVO`).  The paper measured this at
  2–3% runtime overhead for only a small switch-time saving — the ablation
  benchmark reproduces that trade-off.

:class:`MmuAccounting` sharpens the RECOMPUTE trade-off with a *dirty-root
set*: at detach it captures, per pinned page-table root, exactly what that
root contributes to the page-info columns; in native mode every PT
operation marks its root dirty (a one-bit note folded into the op — unlike
ACTIVE it maintains no counts and charges no cycles); the next attach then
revalidates only dirty/new roots, subtracts the captured contribution of
dead ones, and merely re-pins the clean rest.  First attach, an epoch bump
(:meth:`~repro.vmm.page_info.PageInfoTable.reset`) or a rolled-back switch
all distrust the tracker and fall back to the full recompute.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Optional

from repro.vmm.page_info import RootContribution

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.paging import AddressSpace
    from repro.vmm.page_info import PageInfoTable


class AccountingStrategy(enum.Enum):
    RECOMPUTE = "recompute"
    ACTIVE = "active"


class MmuAccounting:
    """Dirty-root tracking for the incremental attach recompute.

    State machine: ``trusted`` is True only between a committed detach
    (which captured per-root contributions) and the next attach commit or
    rollback.  While native, the VO layer calls the ``on_*`` hooks; they
    cost zero simulated cycles — the mark is a single bit that rides the
    PT write itself, which is the point of the design: unlike the ACTIVE
    strategy there is no per-operation accounting work to charge.

    All state is transactional: :meth:`checkpoint` / :meth:`restore` give
    the switch undo-log an exact snapshot, so a ``SwitchAborted`` rollback
    can never leave a phantom-clean root that would dodge revalidation on
    the retry."""

    def __init__(self):
        #: pgd frames of roots touched (or created) since the last detach.
        #: Identity-stable: the VO hot paths cache this very set object, so
        #: every mutation below is in-place (clear/update), never a rebind.
        self.dirty: set[int] = set()
        #: pgd frame -> contribution captured at the last detach
        self.contributions: dict[int, RootContribution] = {}
        #: contributions of captured roots destroyed in native mode,
        #: keyed by their (possibly since-reused) pgd frame
        self.dead: dict[int, RootContribution] = {}
        self.trusted = False
        #: page-info epoch the contributions were captured against
        self.epoch = -1
        #: attach statistics (benchmarks and traces read these)
        self.roots_trusted = 0
        self.roots_revalidated = 0
        self.full_recomputes = 0
        #: roots dirtied by balloon traffic specifically (the elasticity
        #: bench reads this to attribute attach-time drift to churn)
        self.balloon_marks = 0

    # -- native/virtual VO hooks (zero simulated cycles) -----------------

    def on_balloon(self, aspace: "AddressSpace") -> None:
        """A balloon operation (inflate unmap / deflate repopulate) touched
        this root.  The PTE work itself already marked the root through
        the VO; this explicit mark keeps the recompute exact even
        for balloon paths that bypass the VO hot path, and counts how much
        of the dirty set balloon churn is responsible for."""
        self.dirty.add(aspace.pgd.frame)
        self.balloon_marks += 1

    def on_new_root(self, aspace: "AddressSpace") -> None:
        self.dirty.add(aspace.pgd.frame)

    def on_destroy_root(self, aspace: "AddressSpace") -> None:
        pgd = aspace.pgd.frame
        contrib = self.contributions.pop(pgd, None)
        if contrib is not None:
            # captured at detach, torn down in native mode: its column
            # contribution must be subtracted at the next attach
            self.dead[pgd] = contrib
        self.dirty.discard(pgd)

    # -- detach: capture -------------------------------------------------

    def capture_at_detach(self, pinned_roots: Iterable["AddressSpace"],
                          page_info: "PageInfoTable") -> None:
        """Record the canonical per-root contributions of every root that
        was pinned when the detach began (an unpinned root has no column
        contribution and will be validated from scratch at the next
        attach).  Called after the lazy-MMU drain, so no PT update is
        still in flight."""
        self.contributions = {
            a.pgd.frame: RootContribution.capture(a) for a in pinned_roots
        }
        self.dead = {}
        self.dirty.clear()
        self.epoch = page_info.epoch
        self.trusted = True

    # -- attach: trust decision ------------------------------------------

    def can_trust(self, page_info: "PageInfoTable") -> bool:
        """The columns still hold what the last detach left behind: no
        rollback distrusted us and nobody reset the table under us."""
        return self.trusted and self.epoch == page_info.epoch

    def consume(self) -> None:
        """An attach committed: the table is live again and hypercalls
        maintain it; captured contributions are spent."""
        self.contributions = {}
        self.dead = {}
        self.dirty.clear()
        self.trusted = False

    def distrust(self) -> None:
        self.trusted = False

    # -- transactional snapshot (the switch undo-log seam) ---------------

    def checkpoint(self) -> tuple:
        return (set(self.dirty), dict(self.contributions), dict(self.dead),
                self.trusted, self.epoch)

    def restore(self, ck: tuple) -> None:
        dirty, contributions, dead, trusted, epoch = ck
        # copy again: one checkpoint may be restored more than once (each
        # journalled undo step of a transfer loop restores it idempotently)
        self.dirty.clear()
        self.dirty.update(dirty)
        self.contributions = dict(contributions)
        self.dead = dict(dead)
        self.trusted = trusted
        self.epoch = epoch


class ActiveAccountant:
    """Strategy 1: adapt the VMM's count information on every PT change
    made from native mode."""

    def __init__(self, page_info: "PageInfoTable"):
        self.page_info = page_info

    def _charge(self, cpu: "Cpu") -> None:
        cpu.charge(cpu.cost.cyc_active_track_per_op)

    # hooks called by NativeVO -------------------------------------------------

    def on_set_pte(self, cpu: "Cpu", aspace: "AddressSpace", vaddr: int,
                   pte: int, old_pte: Optional[int] = None) -> None:
        self._charge(cpu)
        if old_pte is not None:
            self.page_info.track_clear_pte(old_pte)
        leaf = aspace.leaf_for(vaddr)
        if leaf is not None and not self.page_info.is_pt_frame(leaf.frame):
            # a fresh leaf page-table page appeared under this write
            self.page_info.track_new_pt_page(leaf.frame, level=1)
        self.page_info.track_set_pte(pte, aspace.owner)

    def on_clear_pte(self, cpu: "Cpu", aspace: "AddressSpace", vaddr: int,
                     old_pte: int) -> None:
        self._charge(cpu)
        self.page_info.track_clear_pte(old_pte)

    def on_update_pte(self, cpu: "Cpu", aspace: "AddressSpace", vaddr: int,
                      pte: int) -> None:
        # flag changes don't move frame references; counts are unaffected
        self._charge(cpu)

    def on_new_address_space(self, cpu: "Cpu", aspace: "AddressSpace") -> None:
        self._charge(cpu)
        self.page_info.track_new_pt_page(aspace.pgd.frame, level=2)
        for leaf in aspace.pgd.entries.values():
            if not self.page_info.is_pt_frame(leaf.frame):
                self.page_info.track_new_pt_page(leaf.frame, level=1)

    def on_destroy_address_space(self, cpu: "Cpu", aspace: "AddressSpace") -> None:
        self._charge(cpu)
        for leaf in aspace.pgd.entries.values():
            for pte in leaf.entries.values():
                self.page_info.track_clear_pte(pte)
            self.page_info.track_drop_pt_page(leaf.frame)
        self.page_info.track_drop_pt_page(aspace.pgd.frame)

    # rebuild ------------------------------------------------------------------

    def replay(self, cpu: "Cpu", aspaces: list["AddressSpace"]) -> None:
        """Re-derive the counts of live address spaces into a fresh table
        (a microreboot's new VMM starts from an empty one): every PT page
        first, then every mapping, through the same hooks native mode
        runs."""
        for aspace in aspaces:
            self.on_new_address_space(cpu, aspace)
        for aspace in aspaces:
            for leaf in aspace.pgd.entries.values():
                for pte in leaf.entries.values():
                    self.page_info.track_set_pte(pte, aspace.owner)
