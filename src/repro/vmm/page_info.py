"""Per-frame owner/type/count tracking — Xen's page_info, §5.1.2.

To enforce isolation the VMM tracks, for every physical frame: which domain
owns it, what *type* it is currently validated as (leaf page table, PGD, or
plain writable memory), and two counts (type count and general reference
count).  A frame may never simultaneously be a page-table page and writable
by the guest — that is the invariant that makes direct paging safe.

This table is exactly the state Mercury must reconstruct when attaching the
VMM to a formerly-native OS: the paper's measurement (§7.4) shows that
recomputing it dominates the 0.22 ms native→virtual switch.  Both strategies
of §5.1.2 are here:

- **RECOMPUTE**: :meth:`PageInfoTable.recompute` rebuilds the table from the
  OS's address spaces at switch time (the paper's chosen default).
- **ACTIVE**: :class:`repro.core.accounting.ActiveAccountant` calls the
  ``track_*`` methods from native mode on every PT operation, keeping the
  table warm at a 2–3% running cost.

Storage is *columnar*: parallel ``bytearray``/``array('i')`` columns indexed
by frame number, plus a pinned byte-map.  Scalar indexing into these columns
is a plain C-level load/store, which matters because the validation and
count bookkeeping below run per-PTE on the hottest guest paths
(``mmu_update``), and because a reset is a single memset-style slice write.
Zero-copy numpy views of the type and count columns serve the batch form of
the same rules, :meth:`PageInfoTable.account_batch`: a large leaf validation
or region write updates the columns in a few vectorized passes over its PTE
words, and falls back to the per-entry rules wherever entries could
interact.
The pinned map is owned by this class: external code pins and unpins through
:meth:`pin_frame`/:meth:`unpin_frame` (or the bulk variants) and reads
through the set-like :attr:`pinned` view or the raw :attr:`pinned_map`.

On top of the columns sit the *incremental attach* primitives: a
:class:`RootContribution` records exactly what one page-table root adds to
the columns, captured at detach time and subtracted (or merely re-pinned)
at the next attach so only roots dirtied in native mode pay revalidation —
see :class:`repro.core.accounting.MmuAccounting`.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import PageValidationError
from repro.hw.memory import LEAF_PASS_MIN, distinct_frames
from repro.hw.paging import PTE_FRAME_SHIFT, PTE_P, PTE_W, word_array
from repro.params import PT_ENTRIES

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.memory import PhysicalMemory
    from repro.hw.paging import AddressSpace, PageTablePage


class PageType(enum.IntEnum):
    NONE = 0
    WRITABLE = 1
    L1_PAGETABLE = 2   # leaf page-table page
    L2_PAGETABLE = 3   # PGD


# enum member access goes through EnumType.__getattr__ on every lookup and
# the validation loops below run per-PTE on the hottest guest paths — hoist
# the values to plain ints once
_NONE = int(PageType.NONE)
_WRITABLE = int(PageType.WRITABLE)
_L1 = int(PageType.L1_PAGETABLE)
_L2 = int(PageType.L2_PAGETABLE)

#: an empty batch of PTE words
_NO_WORDS = np.empty(0, dtype=np.int64)


class PinnedView(AbstractSet):
    """Set-like read view over the pinned byte-map.

    Supports ``in``, iteration, ``len``, truthiness and ``==`` against real
    sets (via :class:`collections.abc.Set`), so existing callers that treat
    the pinned frames as a set keep working; mutation goes through the
    table's explicit pin/unpin API."""

    __slots__ = ("_map", "_table")

    def __init__(self, table: "PageInfoTable"):
        self._table = table
        self._map = table.pinned_map

    def __contains__(self, frame: object) -> bool:
        try:
            return frame >= 0 and self._map[frame] != 0
        except (IndexError, TypeError):
            return False

    def __iter__(self) -> Iterator[int]:
        m = self._map
        return (f for f in range(len(m)) if m[f])

    def __len__(self) -> int:
        return self._table.pinned_count


class RootContribution:
    """Exactly what one validated page-table root contributes to the
    columns: the PGD (typed L2, one type ref), each leaf (typed L1, one type
    ref, one general ref held by the PGD) and, per present PTE, one type
    count and one general ref on the mapped frame.

    Captured from the root's *structure* at detach time — legitimate while
    the root is pinned, because from pin to unpin every structural change
    flows through ``mmu_update``/``adopt_new_leaf``, which maintain the
    table in exactly this canonical shape."""

    __slots__ = ("pgd_frame", "leaf_frames", "mapped")

    def __init__(self, pgd_frame: int, leaf_frames: tuple,
                 mapped: dict):
        self.pgd_frame = pgd_frame
        self.leaf_frames = leaf_frames
        #: frame -> number of present PTEs of this root mapping it (each
        #: contributes +1 type count and +1 ref count)
        self.mapped = mapped

    @classmethod
    def capture(cls, aspace: "AddressSpace") -> "RootContribution":
        mapped: dict[int, int] = {}
        get = mapped.get
        for leaf in aspace.pgd.entries.values():
            for pte in leaf.entries.values():
                if pte & PTE_P:
                    f = pte >> PTE_FRAME_SHIFT
                    mapped[f] = get(f, 0) + 1
        return cls(aspace.pgd.frame,
                   tuple(l.frame for l in aspace.pgd.entries.values()),
                   mapped)

    def num_pt_pages(self) -> int:
        return 1 + len(self.leaf_frames)


class PageInfoTable:
    """The VMM's view of every physical frame (columnar)."""

    def __init__(self, mem: "PhysicalMemory"):
        self.mem = mem
        n = mem.num_frames
        #: validated type per frame (PageType values), one byte each
        self.type = bytearray(n)
        self.type_count = array("i", bytes(4 * n))
        self.ref_count = array("i", bytes(4 * n))
        #: zero-copy numpy views of the three columns for the batch passes
        #: (the columns are never rebound: reset() rewrites them in place)
        self._type_np = np.frombuffer(self.type, dtype=np.uint8)
        self._count_np = np.frombuffer(self.type_count, dtype=np.int32)
        self._refs_np = np.frombuffer(self.ref_count, dtype=np.int32)
        #: pinned page-table frames as a byte-map (1 = pinned); mutate only
        #: through pin_frame/unpin_frame so the count stays coherent
        self.pinned_map = bytearray(n)
        self.pinned_count = 0
        #: set-like view over :attr:`pinned_map` for membership/iteration
        self.pinned = PinnedView(self)
        self.validations = 0
        #: bumped by :meth:`reset` — anyone holding captured per-root
        #: contributions (the incremental-attach tracker) must consider
        #: them void when the epoch moved under them
        self.epoch = 0

    # ------------------------------------------------------------------
    # pinning — the byte-map has one owner: this API
    # ------------------------------------------------------------------

    def is_pinned(self, frame: int) -> bool:
        return self.pinned_map[frame] != 0

    def pin_frame(self, frame: int) -> bool:
        """Mark ``frame`` pinned; returns True if it was not already."""
        m = self.pinned_map
        if m[frame]:
            return False
        m[frame] = 1
        self.pinned_count += 1
        return True

    def unpin_frame(self, frame: int) -> bool:
        """Clear ``frame``'s pin mark; returns True if it was pinned."""
        m = self.pinned_map
        if not m[frame]:
            return False
        m[frame] = 0
        self.pinned_count -= 1
        return True

    def pin_frames(self, frames: Iterable[int]) -> None:
        for f in frames:
            self.pin_frame(f)

    def unpin_frames(self, frames: Iterable[int]) -> None:
        for f in frames:
            self.unpin_frame(f)

    # ------------------------------------------------------------------
    # validation / pinning (used when the VMM is ACTIVE, and during the
    # native->virtual state transfer)
    # ------------------------------------------------------------------

    def validate_leaf(self, cpu: "Cpu", leaf: "PageTablePage", domain_id: int) -> None:
        """Validate one leaf PT page for ``domain_id`` and account its
        references.  Charges a full-width entry scan (hardware must look at
        every slot, present or not).

        A leaf of at least :data:`~repro.hw.memory.LEAF_PASS_MIN` entries
        is accounted in one :meth:`account_batch` over its words, with the
        leaf's own frame named as retyped; a smaller one, or one that pass
        declines, takes the per-entry rules, which raise on the first bad
        entry after accounting the entries before it.  Either way the leaf
        then takes its L1 type."""
        cpu.charge(cpu.cost.cyc_pte_validate * PT_ENTRIES)
        self.validations += 1
        entries = leaf.entries
        n = len(entries)
        words = word_array(entries.values(), n) if n >= LEAF_PASS_MIN else None
        if words is None or not self.account_batch(
                words, _NO_WORDS, domain_id, (leaf.frame,)):
            ptype, pcount, prefs = self.type, self.type_count, self.ref_count
            owner = self.mem.owner
            for pte in entries.values():
                if not pte & PTE_P:
                    continue
                frame = pte >> PTE_FRAME_SHIFT
                if owner[frame] != domain_id:
                    self._check_frame_for(frame, domain_id)
                t = ptype[frame]
                if pte & PTE_W and (t == _L1 or t == _L2):
                    raise PageValidationError(
                        f"writable mapping of page-table frame {frame}")
                prefs[frame] += 1
                if t == _NONE:
                    ptype[frame] = _WRITABLE
                pcount[frame] += 1
        self._set_type(leaf.frame, PageType.L1_PAGETABLE)

    def validate_pgd(self, cpu: "Cpu", aspace: "AddressSpace", domain_id: int) -> None:
        """Validate a whole address space top-down (pin operation)."""
        for leaf in aspace.pgd.entries.values():
            if not self.pinned_map[leaf.frame]:
                self.validate_leaf(cpu, leaf, domain_id)
                self.pin_frame(leaf.frame)
            self._get_ref(leaf.frame)
        cpu.charge(cpu.cost.cyc_pte_validate * PT_ENTRIES)
        self._set_type(aspace.pgd.frame, PageType.L2_PAGETABLE)
        self.pin_frame(aspace.pgd.frame)

    def account_batch(self, installed: np.ndarray, cleared: np.ndarray,
                      domain_id: int, retyped: Sequence[int] = ()) -> bool:
        """The per-entry count rules of ``mmu_update`` and
        :meth:`validate_leaf` for a whole batch of PTE words (int64
        arrays), as numpy passes over the columns: each present installed
        word's frame takes one type count and one reference and turns NONE
        into WRITABLE; each present cleared word's frame gives them back
        and turns WRITABLE into NONE when its count reaches zero.  A
        non-present word counts nothing.

        The passes equal the entry-by-entry result only when no two
        entries touch the same frame and no entry fails, so the batch is
        checked first and refused — False, columns untouched — if a frame
        is out of range or named twice (``retyped``, frames the caller
        retypes in the same batch, count as named), if an install maps a
        foreign frame or a page-table frame writable, or if a clear meets
        the ``n > 0`` clamp.  The caller then applies the sequential rules,
        which raise where they always did."""
        present = installed & PTE_P
        if not present.all():
            installed = installed[present != 0]
        fi = installed >> PTE_FRAME_SHIFT
        named = [fi]
        if cleared.size:
            cleared = cleared[cleared & PTE_P != 0]
            fc = cleared >> PTE_FRAME_SHIFT
            named.append(fc)
        if len(retyped):
            named.append(retyped)
        if not distinct_frames(
                np.concatenate(named) if len(named) > 1 else fi,
                len(self.type)):
            return False
        ptype, pcount, prefs = self._type_np, self._count_np, self._refs_np
        if fi.size:
            if (self.mem.owner_np[fi] != domain_id).any():
                return False
            t = ptype[fi]
            pt = t >= _L1                       # L1 or L2
            if pt.any() and (installed[pt] & PTE_W).any():
                return False
        if cleared.size:
            n = pcount[fc]
            if (n <= 0).any():
                return False
        if fi.size:
            ptype[fi[t == _NONE]] = _WRITABLE
            pcount[fi] += 1
            prefs[fi] += 1
        if cleared.size:
            pcount[fc] = n - 1
            prefs[fc] -= 1
            last = fc[n == 1]
            ptype[last[ptype[last] == _WRITABLE]] = _NONE
        return True

    def adopt_new_leaf(self, cpu: "Cpu", leaf: "PageTablePage") -> None:
        """A validated mmu_update just instantiated a fresh leaf under a
        pinned PGD (an L2-entry install): the new page-table page must be
        typed, referenced and pinned like any other, or a later unpin
        would unbalance the counts."""
        cpu.charge(cpu.cost.cyc_pte_validate * PT_ENTRIES)
        self._set_type(leaf.frame, PageType.L1_PAGETABLE)
        self._get_ref(leaf.frame)   # the PGD's reference on its leaf
        self.pin_frame(leaf.frame)

    def unpin_aspace(self, cpu: "Cpu", aspace: "AddressSpace") -> None:
        """Drop validation of an address space being torn down.

        Unpinning a table that was never pinned is a guest error (Xen
        returns -EINVAL); accepting it would drive reference counts
        negative."""
        if not self.pinned_map[aspace.pgd.frame]:
            raise PageValidationError(
                f"unpin of unpinned PGD frame {aspace.pgd.frame}")
        for leaf in aspace.pgd.entries.values():
            # drop the PGD's reference on the leaf *before* the leaf's
            # counters are wiped (the mirror image of validate_pgd's
            # validate-then-get_ref order)
            self._put_ref(leaf.frame)
            if self.unpin_frame(leaf.frame):
                self._unaccount_leaf(cpu, leaf)
        self.unpin_frame(aspace.pgd.frame)
        self._clear_type(aspace.pgd.frame)

    # ------------------------------------------------------------------
    # ACTIVE tracking entry points (strategy 1 of §5.1.2)
    # ------------------------------------------------------------------

    def track_set_pte(self, pte, domain_id: int) -> None:
        """Cheap bookkeeping-only update (no privilege checks: the OS is
        native and trusted; we only keep counters warm)."""
        if pte is None or not pte & PTE_P:
            return
        frame = pte >> PTE_FRAME_SHIFT
        self.ref_count[frame] += 1
        if self.type[frame] == _NONE:
            self.type[frame] = _WRITABLE
        self.type_count[frame] += 1

    def track_clear_pte(self, old_pte) -> None:
        if old_pte is None or not old_pte & PTE_P:
            return
        frame = old_pte >> PTE_FRAME_SHIFT
        self.type_count[frame] -= 1
        self.ref_count[frame] -= 1
        if self.type_count[frame] == 0 and self.type[frame] == _WRITABLE:
            self.type[frame] = _NONE

    def track_new_pt_page(self, pt_frame: int, level: int) -> None:
        self.type[pt_frame] = _L2 if level == 2 else _L1
        self.type_count[pt_frame] = 1  # one use as a page table

    def track_drop_pt_page(self, pt_frame: int) -> None:
        self.type[pt_frame] = _NONE
        self.type_count[pt_frame] = 0
        self.ref_count[pt_frame] = 0

    # ------------------------------------------------------------------
    # RECOMPUTE (strategy 2, the paper's default) — the dominant cost of a
    # native->virtual mode switch
    # ------------------------------------------------------------------

    def recompute(self, cpu: "Cpu", aspaces: Iterable["AddressSpace"],
                  domain_id: int) -> int:
        """Rebuild type/count info from scratch for a domain's address
        spaces.  Returns the number of PT pages scanned."""
        self.reset()
        scanned = 0
        for aspace in aspaces:
            self.validate_pgd(cpu, aspace, domain_id)
            scanned += aspace.num_pt_pages()
        return scanned

    def reset(self) -> None:
        """Columnar wipe (the 'VMM lost track' state of native mode)."""
        n = len(self.type)
        self.type[:] = bytes(n)
        self.type_count[:] = array("i", bytes(4 * n))
        self.ref_count[:] = array("i", bytes(4 * n))
        self.pinned_map[:] = bytes(n)
        self.pinned_count = 0
        self.epoch += 1

    # ------------------------------------------------------------------
    # incremental attach (per-root trust) — see MmuAccounting
    # ------------------------------------------------------------------

    def repin_root(self, contrib: RootContribution) -> int:
        """Re-pin a root whose column contributions survived the detach
        untouched: the type/count columns already hold exactly what a full
        validation would rebuild (detach removes only the pin marks), so
        trusting the root costs a pin-mark write per PT page instead of a
        full-width entry scan.  Returns the number of PT pages re-pinned."""
        self.pin_frame(contrib.pgd_frame)
        for lf in contrib.leaf_frames:
            self.pin_frame(lf)
        return contrib.num_pt_pages()

    def subtract_root(self, contrib: RootContribution) -> None:
        """Remove a captured root contribution from the columns — the exact
        inverse of what validating that root added.  Used for roots that
        died or were dirtied in native mode, before their current structure
        (if any) is revalidated from scratch."""
        ptype, pcount, prefs = self.type, self.type_count, self.ref_count
        # data references first, while the PT frames still carry their
        # PT types (a mapping of a PT frame must not demote it)
        for frame, n in contrib.mapped.items():
            pcount[frame] -= n
            prefs[frame] -= n
            if pcount[frame] <= 0 and ptype[frame] == _WRITABLE:
                ptype[frame] = _NONE
        # then the PT-ness of the leaves and the PGD; residual counts mean
        # other roots map the frame as plain data, so it demotes to
        # WRITABLE rather than NONE — exactly what a full recompute without
        # this root would conclude
        for lf in contrib.leaf_frames:
            pcount[lf] -= 1
            prefs[lf] -= 1
            ptype[lf] = _WRITABLE if pcount[lf] > 0 else _NONE
        pgd = contrib.pgd_frame
        pcount[pgd] -= 1
        ptype[pgd] = _WRITABLE if pcount[pgd] > 0 else _NONE

    # ------------------------------------------------------------------
    # consistency checking (property tests compare ACTIVE vs RECOMPUTE and
    # incremental vs full)
    # ------------------------------------------------------------------

    def release_frame(self, frame: int) -> None:
        """A frame is leaving its domain for the host free pool (balloon
        inflate).  Only a plain, unreferenced page may go: a pinned frame,
        a page-table frame, or one the columns still see mapped would leave
        dangling references behind, so surrendering it is a guest error —
        the balloon driver must unmap first."""
        if self.pinned_map[frame]:
            raise PageValidationError(
                f"balloon surrender of pinned frame {frame}")
        t = self.type[frame]
        if t == _L1 or t == _L2:
            raise PageValidationError(
                f"balloon surrender of page-table frame {frame}")
        if self.type_count[frame] > 0 or self.ref_count[frame] > 0:
            raise PageValidationError(
                f"balloon surrender of frame {frame} still mapped "
                f"(uses={self.type_count[frame]}, refs={self.ref_count[frame]})")
        self.type[frame] = _NONE

    def semantically_equal(self, other: "PageInfoTable") -> bool:
        """Compare the *guest-visible* semantics: same frame types and same
        type counts.  (Internal ref counts may differ between strategies —
        pinning takes extra references the cheap tracker does not.)"""
        return (self.type == other.type
                and self.type_count == other.type_count)

    def is_pt_frame(self, frame: int) -> bool:
        t = self.type[frame]
        return t == _L1 or t == _L2

    # ------------------------------------------------------------------

    def _unaccount_leaf(self, cpu: "Cpu", leaf: "PageTablePage") -> None:
        ptype, pcount, prefs = self.type, self.type_count, self.ref_count
        for pte in leaf.entries.values():
            frame = pte >> PTE_FRAME_SHIFT
            if pte & PTE_P and pcount[frame] > 0:  # same clamp as
                pcount[frame] -= 1                 # mmu_update's clear
                prefs[frame] -= 1
                if pcount[frame] == 0 and ptype[frame] == _WRITABLE:
                    ptype[frame] = _NONE
        self._clear_type(leaf.frame)

    def _check_frame_for(self, frame: int, domain_id: int) -> None:
        owner = self.mem.owner_of(frame)
        if owner != domain_id:
            raise PageValidationError(
                f"frame {frame} owned by {owner}, not domain {domain_id}")

    def _set_type(self, frame: int, ptype: PageType) -> None:
        cur = PageType(self.type[frame])
        if cur not in (PageType.NONE, ptype):
            raise PageValidationError(
                f"frame {frame} re-typed {cur.name} -> {ptype.name} while in use")
        self.type[frame] = ptype
        self.type_count[frame] += 1

    def _clear_type(self, frame: int) -> None:
        self.type_count[frame] = 0
        self.ref_count[frame] = 0
        self.type[frame] = _NONE

    def _get_ref(self, frame: int) -> None:
        self.ref_count[frame] += 1

    def _put_ref(self, frame: int) -> None:
        self.ref_count[frame] -= 1
