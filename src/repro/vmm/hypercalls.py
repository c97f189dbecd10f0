"""The hypercall table — the services a para-virtualized guest calls
instead of executing privileged instructions (§3.2.1).

Names and shapes follow Xen 3.x: ``mmu_update`` batches page-table writes,
``mmuext_op`` carries pin/unpin/flush operations, ``update_va_mapping`` is
the single-PTE fast path, ``set_trap_table`` registers guest interrupt
handlers, ``event_channel_op``/``grant_table_op`` drive the inter-domain
plumbing, and ``sched_op`` yields/blocks the calling VCPU.

Each function receives ``(vmm, cpu, domain, *args)``; argument validation
errors raise :class:`~repro.errors.HypercallError` and page-table safety
violations raise :class:`~repro.errors.PageValidationError` — a guest can
*never* corrupt another domain through these paths, and tests prove it.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro import faults
from repro.errors import HypercallError, PageValidationError
from repro.hw.memory import LEAF_PASS_MIN
from repro.hw.paging import (PTE_FRAME_SHIFT, PTE_P, PTE_W, all_none,
                             region_items, word_array)
from repro.params import PAGE_SIZE, PT_ENTRIES
from repro.vmm.page_info import _L1, _L2, _NONE, _NO_WORDS, _WRITABLE

if TYPE_CHECKING:
    from repro.hw.cpu import Cpu
    from repro.hw.paging import AddressSpace
    from repro.vmm.domain import Domain
    from repro.vmm.hypervisor import Hypervisor


def _require_registered(domain: "Domain", aspace: "AddressSpace") -> None:
    if aspace not in domain.aspaces:
        raise HypercallError(
            f"domain {domain.domain_id} used an unregistered address space")


# ---------------------------------------------------------------------------
# memory management
# ---------------------------------------------------------------------------

def mmu_update(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
               updates: list, per_pte_cycles: Optional[int] = None) -> int:
    """Apply a batch of page-table updates.

    ``updates`` is a list of ``(aspace, vaddr, word_or_None)`` tuples: a
    PTE word installs/replaces a mapping, None clears one.  Every update is
    validated against the page-info table before being applied.  Charged
    at the *batched* per-PTE rate unless the caller overrides (the
    unbatched ``update_va_mapping`` path costs more per entry).

    These are the sequential rules every guest page-table write obeys: the
    lazy-MMU flush and ``update_va_mapping`` come here directly, and a
    region write (:func:`mmu_update_region`) does wherever its columnar
    pass declines.  The loop resolves each entry's leaf once, keeps the
    per-PTE page-info rules inline (an installed entry must map a frame of
    the calling domain and may not map a page-table frame writable; it
    takes one type count and one reference, and a cleared entry gives them
    back), and caches per-address-space state across runs of consecutive
    entries — registration and PGD pinned-ness cannot change mid-batch,
    nothing here reenters the hypercall layer."""
    if faults.fire(faults.MMU_UPDATE_TRANSIENT, cpu_id=cpu.cpu_id):
        # rejected before any entry is applied: the batch is all-or-nothing
        # from the guest's point of view, so a transient refusal is safe to
        # retry and corrupts nothing
        raise HypercallError("injected: transient mmu_update refusal")
    batched = per_pte_cycles is None
    rate = cpu.cost.cyc_mmu_update_batched if batched else per_pte_cycles
    page_info = vmm.page_info
    ptype, pcount, prefs = page_info.type, page_info.type_count, \
        page_info.ref_count
    pinned_map = page_info.pinned_map
    owner = page_info.mem.owner
    domain_id = domain.domain_id
    clk = cpu.clock
    drop = cpu.tlb.drop
    cur_aspace = None
    pgd_entries = None
    pgd_pinned = False
    applied = 0
    for aspace, vaddr, pte in updates:
        if aspace is not cur_aspace:
            _require_registered(domain, aspace)
            cur_aspace = aspace
            pgd_entries = aspace.pgd.entries
            pgd_pinned = pinned_map[aspace.pgd.frame] != 0
        clk.cycles += rate
        vpn = vaddr // PAGE_SIZE
        leaf = pgd_entries.get(vpn // PT_ENTRIES)
        idx = vpn % PT_ENTRIES
        if pte is None:
            old = leaf.entries.pop(idx, None) if leaf is not None else None
        else:
            present = pte & PTE_P
            if present:
                frame = pte >> PTE_FRAME_SHIFT
                if owner[frame] != domain_id:
                    page_info._check_frame_for(frame, domain_id)
                t = ptype[frame]
                if pte & PTE_W and (t == _L1 or t == _L2):
                    raise PageValidationError(
                        f"mmu_update installs writable mapping of PT frame "
                        f"{frame}")
            # make a missing leaf before counting, so running out of
            # memory for it leaves no count without a PTE
            if leaf is None:
                leaf = aspace.leaf_for(vaddr, create=True)
            if present:
                prefs[frame] += 1
                if t == _NONE:
                    ptype[frame] = _WRITABLE
                pcount[frame] += 1
            old = leaf.entries.get(idx)
            leaf.entries[idx] = pte
            # the write may have instantiated a new leaf PT page under a
            # pinned PGD (an L2-entry install): validate-and-adopt it (a
            # leaf is adopted only in the call that creates it, so it held
            # no old word)
            if pgd_pinned:
                t = ptype[leaf.frame]
                if t != _L1 and t != _L2:
                    page_info.adopt_new_leaf(cpu, leaf)
        # a cleared or replaced word gives back its counts; n <= 0 means
        # the entry's accounting was already dropped (unpin wipes the
        # counts its entries contributed): nothing to unaccount, and
        # decrementing would go negative
        if old is not None and old & PTE_P:
            frame = old >> PTE_FRAME_SHIFT
            n = pcount[frame]
            if n > 0:
                pcount[frame] = n - 1
                prefs[frame] -= 1
                if n == 1 and ptype[frame] == _WRITABLE:
                    ptype[frame] = _NONE
        drop(vpn, None)
        applied += 1
    if batched:
        vmm.mmu_batches += 1
        vmm.mmu_batched_updates += applied
    return applied


def mmu_update_chunks(cpu: "Cpu", n: int) -> Iterator[tuple[int, int]]:
    """Where the guest cuts ``n`` queued PTE writes into batched
    :func:`mmu_update` hypercalls: ``(start, end)`` of each call in order,
    ``mmu_batch_size`` entries a call, ``ceil(n / mmu_batch_size)`` calls.
    The lazy-MMU flush and both paths of :func:`mmu_update_region` take
    their hypercall boundaries from here."""
    batch = cpu.cost.mmu_batch_size
    for start in range(0, n, batch):
        yield start, min(start + batch, n)


def mmu_update_region(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                      aspace: "AddressSpace", leaves: list) -> None:
    """Apply a per-leaf region write to ``aspace``: ``leaves`` is
    ``[(pgd_idx, {idx: word_or_None})]`` in application order, each leaf
    listed once.

    The guest issues it as the batched :func:`mmu_update` hypercalls of
    :func:`mmu_update_chunks` over the region's ``n`` entries, and the
    outcome is exactly theirs: every charge (each hypercall's trap and its
    trace mark, the per-entry rate, the adoption of a new leaf inside the
    hypercall that carries the leaf's first install), every counter, the
    leaf dicts in order, the page-info columns and the TLB.  A region of
    at least :data:`~repro.hw.memory.LEAF_PASS_MIN` entries with no fault
    plan armed is applied a leaf at a time with columnar count bookkeeping
    (:func:`_apply_region_columnar`); a smaller region, or one
    that pass declines, goes through :func:`mmu_update` chunk by chunk —
    the sequential rules, which also raise on a bad entry after applying
    the entries before it."""
    n = sum(len(updates) for _, updates in leaves)
    if not n:
        return
    if (n >= LEAF_PASS_MIN and faults._ACTIVE is None
            and _apply_region_columnar(vmm, cpu, domain, aspace, leaves, n)):
        return
    updates = [(aspace, vaddr, pte) for vaddr, pte in region_items(leaves)]
    for start, end in mmu_update_chunks(cpu, n):
        vmm.hypercall(cpu, domain, "mmu_update", updates[start:end])


def _apply_region_columnar(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                           aspace: "AddressSpace", leaves: list,
                           n: int) -> bool:
    """:func:`mmu_update_region` a leaf at a time, with the page-info
    counts of all ``n`` entries in one
    :meth:`~repro.vmm.page_info.PageInfoTable.account_batch` over the
    words the region installs and the old words it clears, each leaf's
    read in one numpy pass.

    Returns False, having changed nothing, wherever the result could
    differ from the sequential rules: the VMM would refuse the call, a
    leaf is listed twice or mixes installs and clears, an install lands on
    an occupied slot, memory cannot hold the new leaves, a leaf to adopt
    would fail its retype, or ``account_batch`` declines (a frame touched
    twice, a bad install, a clear at the ``n > 0`` clamp).  A non-present
    word, installed or cleared, counts nothing, as in ``mmu_update``."""
    if not vmm.active or aspace not in domain.aspaces:
        return False
    if len({pgd_idx for pgd_idx, _ in leaves}) != len(leaves):
        return False
    page_info = vmm.page_info
    ptype = page_info.type
    pinned = page_info.pinned_map[aspace.pgd.frame] != 0
    pgd_entries = aspace.pgd.entries
    #: per leaf, the int64 words it installs and the old words it clears
    installs: list = []
    clears: list = []
    #: (position of the leaf's first entry, pgd_idx, leaf or None) for
    #: every leaf the region creates or, under a pinned PGD, adopts
    grown = []
    pos = 0
    for pgd_idx, updates in leaves:
        leaf = pgd_entries.get(pgd_idx)
        entries = leaf.entries if leaf is not None else {}
        m = len(updates)
        values = updates.values()
        words = word_array(values, m)
        if words is not None:      # installs only (a word may be 0)
            if entries and not entries.keys().isdisjoint(updates):
                return False
            installs.append(words)
            if m and (leaf is None
                      or (pinned and ptype[leaf.frame] != _L1
                          and ptype[leaf.frame] != _L2)):
                grown.append((pos, pgd_idx, leaf))
        elif all_none(values):     # clears only; an empty slot reads as
            clears.append(         # the word 0, which counts nothing
                np.fromiter(map(entries.get, updates, repeat(0)), np.int64,
                            m))
        else:                      # no producer mixes them in one leaf
            return False
        pos += m
    missing = sum(1 for _, _, leaf in grown if leaf is None)
    new_frames = aspace.mem.next_frames(missing)
    if len(new_frames) < missing:
        return False
    fresh = iter(new_frames)
    adopted = []
    plan = []
    for first, pgd_idx, leaf in grown:
        frame = leaf.frame if leaf is not None else next(fresh)
        t = ptype[frame]
        adopt = pinned and t != _L1 and t != _L2
        if adopt:
            if t != _NONE:
                return False
            adopted.append(frame)
        plan.append((first, pgd_idx, adopt))
    if not page_info.account_batch(
            np.concatenate(installs) if installs else _NO_WORDS,
            np.concatenate(clears) if clears else _NO_WORDS,
            domain.domain_id, adopted):
        return False
    # from here on nothing can fail: replay the hypercalls' charges and
    # marks chunk by chunk, then write the leaves
    rate = cpu.cost.cyc_mmu_update_batched
    clk = cpu.clock
    k = 0
    for start, end in mmu_update_chunks(cpu, n):
        vmm.admit(cpu, "mmu_update")
        clk.cycles += rate * (end - start)
        vmm.mmu_batches += 1
        while k < len(plan) and plan[k][0] < end:
            _, pgd_idx, adopt = plan[k]
            leaf = pgd_entries.get(pgd_idx)
            if leaf is None:
                leaf = aspace.new_leaf(pgd_idx)
            if adopt:
                page_info.adopt_new_leaf(cpu, leaf)
            k += 1
    invalidate = cpu.tlb.invalidate_leaf
    for pgd_idx, updates in leaves:
        aspace.write_leaf(pgd_idx, updates)
        invalidate(pgd_idx * PT_ENTRIES, updates)
    vmm.mmu_batched_updates += n
    return True


def update_va_mapping(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                      aspace: "AddressSpace", vaddr: int,
                      pte: Optional[int]) -> None:
    """Single-PTE fast path (Xen's most common hypercall)."""
    mmu_update(vmm, cpu, domain, [(aspace, vaddr, pte)],
               per_pte_cycles=cpu.cost.cyc_mmu_update_per_pte)


def mmuext_op(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
              op: str, aspace: Optional["AddressSpace"] = None,
              vaddr: int = 0) -> None:
    """Extended MMU operations: pin/unpin page tables, TLB management."""
    if op == "pin_table":
        _require_registered(domain, aspace)
        vmm.page_info.validate_pgd(cpu, aspace, domain.domain_id)
    elif op == "unpin_table":
        _require_registered(domain, aspace)
        vmm.page_info.unpin_aspace(cpu, aspace)
    elif op == "new_baseptr":
        _require_registered(domain, aspace)
        vmm._emulate_cr3_load(cpu, aspace.pgd_frame)
    elif op == "tlb_flush_local":
        cpu.charge(cpu.cost.cyc_tlb_flush)
        cpu.tlb.flush()
    elif op == "invlpg_local":
        cpu.tlb.invalidate(vaddr // PAGE_SIZE)
    else:
        raise HypercallError(f"unknown mmuext op {op!r}")


# ---------------------------------------------------------------------------
# CPU state
# ---------------------------------------------------------------------------

def set_trap_table(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                   table: dict) -> None:
    """Register the guest's interrupt/exception handlers with the VMM."""
    domain.trap_table = dict(table)
    if vmm.active and domain.is_driver_domain:
        vmm.install_idt_for(domain)


def stack_switch(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                 kernel_sp: int = 0) -> None:
    """Tell the VMM the guest kernel stack for the next entry (charged on
    every guest context switch — a visible chunk of the Xen ctx overhead)."""
    # state is per-vcpu; the cost is the point here
    vcpu = vmm._vcpu_of(cpu)
    if vcpu is not None:
        vcpu.kernel_sp = kernel_sp  # type: ignore[attr-defined]


def set_gdt(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
            dpl: int) -> None:
    """Install guest segment descriptors (the VMM forces kernel segments to
    the de-privileged level — §5.1.2 item 2)."""
    if dpl < 1:
        raise HypercallError("guest may not install PL0 segments")
    for desc in cpu.gdt.values():
        desc.dpl = dpl


def vm_assist(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
              feature: str, enable: bool) -> None:
    """Toggle guest assists (writable page tables, 4 GB segments, ...)."""
    assists = getattr(domain, "assists", None)
    if assists is None:
        assists = domain.assists = set()  # type: ignore[attr-defined]
    if enable:
        assists.add(feature)
    else:
        assists.discard(feature)


# ---------------------------------------------------------------------------
# events / grants / scheduling
# ---------------------------------------------------------------------------

def event_channel_op(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                     op: str, *args):
    ev = vmm.events
    if op == "alloc":
        return ev.alloc(domain.domain_id, *args)
    if op == "send":
        (channel,) = args
        if channel.owner_domain != domain.domain_id:
            raise HypercallError("sending on a foreign channel")
        ev.send(cpu, channel)
        return None
    if op == "unmask":
        (channel,) = args
        ev.unmask(cpu, channel)
        return None
    raise HypercallError(f"unknown event op {op!r}")


def grant_table_op(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
                   op: str, *args):
    gt = vmm.grants
    if op == "grant":
        frame, peer, readonly = args
        return gt.grant(domain.domain_id, frame, peer, readonly)
    if op == "map":
        granting_domain, ref = args
        return gt.map(cpu, domain.domain_id, granting_domain, ref)
    if op == "unmap":
        granting_domain, ref = args
        gt.unmap(cpu, granting_domain, ref)
        return None
    raise HypercallError(f"unknown grant op {op!r}")


def sched_op(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain", op: str):
    sched = vmm.scheduler
    vcpu = vmm._vcpu_of(cpu)
    if op == "yield":
        return sched.pick_next()
    if op == "block":
        if vcpu is not None:
            sched.block(vcpu)
        return sched.pick_next()
    raise HypercallError(f"unknown sched op {op!r}")


def console_io(vmm: "Hypervisor", cpu: "Cpu", domain: "Domain",
               message: str) -> None:
    log = getattr(vmm, "console_log", None)
    if log is None:
        log = vmm.console_log = []  # type: ignore[attr-defined]
    log.append((domain.domain_id, message))


#: the dispatch table used by :meth:`Hypervisor.hypercall`
HYPERCALL_TABLE: dict[str, Callable] = {
    "mmu_update": mmu_update,
    "update_va_mapping": update_va_mapping,
    "mmuext_op": mmuext_op,
    "set_trap_table": set_trap_table,
    "stack_switch": stack_switch,
    "set_gdt": set_gdt,
    "vm_assist": vm_assist,
    "event_channel_op": event_channel_op,
    "grant_table_op": grant_table_op,
    "sched_op": sched_op,
    "console_io": console_io,
}
