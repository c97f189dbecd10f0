"""Property: a per-leaf region write equals today's per-entry rules.

``apply_pte_region`` takes ``[(pgd_idx, {idx: word_or_None})]`` and each VO
applies it a leaf at a time — on a pinned virtual root the VMM does the
page-info bookkeeping as columnar passes above a size threshold.  Two
identically built stacks take the same random region: one through the VO,
the other through :func:`_per_entry`, the sequential rules of the
``(vaddr, pte)`` form it replaced, kept here as the reference (on a pinned
root: ``mmu_update`` hypercalls of ``mmu_batch_size`` triples).  Leaf
dicts (key order included), page-info columns and pinned map, frame
owners and recycle stack, TLB contents in order, the clock, the hypercall
counters, the trace marks of the hypercalls (with their clock values) and
the exception raised must all be equal.

Regions mix installs into empty slots and clears, over 1-3 leaves (some
missing), on both sides of the 32-entry hypercall boundary and of the
columnar threshold, and optionally carry what the columnar pass must
decline: a bad entry, an install over an occupied slot, an install and a
clear of one frame, clears of entries the VMM never counted (the ``n > 0``
clamp), or an armed ``MMU_UPDATE_TRANSIENT`` plan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, faults, small_config, trace
from repro.core.accounting import AccountingStrategy
from repro.core.mercury import PagingMode
from repro.core.shadow_vo import ShadowVirtualVO
from repro.errors import HypercallError, OutOfMemory, PageValidationError
from repro.hw.memory import LEAF_PASS_MIN
from repro.hw.paging import AddressSpace, pte, pte_fields
from repro.params import PAGE_SIZE, PT_ENTRIES
from repro.vmm.page_info import PageType

#: leaf slots of the mmap area the regions write (pgd index of 1 GiB up)
PGDS = (256, 257, 258)
#: pre-populated entries per existing leaf sit at indices [0, PREPOP)
PREPOP = 40
#: at most this many uncounted entries follow them
UNCOUNTED = 4
#: where an otherwise empty leaf holds its one uncounted entry
BARE_IDX = 1000
#: the pool frames pre-populated entries map come first, then the ones
#: region installs map
FIRST_INSTALL = (PREPOP + UNCOUNTED) * len(PGDS)
#: frames the regions install, allocated before anything else
POOL = FIRST_INSTALL + 3 * 110 + 1
#: the VMM's domain id is 0 on every stack; frames of this owner are
#: foreign to it
FOREIGN_OWNER = 31

KINDS = ("native", "native-active", "virtual", "shadow")


def _stack(kind: str):
    strategy = (AccountingStrategy.ACTIVE if kind == "native-active"
                else AccountingStrategy.RECOMPUTE)
    paging = PagingMode.SHADOW if kind == "shadow" else PagingMode.DIRECT
    mercury = Mercury(Machine(small_config()), strategy=strategy,
                      paging=paging)
    kernel = mercury.create_kernel(image_pages=8)
    if kind in ("virtual", "shadow"):
        mercury.attach()
    pool = mercury.machine.memory.alloc_many(kernel.owner_id, POOL)
    return mercury, kernel, pool


def _per_entry(mercury, kernel, cpu, aspace, leaves) -> None:
    """The sequential rules: the region as ``(vaddr, pte)`` entries, applied
    one at a time the way each VO did before regions were per leaf."""
    vo = kernel.vo
    cost = cpu.cost
    updates = [((pgd_idx * PT_ENTRIES + idx) * PAGE_SIZE, pte)
               for pgd_idx, leaf in leaves for idx, pte in leaf.items()]
    cpu.clock.cycles += cost.cyc_vo_indirect
    if isinstance(vo, ShadowVirtualVO):
        for vaddr, pte in updates:
            cpu.charge(cost.cyc_pte_write)
            if pte is None:
                aspace.clear_pte(vaddr)
            else:
                aspace.set_pte(vaddr, pte)
            if id(aspace) in vo.pager.shadows:
                vo.pager.sync_pte(cpu, aspace, vaddr)
        return
    if vo.is_virtual and vo._pinned(aspace):
        batch = cost.mmu_batch_size
        for i in range(0, len(updates), batch):
            mercury.vmm.hypercall(cpu, vo.domain, "mmu_update",
                                  [(aspace, v, p)
                                   for v, p in updates[i:i + batch]])
        return
    vo._dirty_roots.add(aspace.pgd.frame)
    cpu.charge(cost.cyc_pte_write * len(updates))
    accountant = getattr(vo, "accountant", None)
    for vaddr, pte in updates:
        old = aspace.get_pte(vaddr)
        if pte is None:
            removed = aspace.clear_pte(vaddr)
            if not vo.is_virtual:
                cpu.tlb.invalidate(vaddr // PAGE_SIZE)
            if accountant is not None and removed is not None:
                accountant.on_clear_pte(cpu, aspace, vaddr, removed)
        else:
            aspace.set_pte(vaddr, pte)
            if accountant is not None:
                accountant.on_set_pte(cpu, aspace, vaddr, pte, old)


def _pte(spec, pool, aspace):
    """A PTE word from a plain spec."""
    if spec is None:
        return None
    what, n, writable, present = spec
    frame = {"pool": lambda: pool[n], "pgd": lambda: aspace.pgd.frame,
             "foreign": lambda: n}[what]()
    return pte(frame, present=present, writable=writable)


def _state(mercury, kernel, cpu, aspace) -> dict:
    mem = mercury.machine.memory
    state = {
        "leaves": [(pgd_idx, leaf.frame,
                    [(idx, *pte_fields(word))
                     for idx, word in leaf.entries.items()])
                   for pgd_idx, leaf in aspace.pgd.entries.items()],
        "owner": mem.owner.tobytes(),
        "recycled": list(mem._recycled),
        "tlb": list(cpu.tlb._entries.items()),
        "clock": cpu.clock.cycles,
        "dirty": sorted(mercury.mmu_log.dirty),
    }
    pi = mercury.vmm.page_info
    state["page_info"] = (bytes(pi.type), pi.type_count.tobytes(),
                          pi.ref_count.tobytes(), bytes(pi.pinned_map),
                          pi.pinned_count, pi.validations)
    vmm = mercury.vmm
    state["vmm"] = (dict(vmm.hypercall_counts), vmm.hypercalls_served,
                    vmm.mmu_batches, vmm.mmu_batched_updates)
    pager = mercury.pager
    if pager is not None and id(aspace) in pager.shadows:
        shadow = pager.shadows[id(aspace)]
        state["shadow"] = [(pgd_idx, sorted(leaf.entries))
                           for pgd_idx, leaf in shadow.pgd.entries.items()]
    return state


@st.composite
def scenarios(draw, vmm_region: bool = False):
    """A stack, a pre-populated root and a region to write to it; with
    ``vmm_region`` always a virtual stack's pinned root."""
    if vmm_region:
        kind, pinned = "virtual", True
    else:
        kind = draw(st.sampled_from(KINDS))
        pinned = draw(st.booleans())
    extra = draw(st.sampled_from(
        (None, "uncounted", None, "same-frame", None, "overwrite", None,
         "stale-leaf", None, "foreign", "pt-writable", "transient")))
    # at least one leaf slot is pre-populated and at least one is missing
    existing = draw(st.lists(st.sampled_from(PGDS), unique=True,
                             min_size=1, max_size=len(PGDS) - 1))
    missing = [pgd for pgd in PGDS if pgd not in existing]
    prepop = {pgd: draw(st.integers(1, PREPOP)) for pgd in existing}
    region_pgds = draw(st.lists(st.sampled_from(PGDS), unique=True,
                                min_size=1, max_size=len(PGDS)))
    # producers send all-install or all-clear leaves (a mixed one is legal
    # and takes the per-entry rules); each extra gets the leaves it needs
    forced = {}
    if extra in ("uncounted", "same-frame"):
        forced[existing[0]] = "clears"
    if extra == "overwrite":
        forced[existing[0]] = "installs"
    if extra in ("stale-leaf", "same-frame"):
        forced[missing[0]] = "installs"
    region_pgds += [pgd for pgd in forced if pgd not in region_pgds]
    if not set(region_pgds) & set(existing):
        region_pgds.append(existing[0])
    # "uncounted": entries installed behind the VMM's back, counted by
    # nobody — a clear of one meets the n > 0 clamp, and a leaf holding
    # only such entries is one the VMM never adopted
    uncounted = ({pgd: draw(st.integers(1, UNCOUNTED)) for pgd in existing}
                 if extra == "uncounted" else {})
    bare = ([pgd for pgd in region_pgds if pgd not in prepop]
            if extra == "uncounted" else [])
    lo, hi = draw(st.sampled_from(((50, 110), (20, 40))
                                  + (() if vmm_region else ((0, 12),))))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    clear_rate = rnd.random()
    next_frame = FIRST_INSTALL
    leaves = {}
    for pgd in region_pgds:
        leaf_kind = forced.get(pgd) or rnd.choice(
            ("installs",) * 4 + ("clears",) * 3 + ("mixed",))
        occupied = prepop.get(pgd, 0) + uncounted.get(pgd, 0)
        entries = []
        if leaf_kind != "installs":
            entries += [(idx, None) for idx in range(occupied + 3)
                        if rnd.random() < clear_rate]
            if uncounted.get(pgd):
                entries.append((prepop[pgd], None))
            if extra == "same-frame":
                entries.append((0, None))
        if leaf_kind != "clears":
            for idx in range(occupied + 3,
                             occupied + 3 + rnd.randint(lo, hi)):
                writable = rnd.random() < 0.5 if rnd.random() < 0.1 else True
                present = rnd.random() >= 0.05
                entries.append((idx, ("pool", next_frame, writable,
                                      present)))
                next_frame += 1
        leaves[pgd] = dict(entries)
    installs = [(pgd, idx) for pgd, entries in leaves.items()
                for idx, spec in entries.items() if spec is not None]
    if installs and extra in ("foreign", "pt-writable"):
        pgd, idx = installs[draw(st.integers(0, len(installs) - 1))]
        leaves[pgd][idx] = ("foreign" if extra == "foreign" else "pgd",
                            0, True, True)
    elif extra == "overwrite" and leaves[existing[0]]:
        # one install lands on pre-populated slot 0
        idx = next(iter(leaves[existing[0]]))
        leaves[existing[0]][0] = leaves[existing[0]].pop(idx)
    elif extra == "same-frame" and leaves[missing[0]]:
        # install the frame slot 0 of the cleared leaf maps
        idx = next(iter(leaves[missing[0]]))
        leaves[missing[0]][idx] = ("pool", PGDS.index(existing[0]) * PREPOP,
                                   True, True)
    shuffled = []
    for pgd, entries in leaves.items():
        items = list(entries.items())
        rnd.shuffle(items)
        shuffled.append((pgd, items))
    transient = draw(st.integers(1, 4)) if extra == "transient" else None
    tlb = draw(st.lists(st.tuples(st.sampled_from(PGDS + (100,)),
                                  st.integers(0, 160)), max_size=70))
    return dict(kind=kind, pinned=pinned, prepop=prepop, uncounted=uncounted,
                bare=bare, stale_leaf=extra == "stale-leaf", leaves=shuffled,
                transient=transient, tlb=tlb)


def _run(sc, through_vo: bool):
    mercury, kernel, pool = _stack(sc["kind"])
    cpu = mercury.machine.boot_cpu
    mem = mercury.machine.memory
    if sc["pinned"]:
        aspace = kernel.scheduler.current.aspace
    else:
        aspace = AddressSpace(mem, kernel.owner_id)
        if kernel.vo.is_virtual:
            kernel.vo.domain.register_aspace(aspace)
    foreign = mem.alloc(FOREIGN_OWNER)
    # pre-populate through the reference, so the VMM counts these entries
    setup = []
    for pgd, n in sc["prepop"].items():
        first = PGDS.index(pgd) * PREPOP
        setup.append((pgd, {i: pte(pool[first + i]) for i in range(n)}))
    _per_entry(mercury, kernel, cpu, aspace, setup)
    for pgd, n in sc["uncounted"].items():
        first = PREPOP * len(PGDS) + PGDS.index(pgd) * UNCOUNTED
        for i in range(n):
            aspace.set_pte(
                (pgd * PT_ENTRIES + sc["prepop"][pgd] + i) * PAGE_SIZE,
                pte(pool[first + i]))
    for pgd in sc["bare"]:
        aspace.set_pte((pgd * PT_ENTRIES + BARE_IDX) * PAGE_SIZE,
                       pte(pool[POOL - 1]))
    if sc["stale_leaf"]:
        # the frame the next new leaf gets still reads as mapped data
        mercury.vmm.page_info.type[mem.next_frames(1)[0]] = PageType.WRITABLE
    for pgd, idx in sc["tlb"]:
        cpu.tlb.fill(pgd * PT_ENTRIES + idx, idx, True)
    leaves = []
    for pgd, entries in sc["leaves"]:
        leaf = {}
        for idx, spec in entries:
            if spec is not None and spec[0] == "foreign":
                spec = ("foreign", foreign, True, True)
            leaf[idx] = _pte(spec, pool, aspace)
        leaves.append((pgd, leaf))
    plan = None
    if sc["transient"] is not None:
        plan = faults.FaultPlan()
        plan.arm(faults.MMU_UPDATE_TRANSIENT, trigger_at=sc["transient"])
        faults.install_plan(plan)
    error = None
    tracer = trace.Tracer(mercury.machine.clock)
    try:
        with trace.tracing(tracer):
            if through_vo:
                kernel.vo.apply_pte_region(cpu, aspace, leaves)
            else:
                _per_entry(mercury, kernel, cpu, aspace, leaves)
    except (HypercallError, PageValidationError) as exc:
        error = (type(exc).__name__, str(exc))
    finally:
        if plan is not None:
            faults.clear_plan()
    state = _state(mercury, kernel, cpu, aspace)
    state["error"] = error
    state["trace"] = [(e.kind, e.name, e.ts, e.args)
                      for e in tracer.events()]
    return state


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_region_equals_per_entry_rules(sc):
    assert _run(sc, through_vo=True) == _run(sc, through_vo=False)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(vmm_region=True))
def test_vmm_region_equals_per_entry_rules(sc):
    """The same property on a pinned virtual root only, where regions go
    to the VMM and the larger ones take the columnar pass."""
    assert _run(sc, through_vo=True) == _run(sc, through_vo=False)


def test_threshold_splits_columnar_and_per_entry_paths():
    """A plain pinned region of LEAF_PASS_MIN entries takes the columnar
    pass (no mmu_update handler runs), one entry fewer the sequential
    rules; both equal the reference."""
    from repro.vmm import hypercalls

    calls = []
    real = hypercalls.mmu_update
    hypercalls.HYPERCALL_TABLE["mmu_update"] = (
        lambda *a, **k: calls.append(1) or real(*a, **k))
    try:
        for n, per_entry in ((LEAF_PASS_MIN, False),
                             (LEAF_PASS_MIN - 1, True)):
            calls.clear()
            sc = dict(kind="virtual", pinned=True, prepop={}, uncounted={},
                      bare=[], stale_leaf=False, leaves=[(257, [(i, ("pool", i, True, True))
                                     for i in range(n)])],
                      transient=None, tlb=[])
            assert _run(sc, through_vo=True) == _run(sc, through_vo=False)
            calls.clear()
            _run(sc, through_vo=True)
            assert bool(calls) == per_entry
    finally:
        hypercalls.HYPERCALL_TABLE["mmu_update"] = real


def test_native_leaf_that_cannot_be_made_drops_only_earlier_clears():
    """Memory runs out creating a missing leaf at its first install: as
    with one write per entry, the clears before that install have left
    the TLB and the ones after it have not."""
    states = []
    for through_vo in (True, False):
        mercury, kernel, pool = _stack("native")
        cpu = mercury.machine.boot_cpu
        mem = mercury.machine.memory
        mem.alloc_many(0, mem.free_frames)
        aspace = kernel.scheduler.current.aspace
        pgd = PGDS[0]
        for idx in (1, 2, 3):
            cpu.tlb.fill(pgd * PT_ENTRIES + idx, idx, True)
        leaves = [(pgd, {1: None, 2: pte(pool[0]), 3: None})]
        try:
            if through_vo:
                kernel.vo.apply_pte_region(cpu, aspace, leaves)
            else:
                _per_entry(mercury, kernel, cpu, aspace, leaves)
        except OutOfMemory as exc:
            states.append((str(exc), _state(mercury, kernel, cpu, aspace)))
    assert len(states) == 2 and states[0] == states[1]
    assert [vpn % PT_ENTRIES for vpn, _ in states[0][1]["tlb"]] == [2, 3]


def _installs(start, n, frame=FIRST_INSTALL):
    return [(start + i, ("pool", frame + i, True, True)) for i in range(n)]


@pytest.mark.parametrize("case", ["plain", "overwrite", "clamp", "same-frame",
                                  "stale-leaf", "unadopted-leaf"])
def test_vmm_region_cases_equal_per_entry_rules(case):
    """One large pinned region per case the columnar pass must get right
    (plain; a leaf the VMM never adopted) or hand to the per-entry rules
    (an install over an occupied slot, a clear at the n > 0 clamp, an
    install and a clear of one frame, a new leaf whose frame reads as
    mapped data), each compared with the reference."""
    pgd, other = PGDS[0], PGDS[1]
    # 40 clears first, so the new leaf is adopted in the second hypercall
    clears, installs = [(i, None) for i in range(40)], _installs(0, 80)
    sc = dict(kind="virtual", pinned=True, prepop={pgd: 8}, uncounted={},
              bare=[], stale_leaf=False, transient=None,
              tlb=[(p, i) for p in (pgd, other) for i in range(0, 90, 3)])
    if case == "overwrite":
        clears = [(0, ("pool", POOL - 1, True, True))] + _installs(20, 40, 400)
    elif case == "clamp":
        sc["uncounted"] = {pgd: 2}
        clears = [(8, None), (9, None), (2, None)]
    elif case == "same-frame":
        installs[7] = (7, ("pool", 0, True, True))   # slot 0's frame
        clears = [(0, None)]
    elif case == "stale-leaf":
        sc["stale_leaf"] = True
    elif case == "unadopted-leaf":
        sc["bare"] = [other]
    sc["leaves"] = [(pgd, clears), (other, installs)]
    assert _run(sc, through_vo=True) == _run(sc, through_vo=False)
