"""Property: one leaf-shaped ``update_pte_flags`` call equals one call per
entry, and fork's run-ahead is invisible in simulated time.

``update_pte_flags(cpu, aspace, pgd_idx, idxs, ...)`` applies a leaf's
entries in one sensitive call with exactly the per-entry effects.  Two
identically built stacks take the same random leaf: one in one call, the
other in one call per index.  Leaf dicts (every PTE field, key order
included), TLB contents in order, the clock, the VO's entry count and
refcount, the lazy queue and its ``pending`` map, the dirty roots, the
page-info columns, the hypercall counters, the hypercall trace marks (with
their clock values) and the exception raised must all be equal — and, for
a lazy region, equal again after the region's flush.

Every VO kind is covered: the bare N-L baseline, native, native with an
ACTIVE accountant, virtual on a pinned root inside a lazy region (after
queued writes to some of the same slots), on a pinned root outside one, on
an unpinned root (inside a region or not), and shadow with and without a
shadow table.  An entry may map the root's own page-table frame read-only,
so making it writable is refused by the VMM's validation, and an armed
``MMU_UPDATE_TRANSIENT`` plan may refuse an ``mmu_update`` part-way.

The scheduler cases fork a 320-page writable image under
:class:`~repro.sim.SimScheduler` with a timer due inside the leaf's
sweep and just past it: inside, the sweep must take the per-entry path
and the timer must fire at the same clock, seq ticket and VO refcount as
with the run-ahead switched off; past it, the leaf must go in one call,
and the state digest and the canonical trace must not move either way.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, faults, small_config, trace
from repro.bench.configs import BareMetalVO
from repro.core.accounting import AccountingStrategy
from repro.core.mercury import PagingMode
from repro.errors import HypercallError, PageValidationError
from repro.guestos.kernel import Kernel
from repro.hw.machine import isolated_machine_ids
from repro.hw.paging import AddressSpace, pte, pte_fields
from repro.params import PAGE_SIZE, PT_ENTRIES
from repro.scenarios.checkpoint import state_digest
from repro.sim import SimScheduler

#: the leaf the scenarios write: 1 GiB up, clear of the boot image
PGD = 256
#: leaf slots a scenario uses; TLB fills reach a few slots past them
SLOTS = 12

KINDS = ("bare", "native", "native-active", "virtual-region",
         "virtual-pinned", "virtual-unpinned", "shadow", "shadow-none")
FLAGS = st.sampled_from([None, True, False])


def _stack(kind: str):
    strategy = (AccountingStrategy.ACTIVE if kind == "native-active"
                else AccountingStrategy.RECOMPUTE)
    paging = (PagingMode.SHADOW if kind.startswith("shadow")
              else PagingMode.DIRECT)
    mercury = Mercury(Machine(small_config()), strategy=strategy,
                      paging=paging)
    kernel = mercury.create_kernel(image_pages=8)
    if kind == "bare":
        kernel.vo = BareMetalVO(mercury.machine, mmu_log=mercury.mmu_log)
    if kind.startswith(("virtual", "shadow")):
        mercury.attach()
    if kind in ("virtual-unpinned", "shadow-none"):
        aspace = AddressSpace(mercury.machine.memory, kernel.owner_id)
        kernel.vo.domain.register_aspace(aspace)
    else:
        aspace = kernel.scheduler.current.aspace
    pool = mercury.machine.memory.alloc_many(kernel.owner_id, 2 * SLOTS)
    return mercury, kernel, aspace, pool


def _fields(word):
    if word is None:
        return None
    return pte_fields(word)


def _state(mercury, kernel, cpu, aspace) -> dict:
    vo = kernel.vo
    leaf = aspace.pgd.entries.get(PGD)
    pi = mercury.vmm.page_info

    def label(a):
        return "root" if a is aspace else "other"

    state = {
        "leaf": None if leaf is None else
        [(idx, _fields(pte)) for idx, pte in leaf.entries.items()],
        "tlb": list(cpu.tlb._entries.items()),
        "clock": cpu.clock.cycles,
        "vo": (vo.entries, vo.refcount),
        "dirty": sorted(vo.mmu_log.dirty),
        "page_info": (bytes(pi.type), pi.type_count.tobytes(),
                      pi.ref_count.tobytes(), bytes(pi.pinned_map)),
        "hypercalls": dict(mercury.vmm.hypercall_counts),
        "lazy": {
            cpu_id: (lz.depth,
                     [(label(a), v, _fields(p)) for a, v, p in lz.queue],
                     [("root" if key[0] == id(aspace) else "other",
                       key[1], _fields(p)) for key, p in lz.pending.items()])
            for cpu_id, lz in getattr(vo, "_lazy", {}).items()},
    }
    pager = mercury.pager
    if pager is not None and id(aspace) in pager.shadows:
        shadow_leaf = pager.shadows[id(aspace)].pgd.entries.get(PGD)
        state["shadow"] = None if shadow_leaf is None else [
            (idx, _fields(pte)) for idx, pte in shadow_leaf.entries.items()]
    return state


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(KINDS))
    region = (kind == "virtual-region"
              or kind == "virtual-unpinned" and draw(st.booleans()))
    return {
        "kind": kind,
        "region": region,
        # slot -> (present, writable, cow), in install order
        "init": draw(st.dictionaries(
            st.integers(0, SLOTS - 1),
            st.tuples(st.booleans(), st.booleans(), st.booleans()),
            max_size=SLOTS)),
        # a slot mapping the root's own PGD frame read-only
        "pt_slot": draw(st.none() | st.integers(0, SLOTS - 1)),
        # writes queued in the region before the leaf call
        "queued": draw(st.lists(
            st.tuples(st.sampled_from(["set", "clear", "flags"]),
                      st.integers(0, SLOTS - 1), st.booleans()),
            max_size=6)) if region else [],
        "tlb": draw(st.lists(st.integers(0, SLOTS + 3), max_size=10)),
        "idxs": draw(st.lists(st.integers(0, SLOTS - 1), min_size=1,
                              max_size=SLOTS + 2)),
        "writable": draw(FLAGS),
        "cow": draw(FLAGS),
        "transient": draw(st.none() | st.integers(1, 4)),
    }


def _run(sc, one_call: bool) -> list:
    mercury, kernel, aspace, pool = _stack(sc["kind"])
    vo = kernel.vo
    cpu = mercury.machine.boot_cpu
    base_vpn = PGD * PT_ENTRIES
    init = {idx: pte(pool[idx], present=present, writable=writable, cow=cow)
            for idx, (present, writable, cow) in sc["init"].items()}
    if sc["pt_slot"] is not None:
        init[sc["pt_slot"]] = pte(aspace.pgd.frame, writable=False)
    if init:
        vo.apply_pte_region(cpu, aspace, [(PGD, init)])
    for off in sc["tlb"]:
        cpu.tlb.fill(base_vpn + off, off, True)
    if sc["region"]:
        vo.lazy_mmu_begin(cpu)
    for op, idx, flag in sc["queued"]:
        vaddr = (base_vpn + idx) * PAGE_SIZE
        if op == "set":
            vo.set_pte(cpu, aspace, vaddr,
                       pte(pool[SLOTS + idx], writable=flag))
        elif op == "clear":
            vo.clear_pte(cpu, aspace, vaddr)
        else:
            vo.update_pte_flags(cpu, aspace, PGD, [idx], writable=flag,
                                cow=not flag)
    kwargs = {"writable": sc["writable"], "cow": sc["cow"]}
    plan = faults.FaultPlan()
    if sc["transient"] is not None:
        plan.arm(faults.MMU_UPDATE_TRANSIENT, trigger_at=sc["transient"])
    states = []
    tracer = trace.Tracer(mercury.machine.clock)
    with faults.injected(plan), trace.tracing(tracer):
        error = None
        try:
            if one_call:
                vo.update_pte_flags(cpu, aspace, PGD, sc["idxs"], **kwargs)
            else:
                for idx in sc["idxs"]:
                    vo.update_pte_flags(cpu, aspace, PGD, [idx], **kwargs)
        except (HypercallError, PageValidationError) as exc:
            error = (type(exc).__name__, str(exc))
        states.append(_state(mercury, kernel, cpu, aspace) | {"error": error})
        if sc["region"]:
            error = None
            try:
                vo.lazy_mmu_end(cpu)
            except (HypercallError, PageValidationError) as exc:
                error = (type(exc).__name__, str(exc))
            states.append(_state(mercury, kernel, cpu, aspace)
                          | {"error": error})
    states.append([(e.kind, e.name, e.ts, e.args) for e in tracer.events()])
    return states


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_leaf_call_equals_per_entry_calls(sc):
    assert _run(sc, one_call=True) == _run(sc, one_call=False)


def test_leaf_call_reaches_the_refusing_entry():
    """A pinned root outside a region: the entry mapping a page-table
    frame is refused at its own hypercall in both forms, after the entries
    before it were applied and with its own indirection charged."""
    sc = {"kind": "virtual-pinned", "region": False,
          "init": {i: (True, True, False) for i in range(4)}, "pt_slot": 2,
          "queued": [], "tlb": [0, 1, 2, 3], "idxs": [0, 1, 2, 3],
          "writable": True, "cow": None, "transient": None}
    batched = _run(sc, one_call=True)
    assert batched == _run(sc, one_call=False)
    assert batched[0]["error"][0] == "PageValidationError"
    assert batched[0]["hypercalls"]["update_va_mapping"] == 3


@pytest.mark.parametrize("kind", KINDS)
def test_leaf_call_applies_the_flags_and_drops_the_translations(kind):
    """An oracle apart from the per-entry form, which shares the VO loop:
    after one leaf call (and its region's flush) every entry carries the
    new flags and no stale translation of it is left in the TLB.  The
    shadow VO drops a translation in the shadow sync, so a root with no
    shadow table — one the hardware never walks — keeps its TLB lines."""
    mercury, kernel, aspace, pool = _stack(kind)
    vo = kernel.vo
    cpu = mercury.machine.boot_cpu
    base_vpn = PGD * PT_ENTRIES
    vo.apply_pte_region(cpu, aspace, [(PGD, {
        idx: pte(pool[idx]) for idx in range(SLOTS)})])
    for idx in range(SLOTS + 2):
        cpu.tlb.fill(base_vpn + idx, idx, True)
    if kind == "virtual-region":
        vo.lazy_mmu_begin(cpu)
    vo.update_pte_flags(cpu, aspace, PGD, range(SLOTS), writable=False,
                        cow=True)
    if kind == "virtual-region":
        vo.lazy_mmu_end(cpu)
    entries = aspace.pgd.entries[PGD].entries
    fields = [pte_fields(entries[idx]) for idx in range(SLOTS)]
    assert [(f.writable, f.cow) for f in fields] == [(False, True)] * SLOTS
    kept = list(range(SLOTS)) if kind == "shadow-none" else []
    assert [vpn - base_vpn for vpn in cpu.tlb._entries
            if base_vpn <= vpn < base_vpn + SLOTS + 2] == kept + [SLOTS,
                                                                  SLOTS + 1]


# ---------------------------------------------------------------------------
# the run-ahead under the simulation scheduler
# ---------------------------------------------------------------------------

#: writable pages the sweep re-protects: the image's one leaf of 320
#: entries at 4 MiB
PAGES = 320


def _sweep_run(monkeypatch, ncpus: int, deadline, run_ahead: bool) -> dict:
    """Fork an attached stack's 320-page init under the scheduler, with a
    timer at
    ``deadline(c0, leaf_cycles)``: ``c0`` is the clock when the leaf's
    run-ahead rule is asked and ``leaf_cycles`` the span it tests.
    Returns what the timer saw, the digest, the canonical trace and the
    sizes of the leaf's ``update_pte_flags`` calls."""
    with isolated_machine_ids():
        machine = Machine(small_config(num_cpus=ncpus))
        mercury = Mercury(machine)
        kernel = mercury.create_kernel(image_pages=PAGES)
        mercury.attach()
    cpu = machine.boot_cpu
    clock = machine.clock
    seen = {"calls": []}
    update = type(kernel.vo).update_pte_flags

    def counted(self, cpu, aspace, pgd_idx, idxs, **kwargs):
        if seen.get("pgd") == pgd_idx:
            seen["calls"].append(len(idxs))
        return update(self, cpu, aspace, pgd_idx, idxs, **kwargs)

    rule = Kernel.flag_leaf_runs_ahead

    def armed(kern, cpu, aspace, n, lead_cycles):
        if n == PAGES and "pgd" not in seen:
            seen["pgd"] = next(pgd for pgd, leaf in aspace.pgd.entries.items()
                               if len(leaf.entries) == PAGES)
            leaf_cycles = n * kern.vo._flag_update_cycles(cpu, aspace) \
                + lead_cycles
            handle = clock.schedule_at(
                deadline(clock.cycles, leaf_cycles),
                lambda: seen.setdefault("timer", (
                    clock.cycles, handle.seq, clock.next_seq(),
                    kern.vo.refcount)))
        return run_ahead and rule(kern, cpu, aspace, n, lead_cycles)

    monkeypatch.setattr(type(kernel.vo), "update_pte_flags", counted)
    monkeypatch.setattr(Kernel, "flag_leaf_runs_ahead", armed)

    def task():
        kernel.syscall(cpu, "fork")
        yield

    sched = SimScheduler(machine)
    with trace.tracing(machine) as tracer:
        sched.spawn(task(), name="fork", cpu=cpu, kernel=kernel)
        sched.run()
    monkeypatch.undo()
    return {"timer": seen.get("timer"), "calls": seen["calls"],
            "clock": clock.cycles, "digest": state_digest(mercury),
            "trace": trace.canonical_lines(tracer.events())}


@pytest.mark.parametrize("ncpus", [1, 2])
def test_deadline_inside_the_leaf_takes_the_per_entry_path(monkeypatch,
                                                          ncpus):
    def inside(c0, leaf_cycles):
        return c0 + leaf_cycles // 2

    default = _sweep_run(monkeypatch, ncpus, inside, run_ahead=True)
    reference = _sweep_run(monkeypatch, ncpus, inside, run_ahead=False)
    assert default["calls"] == [1] * PAGES
    assert default["timer"] is not None and default["timer"][3] >= 1
    assert default == reference


@pytest.mark.parametrize("ncpus", [1, 2])
def test_deadline_past_the_leaf_takes_one_call(monkeypatch, ncpus):
    def past(c0, leaf_cycles):
        return c0 + leaf_cycles + 1

    default = _sweep_run(monkeypatch, ncpus, past, run_ahead=True)
    reference = _sweep_run(monkeypatch, ncpus, past, run_ahead=False)
    assert default["calls"] == [PAGES]
    assert reference["calls"] == [1] * PAGES
    assert default["timer"] is not None
    assert default == {**reference, "calls": default["calls"]}
