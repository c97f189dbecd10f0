"""PTE words: the layout round-trips, and every numpy pass over a leaf's
words equals the per-entry rules it stands in for.

A bulk pass declines to the per-entry rules wherever entries could
interact or fail, so the two must agree on every leaf: the page-info
columns, the exception and the partial state a raising entry leaves
behind.  The random leaves mix in words the pass takes — non-present
words (frame 0's is the word 0) and page-table frames mapped read-only —
and words that make it decline: repeated frames, foreign frames,
page-table frames mapped writable, frames out of range and entries
mapping the leaf's own frame.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, small_config
from repro.errors import PageValidationError
from repro.hw.memory import LEAF_PASS_MIN, PhysicalMemory
from repro.hw.paging import (PTE_FLAGS, PTE_FRAME_SHIFT, AddressSpace, pte,
                             pte_fields, pte_frame, region_items,
                             with_flags)
from repro.params import PAGE_SIZE, PT_ENTRIES, paper_config
from repro.vmm import page_info
from repro.vmm.hypercalls import mmu_update_chunks, mmu_update_region
from repro.vmm.page_info import PageInfoTable, PageType

#: every (present, writable, user, cow) combination
FLAG_SETS = [dict(zip(("present", "writable", "user", "cow"), bits))
             for bits in itertools.product((False, True), repeat=4)]

# ---------------------------------------------------------------------------
# the layout
# ---------------------------------------------------------------------------


def test_every_flag_combination_round_trips_over_the_paper_machine():
    """Each of the 16 flag sets, on every frame of ``paper_config()``'s
    225,000: the word holds the frame above the flag bits, and the int64
    numpy passes read back what :func:`pte` wrote."""
    n = paper_config().num_frames
    frames = np.arange(n, dtype=np.int64)
    seen = set()
    for flags in FLAG_SETS:
        words = np.fromiter(map(partial(pte, **flags), range(n)),
                            np.int64, n)
        assert (words >> PTE_FRAME_SHIFT == frames).all()
        low = np.unique(words & PTE_FLAGS)
        assert len(low) == 1
        seen.add(int(low[0]))
        for frame in (0, 1, n // 2, n - 1):
            assert pte_fields(int(words[frame])) == (frame, *flags.values())
    assert len(seen) == len(FLAG_SETS)   # no two flag sets share bits


OPTIONAL = st.none() | st.booleans()


@given(frame=st.integers(0, paper_config().num_frames - 1),
       flags=st.sampled_from(FLAG_SETS), writable=OPTIONAL, cow=OPTIONAL)
def test_a_word_reads_back_its_fields_and_takes_new_flags(frame, flags,
                                                          writable, cow):
    word = pte(frame, **flags)
    assert pte_frame(word) == frame
    assert pte_fields(word) == (frame, *flags.values())
    new = dict(flags)
    if writable is not None:
        new["writable"] = writable
    if cow is not None:
        new["cow"] = cow
    assert with_flags(word, writable=writable, cow=cow) == pte(frame, **new)


# ---------------------------------------------------------------------------
# validate_leaf: the numpy pass against the per-entry loop
# ---------------------------------------------------------------------------

#: frames of the validation machine; frame 0 is a data frame of domain 0
NUM_FRAMES = 256
DATA = 48
FOREIGN_OWNER = 31


class _Cpu:
    """Charges nothing: the two runs charge alike by construction."""

    class cost:
        cyc_pte_validate = 0

    def charge(self, cycles: int) -> None:
        pass


def _machine():
    mem = PhysicalMemory(NUM_FRAMES)
    frames = {"zero": [mem.alloc(0)], "data": mem.alloc_many(0, DATA),
              "foreign": [mem.alloc(FOREIGN_OWNER) for _ in range(3)]}
    aspace = AddressSpace(mem, owner=0)
    other = aspace.new_leaf(5)
    leaf = aspace.new_leaf(1)
    frames.update(l1=[other.frame], l2=[aspace.pgd.frame],
                  self=[leaf.frame],
                  out=[NUM_FRAMES, NUM_FRAMES + 1, 1 << 20])
    return mem, frames, leaf


#: what a near-clean leaf may carry: another entry's frame, a non-present
#: word, the word 0 (frame 0, no flags), or a frame of another kind
FAULTS = ("repeat", "non-present", "word0", "zero", "foreign", "l1", "l2",
          "self", "out")


@st.composite
def leaves(draw):
    """A clean leaf — distinct data frames of domain 0, every word present,
    which the numpy pass takes — carrying up to three faults, each of
    which alone may make the pass decline.  Entries are ``[kind, index,
    present, writable, cow, user]``."""
    n = draw(st.integers(1, DATA))
    idxs = draw(st.lists(st.integers(0, DATA - 1), min_size=n, max_size=n,
                         unique=True))
    entries = [["data", i, True, draw(st.booleans()), draw(st.booleans()),
                True] for i in idxs]
    faults = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.sampled_from(FAULTS),
                                     st.integers(0, DATA - 1),
                                     st.booleans()), max_size=3))
    for pos, fault, i, writable in faults:
        entry = entries[pos]
        if fault == "repeat":
            entry[1] = entries[i % n][1]
        elif fault == "non-present":
            entry[2] = False
        elif fault == "word0":
            entry[:] = ["zero", 0, False, False, False, False]
        else:
            entry[0], entry[1], entry[3] = fault, i, writable
    slots = draw(st.lists(st.integers(0, PT_ENTRIES - 1), min_size=n,
                          max_size=n, unique=True))
    #: the columns' state before validation: frames already mapped, and
    #: the leaf's own frame untyped, already L1, or (failing) WRITABLE
    mapped = draw(st.lists(st.integers(0, DATA - 1), max_size=6))
    leaf_type = draw(st.sampled_from(("none", "none", "l1", "writable")))
    return not faults, list(zip(slots, entries)), mapped, leaf_type


def _validate(spec, columnar: bool):
    clean, entries, mapped, leaf_type = spec
    mem, frames, leaf = _machine()
    table = PageInfoTable(mem)
    for kind, ptype in (("l1", PageType.L1_PAGETABLE),
                        ("l2", PageType.L2_PAGETABLE)):
        table.type[frames[kind][0]] = ptype
        table.type_count[frames[kind][0]] = 1
    for i in mapped:
        frame = frames["data"][i]
        table.type[frame] = PageType.WRITABLE
        table.type_count[frame] += 1
        table.ref_count[frame] += 1
    if leaf_type != "none":
        table.type[leaf.frame] = (PageType.L1_PAGETABLE if leaf_type == "l1"
                                  else PageType.WRITABLE)
        table.type_count[leaf.frame] = 1
    for slot, (kind, i, present, writable, cow, user) in entries:
        pool = frames[kind]
        leaf.entries[slot] = pte(pool[i % len(pool)], present=present,
                                 writable=writable, cow=cow, user=user)
    passes = []
    batch = table.account_batch
    table.account_batch = lambda *a: passes.append(batch(*a)) or passes[-1]
    saved = page_info.LEAF_PASS_MIN
    page_info.LEAF_PASS_MIN = 1 if columnar else PT_ENTRIES + 1
    error = None
    try:
        table.validate_leaf(_Cpu(), leaf, 0)
    except (PageValidationError, IndexError) as exc:  # a frame out of range
        error = (type(exc).__name__, str(exc))         # fails its lookup
    finally:
        page_info.LEAF_PASS_MIN = saved
    state = (error, bytes(table.type), table.type_count.tobytes(),
             table.ref_count.tobytes(), table.validations)
    return state, passes


def _one(*entries, leaf_type="none", taken=False):
    """A leaf spec of the given entries at slots 0, 1, ...; ``taken`` says
    the pass must take it."""
    return taken, [(slot, list(e)) for slot, e in enumerate(entries)], [], \
        leaf_type


DATA_RW = ("data", 1, True, True, False, True)
#: a full leaf of LEAF_PASS_MIN entries: every data frame mapped, the rest
#: non-present words (of data frames, and the word 0)
SPARSE = ([("data", i, True, i % 2 == 0, False, True) for i in range(DATA)]
          + [("data", i, False, True, False, True)
             for i in range(LEAF_PASS_MIN - DATA - 1)]
          + [("zero", 0, False, False, False, False)])


@settings(max_examples=400, deadline=None)
@given(leaves())
@example(_one(DATA_RW, ("data", 1, True, False, False, True)))   # repeat
@example(_one(DATA_RW, ("self", 0, True, False, False, True)))
@example(_one(DATA_RW, ("foreign", 0, True, False, False, True)))
@example(_one(DATA_RW, ("l1", 0, True, False, False, True)))     # read-only
@example(_one(DATA_RW, ("l2", 0, True, True, False, True)))      # writable
@example(_one(DATA_RW, ("out", 2, True, False, False, True)))
@example(_one(DATA_RW, ("zero", 0, False, False, False, False)))  # word 0
@example(_one(DATA_RW, leaf_type="writable"))
@example(_one(*SPARSE, taken=True))                               # holes
@example(_one(DATA_RW, ("l1", 0, True, False, False, True), taken=True))
@example(_one(DATA_RW, ("l2", 0, True, False, False, True), taken=True))
def test_numpy_validation_equals_the_per_entry_loop(spec):
    columnar, passes = _validate(spec, columnar=True)
    per_entry, none = _validate(spec, columnar=False)
    assert columnar == per_entry
    assert none == [] and len(passes) == 1
    clean, _, _, leaf_type = spec
    if clean and leaf_type != "writable":
        assert passes == [True] and columnar[0] is None


def test_the_crossover_sends_small_leaves_to_the_loop():
    """Leaves under :data:`~repro.hw.memory.LEAF_PASS_MIN` entries never
    try the numpy pass; leaves at it do."""
    for n, tried in ((page_info.LEAF_PASS_MIN - 1, []),
                     (page_info.LEAF_PASS_MIN, [True])):
        mem, frames, leaf = _machine()
        extra = mem.alloc_many(0, n)
        for slot, frame in enumerate(extra):
            leaf.entries[slot] = pte(frame)
        table = PageInfoTable(mem)
        passes = []
        batch = table.account_batch
        table.account_batch = lambda *a: passes.append(batch(*a)) \
            or passes[-1]
        table.validate_leaf(_Cpu(), leaf, 0)
        assert passes == tried
        assert all(table.type_count[f] == 1 for f in extra)


# ---------------------------------------------------------------------------
# region writes: the columnar pass against chunked mmu_update
# ---------------------------------------------------------------------------

#: the mmap-area leaves regions write; PREPOP holds counted entries
PREPOP, FRESH = 256, 257
POOL = 160


def _stack():
    mercury = Mercury(Machine(small_config()))
    kernel = mercury.create_kernel(image_pages=8)
    mercury.attach()
    mem = mercury.machine.memory
    pool = mem.alloc_many(kernel.owner_id, POOL)
    aspace = kernel.scheduler.current.aspace
    cpu = mercury.machine.boot_cpu
    vmm, domain = mercury.vmm, kernel.vo.domain
    frames = {"data": pool, "foreign": [mem.alloc(FOREIGN_OWNER)],
              "l1": [leaf.frame for leaf in aspace.pgd.entries.values()],
              "l2": [aspace.pgd.frame], "out": [mem.num_frames],
              "zero": [0]}
    # counted entries to clear: pool[0:80] at PREPOP slots 0..79
    vmm.hypercall(cpu, domain, "mmu_update",
                  [(aspace, (PREPOP * PT_ENTRIES + i) * PAGE_SIZE,
                    pte(pool[i])) for i in range(80)])
    return mercury, cpu, vmm, domain, aspace, frames


#: what a near-clean install region may carry (see FAULTS)
REGION_FAULTS = ("repeat", "non-present", "word0", "zero", "foreign", "l1",
                 "l2", "out")


@st.composite
def regions(draw):
    """A clears-only leaf over the counted entries (with empty slots, and
    maybe a non-present word or an uncounted entry among them) or an
    installs-only leaf into a fresh one — distinct frames of this domain,
    carrying up to three faults — of ``LEAF_PASS_MIN`` to 80 entries.
    Returns ``(what, items, detail)``: the extra entry of a clear, whether
    an install is clean."""
    n = draw(st.integers(LEAF_PASS_MIN, 80))
    if draw(st.booleans()):
        slots = draw(st.lists(st.integers(0, 99), min_size=n, max_size=n,
                              unique=True))
        extra = draw(st.sampled_from((None, "non-present", "uncounted")))
        return "clear", slots, extra
    idxs = draw(st.lists(st.integers(80, POOL - 1), min_size=n, max_size=n,
                         unique=True))
    words = [["data", i, True, draw(st.booleans())] for i in idxs]
    faults = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.sampled_from(REGION_FAULTS),
                                     st.integers(0, POOL - 1),
                                     st.booleans()), max_size=3))
    for pos, fault, i, writable in faults:
        word = words[pos]
        if fault == "repeat":
            word[1] = words[i % n][1]
        elif fault == "non-present":
            word[2] = False
        elif fault == "word0":
            word[:] = ["word0", 0, False, False]
        else:
            word[0], word[1], word[3] = fault, i, writable
    return "install", words, not faults


def _region(spec, columnar: bool):
    mercury, cpu, vmm, domain, aspace, frames = _stack()
    what, items, detail = spec
    if what == "clear":
        if detail == "non-present":
            vmm.hypercall(cpu, domain, "mmu_update", [(
                aspace, (PREPOP * PT_ENTRIES + 90) * PAGE_SIZE,
                pte(frames["data"][90], present=False))])
        elif detail == "uncounted":
            aspace.set_pte((PREPOP * PT_ENTRIES + 91) * PAGE_SIZE,
                           pte(frames["data"][91]))
        leaves = [(PREPOP, dict.fromkeys(items))]
    else:
        updates = {}
        for slot, (kind, i, present, writable) in enumerate(items):
            pool = frames.get(kind)
            updates[slot] = (0 if pool is None else
                             pte(pool[i % len(pool)], present=present,
                                 writable=writable))
        leaves = [(FRESH, updates)]
    n = sum(len(u) for _, u in leaves)
    accounted = []
    batch = vmm.page_info.account_batch
    vmm.page_info.account_batch = lambda *a: accounted.append(batch(*a)) \
        or accounted[-1]
    error = None
    try:
        if columnar:
            mmu_update_region(vmm, cpu, domain, aspace, leaves)
        else:
            updates = [(aspace, v, w) for v, w in region_items(leaves)]
            for start, end in mmu_update_chunks(cpu, n):
                vmm.hypercall(cpu, domain, "mmu_update", updates[start:end])
    except (PageValidationError, IndexError) as exc:
        error = (type(exc).__name__, str(exc))
    pi = vmm.page_info
    state = {
        "error": error,
        "leaves": [(pgd_idx, leaf.frame, list(leaf.entries.items()))
                   for pgd_idx, leaf in aspace.pgd.entries.items()],
        "columns": (bytes(pi.type), pi.type_count.tobytes(),
                    pi.ref_count.tobytes(), bytes(pi.pinned_map)),
        "clock": cpu.clock.cycles,
        "tlb": list(cpu.tlb._entries.items()),
        "counts": (dict(vmm.hypercall_counts), vmm.mmu_batches,
                   vmm.mmu_batched_updates),
    }
    return state, accounted


_CLEAN_INSTALL = [["data", 80 + k, True, k % 2 == 0]
                  for k in range(LEAF_PASS_MIN)]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(regions())
@example(("install", _CLEAN_INSTALL[:-1] + [["data", 80, True, False]],
          False))                                   # one frame twice
@example(("install", [["word0", 0, False, False]] + _CLEAN_INSTALL[1:],
          False))
@example(("clear", list(range(LEAF_PASS_MIN + 30)), "uncounted"))
def test_columnar_region_equals_chunked_mmu_update(spec):
    columnar, accounted = _region(spec, columnar=True)
    chunked, never = _region(spec, columnar=False)
    assert columnar == chunked
    assert never == []
    what, _, detail = spec
    if what == "install" and detail:     # a clean install region
        assert accounted == [True] and columnar["error"] is None
    if what == "clear" and detail != "uncounted":
        assert accounted == [True]


def test_munmap_releases_frames_in_vpn_order_with_and_without_holes():
    """munmap's gather — one pass over a fully mapped range, per slot
    around holes — frees in vpn order, whatever order the entries were
    made in: the allocator's recycle order follows it."""
    for populate in (True, False):
        mercury = Mercury(Machine(small_config()))
        kernel = mercury.create_kernel(image_pages=8)
        cpu, mem = mercury.machine.boot_cpu, mercury.machine.memory
        task = kernel.scheduler.current
        base = kernel.syscall(cpu, "mmap", 80 * PAGE_SIZE, populate)
        if not populate:             # faulted in backwards, with holes
            for i in reversed(range(80)):
                if i % 7:
                    kernel.vmem.access(cpu, task, base + i * PAGE_SIZE,
                                       write=True)
        mapped = [task.aspace.get_pte(base + i * PAGE_SIZE)
                  for i in range(80)]
        frames = [pte_frame(w) for w in mapped if w is not None]
        kernel.syscall(cpu, "munmap", base, 80 * PAGE_SIZE)
        assert mem._recycled[-len(frames):] == frames
