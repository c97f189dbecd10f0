"""Frame share counts as a column: every numpy pass over a batch of frames
equals the per-frame rules it stands in for.

``VirtualMemory`` keeps each frame's copy-on-write share count in a column
indexed by frame, and ``PhysicalMemory.free_many`` frees through the owner
column.  A batch of distinct frames in range is one numpy pass; a batch
with a repeated frame, a frame out of range or a double free takes the
per-frame loop, where such frames interact or fail in order.  So the two
must agree on every batch: the share counts, the frames freed and their
recycle order, the exception, and the partial state a raising frame
leaves behind.  The random batches are mostly clean (so the pass runs)
with up to three such frames mixed in.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, small_config
from repro.bench.configs import BareMetalVO
from repro.core.accounting import AccountingStrategy
from repro.core.invariants import check_all
from repro.core.mercury import PagingMode
from repro.errors import InvalidPhysicalAddress
from repro.guestos import vmem as vmem_module
from repro.guestos.vmem import VirtualMemory
from repro.hw import memory
from repro.hw.machine import reset_machine_ids
from repro.hw.memory import LEAF_PASS_MIN, PhysicalMemory
from repro.params import PAGE_SIZE
from repro.scenarios.checkpoint import state_digest
from repro.vmm import hypercalls
from repro.vmm.page_info import PageInfoTable

#: frames of the test machine; the first ``HELD`` are allocated
NUM_FRAMES = 192
HELD = 160
#: what a fault in a batch is: a frame listed again, one past the machine,
#: a negative one, or one already free (a double free)
FAULTS = ("repeat", "beyond", "negative", "free")


def _twins(counts, marked):
    """Two identical kernels' frame state: ``HELD`` frames allocated, each
    with its share count from ``counts``; frames in ``marked`` hold
    contents and a frame object.  The second twin's ``free_many`` is the
    per-frame loop, so it is the reference throughout."""
    twins = []
    for _ in range(2):
        mem = PhysicalMemory(NUM_FRAMES)
        mem.alloc_many(0, HELD)
        for frame in marked:
            mem.write(frame, ("data", frame))
            mem.frame_objects[frame] = ("object", frame)
        vmem = VirtualMemory(SimpleNamespace(
            machine=SimpleNamespace(memory=mem)))
        vmem.set_shares({f: n for f, n in enumerate(counts) if n})
        twins.append((mem, vmem))
    twins[1][0].free_many = twins[1][0]._free_each
    return twins


def _state(mem, vmem=None) -> dict:
    return {"shares": None if vmem is None else vmem.shares(),
            "owner": list(mem.owner), "recycled": list(mem._recycled),
            "contents": list(mem._contents.items()),
            "objects": dict(mem.frame_objects)}


def _outcome(fn, *args):
    try:
        fn(*args)
    except InvalidPhysicalAddress as exc:
        return str(exc)
    return None


@st.composite
def batches(draw):
    """A batch of distinct held frames, then up to three faults put in at
    random places; as a list or as an int64 array (what teardown and
    munmap hand over)."""
    batch = draw(st.permutations(range(HELD)))[:draw(st.integers(0, HELD))]
    for kind, pos, k in draw(st.lists(
            st.tuples(st.sampled_from(FAULTS), st.integers(0, 10**6),
                      st.integers(0, 5)), max_size=3)):
        if kind == "repeat" and batch:
            frame = batch[pos % len(batch)]
        elif kind == "beyond":
            frame = NUM_FRAMES + k
        elif kind == "negative":
            frame = -1 - k
        else:
            frame = HELD + k            # a free frame
        batch.insert(pos % (len(batch) + 1), frame)
    return (np.asarray(batch, dtype=np.int64) if draw(st.booleans())
            else batch)


_COUNTS = st.lists(st.sampled_from((0, 1, 1, 2, 3)), min_size=HELD,
                   max_size=HELD)
_MARKED = st.sets(st.integers(0, HELD - 1), max_size=12)
#: a clean batch of every held frame, each at the count its position gives
_CLEAN = list(range(HELD))


@settings(max_examples=300, deadline=None)
@given(_COUNTS, _MARKED, batches())
@example([1] * HELD, set(), _CLEAN)
@example([2] * HELD, set(), _CLEAN)
@example([0, 1, 2, 3] * (HELD // 4), {3, 7}, _CLEAN[:70] + [5] + _CLEAN[70:])
@example([1] * HELD, {1, 2}, _CLEAN[:40] + [HELD] + _CLEAN[40:100])
@example([1] * HELD, set(), _CLEAN[:80] + [NUM_FRAMES] + _CLEAN[80:])
def test_release_equals_the_per_frame_rules(counts, marked, batch):
    """The same counts, the same frames freed in the same recycle order,
    and the same exception with the same partial state."""
    (mem, vmem), (ref_mem, ref) = _twins(counts, marked)
    reference = list(batch) if isinstance(batch, list) else batch.tolist()
    assert (_outcome(vmem.release_frames, None, batch)
            == _outcome(ref._release_each, reference))
    assert _state(mem, vmem) == _state(ref_mem, ref)


@settings(max_examples=200, deadline=None)
@given(_COUNTS, batches())
@example([1] * HELD, _CLEAN[:64] + [9] + _CLEAN[64:])
@example([0] * HELD, _CLEAN + [NUM_FRAMES, -1])
def test_forks_share_take_equals_the_per_frame_rules(counts, batch):
    """A repeated frame takes a share per listing, an untracked frame goes
    to two, and a frame beyond the machine stays untracked."""
    (mem, vmem), (_, ref) = _twins(counts, ())
    reference = list(batch) if isinstance(batch, list) else batch.tolist()
    vmem.take_shares(batch)
    ref._take_each(reference)
    assert vmem.shares() == ref.shares()


@settings(max_examples=300, deadline=None)
@given(_MARKED, batches())
@example({2, 70}, _CLEAN[:100] + [2] + _CLEAN[100:])     # freed twice
@example({2, 70}, _CLEAN[:100] + [HELD + 1] + _CLEAN[100:])  # already free
@example({2, 70}, _CLEAN[:100] + [NUM_FRAMES] + _CLEAN[100:])
@example({2, 70}, _CLEAN[:100] + [-1] + _CLEAN[100:])
def test_free_many_equals_the_per_frame_rule(marked, batch):
    """A bad frame mid-batch raises after exactly the frames before it
    were freed, and only those lose their contents and frame objects."""
    (mem, _), (ref_mem, _) = _twins((), marked)
    reference = list(batch) if isinstance(batch, list) else batch.tolist()
    assert (_outcome(mem.free_many, batch)
            == _outcome(ref_mem._free_each, reference))
    assert _state(mem) == _state(ref_mem)
    assert all(type(f) is int for f in mem._recycled)


def test_a_clean_batch_takes_the_pass_and_a_small_one_the_loop(monkeypatch):
    """From LEAF_PASS_MIN distinct frames in range every pass runs in
    numpy; below it, and on any fault, the loops run."""
    (mem, vmem), _ = _twins([1] * HELD, ())
    looped = []
    for owner, name in ((vmem, "_release_each"), (vmem, "_take_each"),
                        (mem, "_free_each")):
        monkeypatch.setattr(owner, name,
                            lambda frames, name=name: looped.append(name))
    clean = np.arange(LEAF_PASS_MIN, dtype=np.int64)
    vmem.take_shares(clean)
    vmem.release_frames(None, clean)
    vmem.release_frames(None, clean)     # the last share: frees them
    assert looped == []
    assert mem._recycled == clean.tolist()
    vmem.take_shares(clean[:-1])
    vmem.release_frames(None, clean[:-1])
    mem.free_many(np.append(clean[1:], clean[1]))
    assert looped == ["_take_each", "_release_each", "_free_each"]


# ---------------------------------------------------------------------------
# run claims and teardowns on every VO kind, passes against loops
# ---------------------------------------------------------------------------

KINDS = ("bare", "native", "native-active", "virtual", "shadow")


def _lifecycle(kind: str) -> dict:
    """A 384-page image forked twice (the shares taken), an exec of 320
    pages (a teardown of shared frames and a run claim), a populated mmap
    and its munmap, both children exited (teardowns freeing frames) and,
    on a virtual host, a ballooned guest mapping its pool (a run claim)
    that forks and reaps a child and inflates by a few pages."""
    reset_machine_ids()
    strategy = (AccountingStrategy.ACTIVE if kind == "native-active"
                else AccountingStrategy.RECOMPUTE)
    paging = PagingMode.SHADOW if kind == "shadow" else PagingMode.DIRECT
    mercury = Mercury(Machine(small_config()), strategy=strategy,
                      paging=paging)
    kernel = mercury.create_kernel(image_pages=384)
    if kind == "bare":
        kernel.vo = BareMetalVO(mercury.machine, mmu_log=mercury.mmu_log)
    if kind in ("virtual", "shadow"):
        mercury.attach()
    cpu = mercury.machine.boot_cpu
    first = kernel.procs.get(kernel.syscall(cpu, "fork"))
    second = kernel.spawn_process(cpu, "sh", image_pages=320)
    base = kernel.syscall(cpu, "mmap", 200 * PAGE_SIZE, True)
    kernel.syscall(cpu, "munmap", base, 200 * PAGE_SIZE)
    kernel.run_and_reap(cpu, second)
    kernel.run_and_reap(cpu, first)
    violations = check_all(mercury)
    if kind == "bare":
        violations = [v for v in violations if "non-native VO" not in v]
    assert violations == []
    if kind in ("virtual", "shadow"):
        guest = mercury.host_guest(name="g", image_pages=8, mem_pages=160,
                                   mem_floor=16)
        front, _ = mercury.balloons[guest.owner_id]
        task = guest.scheduler.current
        assert front.map_pool_frames(cpu, task, len(front.pool)) >= 64
        guest.run_and_reap(cpu, guest.procs.get(guest.syscall(cpu, "fork")))
        front.inflate(cpu, 4)
    mem = mercury.machine.memory
    return {"digest": state_digest(mercury), "recycled": list(mem._recycled),
            "owner": list(mem.owner),
            "shares": [k.vmem.shares() for k in [kernel, *mercury.guests]]}


#: the passes over PTE words a VO kind's lifecycle reaches besides the
#: frame batches: the VMM's, where a virtual root is pinned
WORD_PASSES = {"virtual": {"validate_leaf", "region"},
               "shadow": {"validate_leaf", "region"}}


@pytest.mark.parametrize("kind", KINDS)
def test_run_claims_and_teardowns_equal_the_loops_on_every_vo(kind,
                                                              monkeypatch):
    """The lifecycle ends in the same state with the passes as with the
    per-frame loops, and every batch of at least LEAF_PASS_MIN frames or
    entries in it takes its pass: the frame batches, the leaf validations'
    ``account_batch`` and the region writes.  A pass that starts declining
    the lifecycle's own batches fails here instead of costing time."""
    seen = []       # (pass, frames or entries, taken)
    regions = []    # the region pass running, for account_batch's caller
    region_pass = hypercalls._apply_region_columnar
    account_batch = PageInfoTable.account_batch

    def frame_batch(frames, num_frames):
        batch = memory.frame_batch(frames, num_frames)
        seen.append(("frame_batch", len(frames), batch is not None))
        return batch

    def region(vmm, cpu, domain, aspace, leaves, n):
        regions.append(n)
        try:
            taken = region_pass(vmm, cpu, domain, aspace, leaves, n)
        finally:
            regions.pop()
        seen.append(("region", n, taken))
        return taken

    def validate(table, installed, cleared, domain_id, retyped=()):
        taken = account_batch(table, installed, cleared, domain_id, retyped)
        if not regions:
            seen.append(("validate_leaf", len(installed), taken))
        return taken

    monkeypatch.setattr(vmem_module, "frame_batch", frame_batch)
    monkeypatch.setattr(hypercalls, "_apply_region_columnar", region)
    monkeypatch.setattr(PageInfoTable, "account_batch", validate)
    passes = _lifecycle(kind)
    large = [(name, taken) for name, size, taken in seen
             if size >= LEAF_PASS_MIN]
    assert {name for name, _ in large} == {"frame_batch",
                                           *WORD_PASSES.get(kind, ())}
    assert all(taken for _, taken in large), large
    monkeypatch.setattr(memory, "LEAF_PASS_MIN", 10**9)
    assert _lifecycle(kind) == passes
    assert passes["recycled"] and all(f >= 0 for f in passes["recycled"])


def test_the_frames_stay_python_ints():
    """A frame read out of an int64 array never reaches the allocator as a
    numpy scalar: the recycle stack, and so the frames handed out next,
    hold ints."""
    mercury = Mercury(Machine(small_config()))
    kernel = mercury.create_kernel(image_pages=384)
    cpu = mercury.machine.boot_cpu
    kernel.run_and_reap(cpu, kernel.spawn_process(cpu, "sh", 384))
    mem = mercury.machine.memory
    assert len(mem._recycled) >= 384
    assert all(type(f) is int for f in mem._recycled)
    assert all(type(f) is int for f in mem.alloc_many(0, 400))
    assert all(type(f) is int and type(n) is int
               for f, n in kernel.vmem.shares().items())
