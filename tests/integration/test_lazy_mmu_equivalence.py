"""Property: a lazy-MMU region is semantically transparent.

Driving the same PTE-update sequence through the virtual VO eagerly and
through a lazy region must leave both stacks with identical page tables,
identical TLB contents, and a page-info table the VMM considers
semantically equal — batching may only change *when* hypercalls happen and
what they cost, never what state they produce.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, small_config
from repro.hw.paging import pte, pte_fields, vpn_split
from repro.params import PAGE_SIZE

#: scratch region away from the boot image
BASE = 0x4000_0000
NUM_SLOTS = 12

OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear", "flags", "tlb"]),
        st.integers(min_value=0, max_value=NUM_SLOTS - 1),
        st.booleans(),
    ),
    max_size=30,
)


def _stack():
    """A booted Mercury in virtual mode plus pre-allocated data frames.

    Both stacks are constructed identically, so the i-th allocated frame
    carries the same frame number in each — state is directly comparable.
    """
    machine = Machine(small_config())
    mercury = Mercury(machine)
    mercury.create_kernel(image_pages=8)
    mercury.attach()
    kernel = mercury.kernel
    frames = []
    for _ in range(NUM_SLOTS):
        frame = machine.memory.alloc(kernel.owner_id)
        kernel.vmem.claim_frame(frame)
        frames.append(frame)
    return mercury, frames


def _apply(mercury, frames, ops, batched: bool):
    kernel = mercury.kernel
    cpu = mercury.machine.boot_cpu
    aspace = kernel.scheduler.current.aspace
    vo = kernel.vo
    if batched:
        vo.lazy_mmu_begin(cpu)
    try:
        for kind, slot, writable in ops:
            vaddr = BASE + slot * PAGE_SIZE
            if kind == "set":
                vo.set_pte(cpu, aspace, vaddr,
                           pte(frames[slot], writable=writable))
            elif kind == "clear":
                vo.clear_pte(cpu, aspace, vaddr)
            elif kind == "flags":
                pgd_idx, idx = vpn_split(vaddr)
                vo.update_pte_flags(cpu, aspace, pgd_idx, [idx],
                                    writable=writable, cow=not writable)
            else:  # a TLB flush is a mandatory drain point in both stacks
                vo.flush_tlb(cpu)
    finally:
        if batched:
            vo.lazy_mmu_end(cpu)
    return aspace, cpu


def _table(aspace):
    return {vaddr: pte_fields(word) for vaddr, word in aspace.mapped_items()}


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_batched_and_eager_updates_converge_to_identical_state(ops):
    eager_mc, eager_frames = _stack()
    lazy_mc, lazy_frames = _stack()
    assert eager_frames == lazy_frames  # identical construction

    eager_as, eager_cpu = _apply(eager_mc, eager_frames, ops, batched=False)
    lazy_as, lazy_cpu = _apply(lazy_mc, lazy_frames, ops, batched=True)

    assert _table(eager_as) == _table(lazy_as)
    assert dict(eager_cpu.tlb._entries) == dict(lazy_cpu.tlb._entries)
    assert eager_mc.vmm.page_info.semantically_equal(lazy_mc.vmm.page_info)
    # the queue is empty at rest in both stacks
    assert eager_mc.kernel.vo.lazy_mmu_pending() == 0
    assert lazy_mc.kernel.vo.lazy_mmu_pending() == 0


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_batching_never_costs_more_cycles(ops):
    """The whole point of the optimisation, stated as a property: for any
    update sequence, the batched path's cycle bill is <= the eager path's
    (equal when the sequence contains no pinned-table updates)."""
    eager_mc, eager_frames = _stack()
    lazy_mc, lazy_frames = _stack()
    start_eager = eager_mc.machine.boot_cpu.clock.cycles
    start_lazy = lazy_mc.machine.boot_cpu.clock.cycles
    assert start_eager == start_lazy  # identical boot cost

    _, eager_cpu = _apply(eager_mc, eager_frames, ops, batched=False)
    _, lazy_cpu = _apply(lazy_mc, lazy_frames, ops, batched=True)

    eager_cost = eager_cpu.clock.cycles - start_eager
    lazy_cost = lazy_cpu.clock.cycles - start_lazy
    assert lazy_cost <= eager_cost
