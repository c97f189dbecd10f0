"""Page type/count tracking: validation, pinning, isolation, recompute.

Per-PTE writes are checked where the guest makes them: through the
``mmu_update`` hypercall of a registered domain."""

import numpy as np
import pytest

from repro.errors import PageValidationError
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace, pte
from repro.vmm.page_info import PageInfoTable, PageType


@pytest.fixture
def env(machine):
    mem = machine.memory
    table = PageInfoTable(mem)
    aspace = AddressSpace(mem, owner=0)
    return machine.boot_cpu, mem, table, aspace


@pytest.fixture
def guest(machine, warm_vmm):
    """Domain 0 with one registered address space on an active VMM, plus
    ``write(vaddr, pte_or_None)``: one ``mmu_update`` hypercall, the path
    every guest PTE write takes."""
    dom = warm_vmm.create_domain("d", domain_id=0, is_driver_domain=True)
    warm_vmm.activate()
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    cpu = machine.boot_cpu

    def write(vaddr, pte):
        warm_vmm.hypercall(cpu, dom, "mmu_update", [(aspace, vaddr, pte)])

    return cpu, machine.memory, warm_vmm.page_info, aspace, write


def test_validate_pgd_types_pages(env):
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    assert table.type[aspace.pgd_frame] == PageType.L2_PAGETABLE
    leaf = aspace.leaf_for(0x1000)
    assert table.type[leaf.frame] == PageType.L1_PAGETABLE
    assert table.type[data] == PageType.WRITABLE
    assert table.type_count[data] == 1
    assert aspace.pgd_frame in table.pinned


def test_validation_rejects_foreign_frames(env):
    """A domain can never get a mapping of another domain's frame
    validated — the isolation invariant."""
    cpu, mem, table, aspace = env
    foreign = mem.alloc(99)  # owned by someone else
    aspace.set_pte(0x1000, pte(foreign))
    with pytest.raises(PageValidationError):
        table.validate_pgd(cpu, aspace, domain_id=0)


def test_validation_rejects_writable_mapping_of_pt_page(env):
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    leaf_frame = aspace.leaf_for(0x1000).frame
    # second address space tries to map the first one's leaf writable
    evil = AddressSpace(mem, owner=0)
    evil.set_pte(0x2000, pte(leaf_frame, writable=True))
    with pytest.raises(PageValidationError):
        table.validate_pgd(cpu, evil, domain_id=0)


def test_readonly_mapping_of_pt_page_is_fine(env):
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    leaf_frame = aspace.leaf_for(0x1000).frame
    reader = AddressSpace(mem, owner=0)
    reader.set_pte(0x2000, pte(leaf_frame, writable=False))
    table.validate_pgd(cpu, reader, domain_id=0)  # no exception


def test_pte_write_validation(guest):
    cpu, mem, table, aspace, write = guest
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    new_frame = mem.alloc(0)
    write(0x2000, pte(new_frame))
    assert table.type[new_frame] == PageType.WRITABLE
    foreign = mem.alloc(42)
    with pytest.raises(PageValidationError):
        write(0x3000, pte(foreign))


def test_pte_write_cannot_alias_pt_page(guest):
    cpu, mem, table, aspace, write = guest
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    leaf_frame = aspace.leaf_for(0x1000).frame
    with pytest.raises(PageValidationError):
        write(0x2000, pte(leaf_frame, writable=True))


def test_unpin_clears_types(env):
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    table.validate_pgd(cpu, aspace, domain_id=0)
    table.unpin_aspace(cpu, aspace)
    assert table.type[aspace.pgd_frame] == PageType.NONE
    assert table.type[data] == PageType.NONE
    assert aspace.pgd_frame not in table.pinned


def test_pte_clear_releases_type(guest):
    cpu, mem, table, aspace, write = guest
    frame = mem.alloc(0)
    write(0x1000, pte(frame))
    write(0x1000, None)
    assert table.type[frame] == PageType.NONE
    assert table.type_count[frame] == 0


def test_shared_frame_counts(guest):
    cpu, mem, table, aspace, write = guest
    frame = mem.alloc(0)
    write(0x1000, pte(frame))
    write(0x2000, pte(frame))
    assert table.type_count[frame] == 2
    write(0x1000, None)
    assert table.type[frame] == PageType.WRITABLE  # still mapped once
    write(0x2000, None)
    assert table.type[frame] == PageType.NONE


def test_recompute_resets_then_rebuilds(env):
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    stale = mem.alloc(0)
    table.type[stale] = PageType.L1_PAGETABLE  # garbage from a prior epoch
    scanned = table.recompute(cpu, [aspace], domain_id=0)
    assert scanned == aspace.num_pt_pages()
    assert table.type[stale] == PageType.NONE
    assert table.type[data] == PageType.WRITABLE


def test_recompute_charges_full_width_scans(env):
    """Cost accounting: recompute must charge per PT slot, which is what
    dominates the native->virtual switch (§7.4)."""
    cpu, mem, table, aspace = env
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    t0 = cpu.rdtsc()
    table.recompute(cpu, [aspace], domain_id=0)
    cost = cpu.rdtsc() - t0
    from repro.params import PT_ENTRIES
    assert cost >= 2 * PT_ENTRIES * cpu.cost.cyc_pte_validate  # pgd + leaf


def test_retype_in_use_rejected(env):
    cpu, mem, table, aspace = env
    frame = mem.alloc(0)
    table._set_type(frame, PageType.L1_PAGETABLE)
    with pytest.raises(PageValidationError):
        table._set_type(frame, PageType.L2_PAGETABLE)


def test_is_pt_frame(env):
    cpu, mem, table, aspace = env
    table.track_new_pt_page(aspace.pgd_frame, level=2)
    assert table.is_pt_frame(aspace.pgd_frame)
    assert not table.is_pt_frame(mem.alloc(0))


def _columns(table):
    return (bytes(table.type), table.type_count.tobytes(),
            table.ref_count.tobytes())


def _words(*words):
    """A batch of PTE words, as the pass takes it."""
    return np.array(words, dtype=np.int64)


def test_account_batch_declines_where_entries_interact(env):
    """The columnar pass refuses, leaving every column as it was, each case
    where its result could differ from one entry at a time."""
    cpu, mem, table, aspace = env
    a, b, c = (mem.alloc(0) for _ in range(3))
    foreign = mem.alloc(99)
    pgd = aspace.pgd_frame
    table.validate_pgd(cpu, aspace, domain_id=0)   # the PGD reads as L2
    table.account_batch(_words(pte(b)), _words(), 0)    # b mapped once
    before = _columns(table)
    declined = [
        ([pte(a), pte(a)], [], ()),                 # one frame twice
        ([pte(b)], [pte(b)], ()),                   # install and clear
        ([pte(a)], [], (a,)),                       # retyped by the caller
        ([pte(mem.num_frames)], [], ()),            # out of range
        ([pte(-1)], [], ()),
        ([pte(foreign, writable=False)], [], ()),   # another owner's
        ([pte(pgd)], [], ()),                       # writable PT frame
        ([], [pte(c)], ()),                         # clear at n > 0 clamp
    ]
    for installed, cleared, retyped in declined:
        assert not table.account_batch(_words(*installed), _words(*cleared),
                                       0, retyped)
        assert _columns(table) == before
    # a read-only mapping of a page-table frame is fine
    assert table.account_batch(_words(pte(pgd, writable=False)), _words(), 0)


def test_account_batch_equals_the_per_entry_rules(guest):
    """Installs then clears through the columnar pass leave the columns
    exactly where single-entry mmu_update calls leave them."""
    cpu, mem, table, aspace, write = guest
    frames = [mem.alloc(0) for _ in range(6)]
    for i, f in enumerate(frames[:3]):
        write(0x10000 + i * 4096, pte(f))   # counts 1, WRITABLE
    write(0x20000, pte(frames[0], writable=False))  # frames[0]: 2
    twin = PageInfoTable(mem)
    twin.type[:] = table.type
    twin.type_count[:] = table.type_count
    twin.ref_count[:] = table.ref_count
    for i, f in enumerate(frames[3:]):
        write(0x30000 + i * 4096, pte(f, writable=i != 0))
    for i in range(3):
        write(0x10000 + i * 4096, None)
    assert twin.account_batch(
        _words(*(pte(f, writable=i != 0) for i, f in enumerate(frames[3:]))),
        _words(*map(pte, frames[:3])), 0)
    assert _columns(twin) == _columns(table)
    assert twin.type[frames[0]] == PageType.WRITABLE   # still mapped once
    assert twin.type[frames[1]] == PageType.NONE


def test_validate_leaf_bad_entry_raises_after_counting_the_entries_before_it(
        env):
    """Validation takes the leaf's entries in order: a foreign frame
    raises after the entries before it took their counts."""
    cpu, mem, table, aspace = env
    frames = [mem.alloc(0) for _ in range(64)]
    frames[10] = mem.alloc(99)
    for i, f in enumerate(frames):
        aspace.set_pte(0x40_0000 + i * 4096, pte(f))
    with pytest.raises(PageValidationError, match="owned by 99"):
        table.validate_leaf(cpu, aspace.leaf_for(0x40_0000), 0)
    assert [table.type_count[f] for f in frames[:11]] == [1] * 10 + [0]
