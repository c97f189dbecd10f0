"""Two-level page tables: mapping, walks, permissions, teardown."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageFault
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import (AddressSpace, pte, pte_frame, vpn_split,
                             with_flags)
from repro.params import PAGE_SIZE, PT_ENTRIES, PT_SPAN


@pytest.fixture
def mem():
    return PhysicalMemory(256)


@pytest.fixture
def aspace(mem):
    return AddressSpace(mem, owner=0)


def test_vpn_split():
    assert vpn_split(0) == (0, 0)
    assert vpn_split(PAGE_SIZE) == (0, 1)
    assert vpn_split(PT_SPAN) == (1, 0)
    assert vpn_split(PT_SPAN + 3 * PAGE_SIZE) == (1, 3)


def test_pgd_occupies_a_frame(mem, aspace):
    assert mem.owner_of(aspace.pgd_frame) == 0
    assert mem.frame_objects[aspace.pgd_frame] is aspace.pgd


def test_map_and_walk(mem, aspace):
    f = mem.alloc(0)
    installed = pte(f)
    aspace.set_pte(0x5000, installed)
    word = aspace.walk(0x5000, write=False, user=True)
    assert word == installed
    assert pte_frame(word) == f


def test_walk_leaves_the_entry_unchanged(mem, aspace):
    """A walk only reads: entries are values that fork shares between
    tables, so a write through one table must not change the other's."""
    f = mem.alloc(0)
    installed = pte(f)
    aspace.set_pte(0x5000, installed)
    for write in (False, True):
        assert aspace.walk(0x5000, write=write, user=True) == installed
    assert aspace.get_pte(0x5000) == pte(f)


def test_walk_unmapped_faults(aspace):
    with pytest.raises(PageFault) as e:
        aspace.walk(0x9000, write=False, user=True)
    assert e.value.vaddr == 0x9000


def test_walk_write_to_readonly_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, pte(f, writable=False))
    aspace.walk(0x5000, write=False, user=True)  # read ok
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=True, user=True)


def test_user_access_to_kernel_page_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, pte(f, user=False))
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=False, user=True)
    # supervisor access is fine
    assert pte_frame(aspace.walk(0x5000, write=False, user=False)) == f


def test_not_present_faults(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, pte(f, present=False))
    with pytest.raises(PageFault):
        aspace.walk(0x5000, write=False, user=True)


def test_leaf_created_lazily(mem, aspace):
    assert aspace.num_pt_pages() == 1
    f = mem.alloc(0)
    aspace.set_pte(PT_SPAN * 2, pte(f))
    assert aspace.num_pt_pages() == 2
    leaf = aspace.leaf_for(PT_SPAN * 2)
    assert leaf.level == 1
    assert mem.frame_objects[leaf.frame] is leaf


def test_clear_pte(mem, aspace):
    f = mem.alloc(0)
    aspace.set_pte(0x5000, pte(f))
    removed = aspace.clear_pte(0x5000)
    assert pte_frame(removed) == f
    assert aspace.get_pte(0x5000) is None
    assert aspace.clear_pte(0x5000) is None  # idempotent


def test_mapped_enumeration(mem, aspace):
    frames = [mem.alloc(0) for _ in range(3)]
    addrs = [0x1000, 0x2000, PT_SPAN + 0x1000]
    for va, f in zip(addrs, frames):
        aspace.set_pte(va, pte(f))
    assert sorted(aspace.mapped_vaddrs()) == sorted(addrs)
    assert aspace.mapped_count() == 3
    assert sorted(aspace.mapped_frames()) == sorted(frames)


def test_destroy_frees_pt_frames_only(mem, aspace):
    data = mem.alloc(0)
    aspace.set_pte(0x1000, pte(data))
    free_before = mem.free_frames
    pt_pages = aspace.num_pt_pages()
    aspace.destroy()
    assert mem.free_frames == free_before + pt_pages
    assert mem.owner_of(data) == 0  # the mapped frame is untouched


def test_with_flags_builds_a_new_entry():
    p = pte(1, present=True, writable=True, user=False, cow=False)
    q = with_flags(p, writable=False, cow=True)
    assert q == pte(1, present=True, writable=False, user=False,
                    cow=True)
    assert p == pte(1, present=True, writable=True, user=False,
                    cow=False)
    # None keeps a flag
    assert with_flags(p, cow=True) == pte(1, user=False, cow=True)
    assert with_flags(q, writable=True) == pte(1, user=False, cow=True)
    assert with_flags(p) == p


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 63), st.booleans()),  # (page index, map/unmap)
    max_size=80))
def test_property_map_walk_consistency(ops):
    """After any map/unmap sequence, walks agree with the shadow model."""
    mem = PhysicalMemory(512)
    aspace = AddressSpace(mem, owner=0)
    shadow: dict[int, int] = {}
    pool = [mem.alloc(0) for _ in range(64)]
    for page, do_map in ops:
        va = page * PAGE_SIZE
        if do_map:
            aspace.set_pte(va, pte(pool[page]))
            shadow[va] = pool[page]
        else:
            aspace.clear_pte(va)
            shadow.pop(va, None)
    for va, frame in shadow.items():
        assert pte_frame(aspace.walk(va, write=False, user=True)) == frame
    assert aspace.mapped_count() == len(shadow)
