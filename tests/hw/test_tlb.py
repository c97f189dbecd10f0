"""TLB model: fills, lookups, FIFO eviction, flushes."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.hw.tlb import Tlb


def test_miss_then_hit():
    tlb = Tlb(capacity=4)
    assert tlb.lookup(1) is None
    tlb.fill(1, 100, True)
    assert tlb.lookup(1) == (100, True)
    assert tlb.hits == 1 and tlb.misses == 1


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tlb(capacity=0)


def test_fifo_eviction():
    tlb = Tlb(capacity=2)
    tlb.fill(1, 10, True)
    tlb.fill(2, 20, True)
    tlb.fill(3, 30, True)  # evicts vpn 1
    assert tlb.lookup(1) is None
    assert tlb.lookup(2) == (20, True)
    assert tlb.lookup(3) == (30, True)


def test_refill_does_not_grow(capacity=2):
    tlb = Tlb(capacity=2)
    tlb.fill(1, 10, True)
    tlb.fill(1, 11, False)  # update in place
    assert len(tlb) == 1
    assert tlb.lookup(1) == (11, False)


def test_invalidate_single():
    tlb = Tlb()
    tlb.fill(1, 10, True)
    tlb.fill(2, 20, True)
    tlb.invalidate(1)
    assert tlb.lookup(1) is None
    assert tlb.lookup(2) == (20, True)


def test_flush_clears_everything_and_counts():
    tlb = Tlb()
    tlb.fill(1, 10, True)
    tlb.flush()
    assert len(tlb) == 0
    assert tlb.flushes == 1
    assert tlb.lookup(1) is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["fill", "inval", "flush"]),
                          st.integers(0, 15)), max_size=60))
def test_property_never_stale_after_invalidate(ops):
    """An invalidated or flushed translation is never returned."""
    tlb = Tlb(capacity=8)
    live: dict[int, int] = {}
    for op, vpn in ops:
        if op == "fill":
            tlb.fill(vpn, vpn * 7, True)
            live[vpn] = vpn * 7
        elif op == "inval":
            tlb.invalidate(vpn)
            live.pop(vpn, None)
        else:
            tlb.flush()
            live.clear()
    for vpn in range(16):
        hit = tlb.lookup(vpn)
        if hit is not None:
            assert vpn in live and hit[0] == live[vpn]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=70),
       st.sets(st.integers(0, 20), max_size=80),
       st.integers(0, 2))
def test_property_invalidate_leaf_equals_per_vpn_invalidate(fills, idxs,
                                                           leaf):
    """Dropping a leaf's vpns at once leaves the same entries, in the same
    FIFO order, as one invlpg per vpn — whether the batch is smaller than
    the TLB (pop each vpn) or larger (scan the TLB)."""
    batch, single = Tlb(capacity=16), Tlb(capacity=16)
    for vpn in fills:
        batch.fill(vpn, vpn, True)
        single.fill(vpn, vpn, True)
    base = leaf * 10
    batch.invalidate_leaf(base, idxs)
    for i in idxs:
        single.invalidate(base + i)
    assert list(batch._entries.items()) == list(single._entries.items())
