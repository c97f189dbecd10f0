"""Physical memory: allocation, ownership, contents, dirty generations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidPhysicalAddress, OutOfMemory
from repro.hw.memory import OWNER_FREE, PhysicalMemory


def test_alloc_assigns_owner():
    mem = PhysicalMemory(16)
    f = mem.alloc(owner=3)
    assert mem.owner_of(f) == 3
    assert mem.free_frames == 15


def test_alloc_is_deterministic_lowest_first():
    mem = PhysicalMemory(16)
    assert mem.alloc(0) == 0
    assert mem.alloc(0) == 1


def test_free_returns_frame():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.free(f)
    assert mem.free_frames == 4
    assert mem.owner_of(f) == OWNER_FREE


def test_double_free_rejected():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.free(f)
    with pytest.raises(InvalidPhysicalAddress):
        mem.free(f)


def test_exhaustion_raises_oom():
    mem = PhysicalMemory(2)
    mem.alloc(0)
    mem.alloc(0)
    with pytest.raises(OutOfMemory):
        mem.alloc(0)


def test_alloc_many_all_or_nothing():
    mem = PhysicalMemory(4)
    with pytest.raises(OutOfMemory):
        mem.alloc_many(0, 5)
    assert mem.free_frames == 4  # nothing leaked


def test_write_read_roundtrip():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.write(f, {"payload": 1})
    assert mem.read(f) == {"payload": 1}


def test_write_to_free_frame_rejected():
    mem = PhysicalMemory(4)
    with pytest.raises(InvalidPhysicalAddress):
        mem.write(0, "x")


def test_generation_bumps_on_write():
    """Migration's dirty logging depends on the per-frame generation."""
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    g0 = int(mem.generation[f])
    mem.write(f, "a")
    mem.write(f, "b")
    assert int(mem.generation[f]) == g0 + 2


def test_free_clears_contents():
    mem = PhysicalMemory(4)
    f = mem.alloc(0)
    mem.write(f, "secret")
    mem.free(f)
    f2 = mem.alloc(1)
    assert f2 == f  # frame reused
    assert mem.read(f2) is None  # no data leak across owners


def test_frames_owned_by():
    mem = PhysicalMemory(8)
    a = mem.alloc(1)
    b = mem.alloc(2)
    c = mem.alloc(1)
    owned = set(int(x) for x in mem.frames_owned_by(1))
    assert owned == {a, c}


def test_reassign_transfers_ownership():
    mem = PhysicalMemory(4)
    f = mem.alloc(1)
    mem.reassign(f, 2)
    assert mem.owner_of(f) == 2


def test_reassign_free_frame_rejected():
    mem = PhysicalMemory(4)
    with pytest.raises(InvalidPhysicalAddress):
        mem.reassign(0, 2)


def test_snapshot_owner_frames():
    mem = PhysicalMemory(8)
    f1 = mem.alloc(1)
    f2 = mem.alloc(1)
    mem.alloc(2)
    mem.write(f1, "one")
    snap = mem.snapshot_owner_frames(1)
    assert snap == {f1: "one", f2: None}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["alloc", "free"]), max_size=60))
def test_property_alloc_free_conserves_frames(ops):
    """No sequence of allocs/frees loses or duplicates frames."""
    mem = PhysicalMemory(16)
    held: list[int] = []
    for op in ops:
        if op == "alloc" and mem.free_frames:
            held.append(mem.alloc(0))
        elif op == "free" and held:
            mem.free(held.pop())
    assert mem.free_frames + len(held) == 16
    assert len(set(held)) == len(held)  # no frame handed out twice
