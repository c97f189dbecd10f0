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


class _PerFrameMemory:
    """Reference allocator: one frame per step, freed frames pushed onto a
    LIFO recycle stack and reused before the lowest fresh frame."""

    def __init__(self, num_frames):
        self.num_frames = num_frames
        self.owner = [OWNER_FREE] * num_frames
        self.recycled = []
        self.next_fresh = 0
        self.contents = {}
        self.frame_objects = {}

    @property
    def free_frames(self):
        return self.num_frames - self.next_fresh + len(self.recycled)

    def alloc(self, owner):
        if self.recycled:
            frame = self.recycled.pop()
        elif self.next_fresh < self.num_frames:
            frame = self.next_fresh
            self.next_fresh += 1
        else:
            raise OutOfMemory("physical memory exhausted")
        self.owner[frame] = owner
        return frame

    def alloc_many(self, owner, n):
        if n > self.free_frames:
            raise OutOfMemory(f"requested {n} frames, {self.free_frames} free")
        return [self.alloc(owner) for _ in range(n)]

    def free(self, frame):
        if not 0 <= frame < self.num_frames:
            raise InvalidPhysicalAddress(f"frame {frame} out of range")
        if self.owner[frame] == OWNER_FREE:
            raise InvalidPhysicalAddress(f"double free of frame {frame}")
        self.owner[frame] = OWNER_FREE
        self.contents.pop(frame, None)
        self.frame_objects.pop(frame, None)
        self.recycled.append(frame)

    def free_many(self, frames):
        for frame in frames:
            self.free(frame)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (OutOfMemory, InvalidPhysicalAddress) as exc:
        return type(exc), str(exc)


_ALLOC_OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 3)),
    st.tuples(st.just("alloc_many"), st.integers(0, 3), st.integers(0, 20)),
    # frames to free, picked by position in the held list; -1 picks an
    # out-of-range frame, a repeated position frees a frame twice
    st.tuples(st.just("free"), st.integers(-1, 40)),
    st.tuples(st.just("free_many"), st.lists(st.integers(-1, 40),
                                             max_size=12)),
    st.tuples(st.just("write"), st.integers(0, 40)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ALLOC_OPS, max_size=40))
def test_property_batch_ops_match_per_frame_reference(ops):
    """Any interleaving of alloc, alloc_many, free and free_many gives the
    per-frame reference's frame numbers, recycle stack, owner column, free
    count, contents and frame objects — a bad frame in a free_many batch
    raising after exactly the frames before it were freed."""
    mem, ref = PhysicalMemory(24), _PerFrameMemory(24)
    held = []

    def pick(pos):
        if pos < 0 or not held:
            return 24 + pos + 1   # out of range
        return held[pos % len(held)]

    for op in ops:
        if op[0] == "alloc":
            got = _outcome(mem.alloc, op[1])
            assert got == _outcome(ref.alloc, op[1])
            if isinstance(got, int):
                held.append(got)
        elif op[0] == "alloc_many":
            got = _outcome(mem.alloc_many, op[1], op[2])
            assert got == _outcome(ref.alloc_many, op[1], op[2])
            if isinstance(got, list):
                held.extend(got)
        elif op[0] == "free":
            frame = pick(op[1])
            assert _outcome(mem.free, frame) == _outcome(ref.free, frame)
        elif op[0] == "free_many":
            frames = [pick(pos) for pos in op[1]]
            assert (_outcome(mem.free_many, frames)
                    == _outcome(ref.free_many, frames))
        elif held:
            frame = pick(op[1])
            if ref.owner[frame] != OWNER_FREE:
                mem.write(frame, ("data", frame))
                mem.frame_objects[frame] = ("object", frame)
                ref.contents[frame] = ("data", frame)
                ref.frame_objects[frame] = ("object", frame)
        held = [f for f in held if ref.owner[f] != OWNER_FREE]
        assert mem._recycled == ref.recycled
        assert list(mem.owner) == ref.owner
        assert mem.free_frames == ref.free_frames
        assert dict(mem._contents) == ref.contents
        assert list(mem._contents) == list(ref.contents)
        assert mem.frame_objects == ref.frame_objects


@pytest.mark.parametrize("bad", ["double", "range"])
def test_free_many_bad_frame_frees_exactly_the_frames_before_it(bad):
    mem = PhysicalMemory(8)
    frames = mem.alloc_many(0, 5)
    for f in frames:
        mem.write(f, f)
    victim = frames[1] if bad == "double" else 99
    batch = frames[:3] + [victim] + frames[3:]
    with pytest.raises(InvalidPhysicalAddress):
        mem.free_many(batch)
    assert mem._recycled == frames[:3]
    assert [mem.owner_of(f) for f in frames] == [OWNER_FREE] * 3 + [0, 0]
    assert set(mem.written_frames()) == set(frames[3:])


def test_next_frames_previews_allocation_order():
    mem = PhysicalMemory(8)
    frames = mem.alloc_many(0, 6)
    mem.free_many([frames[4], frames[1]])
    assert mem.next_frames(4) == [frames[1], frames[4], 6, 7]
    assert mem.next_frames(9) == [frames[1], frames[4], 6, 7]
    assert mem.alloc_many(2, 4) == [frames[1], frames[4], 6, 7]
    assert mem.free_frames == 0
