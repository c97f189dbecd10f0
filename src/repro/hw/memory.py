"""Physical memory: frame allocator, per-frame metadata, frame contents.

Frame *metadata* is columnar.  The owner column is an ``array('i')`` —
alloc/free/validation touch it one frame at a time on hot guest paths, and
a C-level scalar load is several times cheaper than boxing a numpy scalar —
with a zero-copy numpy view kept alongside for the whole-memory passes
(ownership scans for checkpoints and migration dirty-logging) and for
``free_many``'s batch pass.  The generation column stays a numpy array: it
is only read vectorized.

Frame *contents* are stored sparsely: the simulator only materializes the
content of frames someone actually writes (filesystem blocks, checkpoint
payloads, workload data).  Contents are opaque Python values; fidelity tests
round-trip them through checkpoints and migrations.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import InvalidPhysicalAddress, OutOfMemory
from repro.params import PAGE_SIZE

#: owner value for a free frame
OWNER_FREE = -1

#: smallest batch the numpy passes take, over page-table words (the VMM's
#: validation of a leaf and its region writes, fork's copy of a leaf,
#: teardown's gather) or over frame columns (the kernel's share counts,
#: :meth:`PhysicalMemory.free_many`): below it a pass's fixed cost, about
#: 5 µs of array set-up (15 µs for a release, which checks its batch twice),
#: exceeds the per-entry loop it replaces
LEAF_PASS_MIN = 64


def distinct_frames(frames: np.ndarray, num_frames: int) -> bool:
    """True when each of ``frames`` (int64) appears once and all lie in
    ``[0, num_frames)`` — the condition under which a numpy pass over a
    column equals the per-frame rules, where frames would interact or fail
    in order.  One sort finds both: a repeat shows as equal neighbours."""
    ordered = np.sort(frames)
    return not (ordered.size and (ordered[0] < 0 or ordered[-1] >= num_frames
                                  or (ordered[1:] == ordered[:-1]).any()))


def frame_batch(frames: Sequence[int], num_frames: int
                ) -> Optional[np.ndarray]:
    """``frames`` as one int64 array when a numpy pass over a frame column
    may take them: at least :data:`LEAF_PASS_MIN` frames, all
    :func:`distinct_frames`.  None otherwise — a small batch, a repeated
    frame, one out of range or a value that is not a frame number — and
    the caller keeps its per-frame rules, where such frames interact or
    fail in order."""
    if len(frames) < LEAF_PASS_MIN:
        return None
    try:
        batch = np.asarray(frames, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if batch.ndim != 1 or not distinct_frames(batch, num_frames):
        return None
    return batch


def frame_list(frames: Sequence[int]) -> Sequence[int]:
    """``frames`` as Python ints for a per-frame loop (an int64 array's
    scalars would leak into the recycle stack and from there into every
    frame number the allocator hands out)."""
    return frames.tolist() if isinstance(frames, np.ndarray) else frames


class PhysicalMemory:
    """All installed RAM, divided into 4 KiB frames."""

    def __init__(self, num_frames: int):
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        #: which domain/owner id holds each frame (OWNER_FREE if none)
        self.owner = array("i", [OWNER_FREE]) * num_frames
        #: zero-copy numpy view of :attr:`owner` for vectorized scans
        self.owner_np = np.frombuffer(self.owner, dtype=np.int32)
        #: bumped on every content write; migration uses it for dirty logging
        self.generation = np.zeros(num_frames, dtype=np.int64)
        # Free frames are represented implicitly: frames below the
        # ``_next_fresh`` watermark are allocated unless they sit on the
        # ``_recycled`` LIFO stack; frames at/above it are free.
        # Allocation order — freed frames LIFO-first, then the lowest
        # fresh frame — is deterministic and load-bearing: frame numbers
        # feed page-info columns and golden traces.
        self._recycled: list[int] = []
        self._next_fresh = 0
        self._contents: dict[int, object] = {}
        #: arbitrary structured occupants (e.g. PageTablePage objects),
        #: indexed by frame — the simulator's stand-in for "what these bytes
        #: mean when interpreted by hardware"
        self.frame_objects: dict[int, object] = {}

    # -- allocation -----------------------------------------------------

    def alloc(self, owner: int) -> int:
        """Allocate one frame to ``owner``; returns the frame number."""
        recycled = self._recycled
        if recycled:
            frame = recycled.pop()
        else:
            frame = self._next_fresh
            if frame >= self.num_frames:
                raise OutOfMemory("physical memory exhausted")
            self._next_fresh = frame + 1
        self.owner[frame] = owner
        return frame

    def next_frames(self, n: int) -> list[int]:
        """The frames the next ``n`` single-frame allocations would return,
        in order, without allocating (fewer if memory runs out first)."""
        frames = self._recycled[:-n - 1:-1] if n > 0 else []
        fresh = self._next_fresh
        frames.extend(range(fresh, min(fresh + n - len(frames),
                                       self.num_frames)))
        return frames

    def alloc_many(self, owner: int, n: int) -> list[int]:
        """Allocate ``n`` frames to ``owner`` in one pass: the same frames,
        in the same order, as ``n`` :meth:`alloc` calls; all or nothing."""
        if n > self.free_frames:
            raise OutOfMemory(f"requested {n} frames, {self.free_frames} free")
        frames = self.next_frames(n)
        recycled = self._recycled
        taken = min(len(recycled), len(frames))
        del recycled[len(recycled) - taken:]
        self._next_fresh += len(frames) - taken
        own = self.owner
        for frame in frames:
            own[frame] = owner
        return frames

    def free(self, frame: int) -> None:
        self._free_each((frame,))

    def free_many(self, frames: Sequence[int]) -> None:
        """Free a batch of frames in one pass, exactly as one :meth:`free`
        per frame in order: freed frames go onto the recycle stack in that
        order, and a bad frame (out of range, or already free — including
        one listed twice) raises after the frames before it were freed.

        A :func:`frame_batch` of allocated frames is checked and freed
        through :attr:`owner_np` in one numpy pass; any other batch, a bad
        frame in it included, takes :meth:`_free_each`, the per-frame rule
        the pass reproduces."""
        batch = frame_batch(frames, self.num_frames)
        if batch is None or (self.owner_np[batch] == OWNER_FREE).any():
            self._free_each(frame_list(frames))
            return
        self.owner_np[batch] = OWNER_FREE
        self._forget(frame_list(frames))

    def _free_each(self, frames: Sequence[int]) -> None:
        """:meth:`free_many` a frame at a time: the reference rules."""
        own = self.owner
        num = self.num_frames
        error = None
        for i, frame in enumerate(frames):
            if not 0 <= frame < num:
                error = f"frame {frame} out of range"
            elif own[frame] == OWNER_FREE:
                error = f"double free of frame {frame}"
            else:
                own[frame] = OWNER_FREE
                continue
            frames = frames[:i]
            break
        self._forget(frames)
        if error is not None:
            raise InvalidPhysicalAddress(error)

    def _forget(self, frames: list[int]) -> None:
        """The rest of freeing ``frames``, whose owners already read free:
        drop what the tables hold for them and push them onto the recycle
        stack in order."""
        # contents are written only by a COW copy of a written frame and a
        # checkpoint restore, and only page-table pages are frame objects:
        # drop just the frames each table holds
        for table in (self._contents, self.frame_objects):
            if table:
                for frame in table.keys() & frames:
                    del table[frame]
        self._recycled.extend(frames)

    def reassign(self, frame: int, new_owner: int) -> None:
        """Transfer ownership of a frame (used when a VMM claims frames of a
        formerly-native OS during self-virtualization)."""
        self._check(frame)
        if self.owner[frame] == OWNER_FREE:
            raise InvalidPhysicalAddress(f"reassigning free frame {frame}")
        self.owner[frame] = new_owner

    @property
    def free_frames(self) -> int:
        return self.num_frames - self._next_fresh + len(self._recycled)

    def frames_owned_by(self, owner: int) -> np.ndarray:
        """All frame numbers currently owned by ``owner`` (vectorized)."""
        return np.flatnonzero(self.owner_np == owner)

    # -- contents ----------------------------------------------------------

    def write(self, frame: int, value: object) -> None:
        self._check_allocated(frame)
        self._contents[frame] = value
        self.generation[frame] += 1

    def read(self, frame: int) -> object:
        self._check_allocated(frame)
        return self._contents.get(frame)

    def written_frames(self) -> Iterator[int]:
        return iter(self._contents)

    # -- validation ----------------------------------------------------------

    def _check(self, frame: int) -> None:
        if not (0 <= frame < self.num_frames):
            raise InvalidPhysicalAddress(f"frame {frame} out of range")

    def _check_allocated(self, frame: int) -> None:
        self._check(frame)
        if self.owner[frame] == OWNER_FREE:
            raise InvalidPhysicalAddress(f"frame {frame} is not allocated")

    def owner_of(self, frame: int) -> int:
        self._check(frame)
        return int(self.owner[frame])

    # -- snapshots (checkpoint/migration substrate) ---------------------------

    def snapshot_owner_frames(self, owner: int) -> dict[int, object]:
        """Copy the contents of every frame held by ``owner``."""
        out: dict[int, object] = {}
        for frame in self.frames_owned_by(owner):
            f = int(frame)
            out[f] = self._contents.get(f)
        return out

    def generation_of(self, frames: np.ndarray) -> np.ndarray:
        return self.generation[frames]
