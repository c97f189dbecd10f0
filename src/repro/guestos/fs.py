"""VFS + an ext3-like journaling filesystem with a buffer cache.

Structure mirrors what dbench and OSDB exercise on the paper's testbed
(ext3 on a SCSI disk, §7.1): path resolution, inodes with block lists, a
write-back buffer cache, and a metadata journal whose commits are what
fsync pays for.

Block I/O leaves through ``kernel.block_read/block_write``, which route to
whichever block driver is installed — the native driver (direct device
access through the VO) or the para-virtual frontend (ring to the driver
domain's backend).  The same filesystem code therefore produces the
native/dom0/domU performance split of Fig. 3 by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import FileSystemError
from repro.params import PAGE_SIZE

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: filesystem block size (one disk block, 4 KiB)
BLOCK_SIZE = 4096
#: buffer-cache capacity in blocks (256 MiB worth on the paper's box, but
#: scaled down; what matters is hit/miss behaviour under the workloads)
CACHE_BLOCKS = 4096


@dataclass
class Inode:
    path: str
    size: int = 0
    blocks: list[int] = field(default_factory=list)
    nlink: int = 1
    generation: int = 0


class BufferCache:
    """Write-back LRU block cache."""

    def __init__(self, capacity: int = CACHE_BLOCKS):
        self.capacity = capacity
        self._cache: OrderedDict[int, object] = OrderedDict()
        self.dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    def get(self, block: int) -> tuple[bool, object]:
        if block in self._cache:
            self._cache.move_to_end(block)
            self.hits += 1
            return True, self._cache[block]
        self.misses += 1
        return False, None

    def put(self, block: int, data: object, dirty: bool) -> list[tuple[int, object]]:
        """Insert a block; returns evicted dirty blocks that must be
        written back."""
        evicted: list[tuple[int, object]] = []
        if block in self._cache:
            self._cache.move_to_end(block)
        self._cache[block] = data
        if dirty:
            self.dirty.add(block)
        while len(self._cache) > self.capacity:
            old_block, old_data = self._cache.popitem(last=False)
            if old_block in self.dirty:
                self.dirty.discard(old_block)
                evicted.append((old_block, old_data))
        return evicted

    def pop_dirty(self) -> list[tuple[int, object]]:
        out = [(b, self._cache[b]) for b in sorted(self.dirty) if b in self._cache]
        self.dirty.clear()
        return out

    def invalidate(self) -> None:
        self._cache.clear()
        self.dirty.clear()


class FileSystem:
    """The mounted filesystem instance."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.inodes: dict[str, Inode] = {}
        self.cache = BufferCache()
        self._next_block = 1024  # blocks below are superblock/journal area
        self.journal_commits = 0

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------

    def open_check(self, cpu: "Cpu", path: str, create: bool) -> Inode:
        cpu.charge(cpu.cost.cyc_fs_op_fixed)
        inode = self.inodes.get(path)
        if inode is None:
            if not create:
                raise FileSystemError(f"no such file: {path}")
            inode = Inode(path)
            self.inodes[path] = inode
            self._journal(cpu)
        return inode

    def unlink(self, cpu: "Cpu", path: str) -> None:
        cpu.charge(cpu.cost.cyc_fs_op_fixed)
        inode = self._inode(path)
        inode.nlink -= 1
        if inode.nlink == 0:
            del self.inodes[path]
        self._journal(cpu)

    def stat(self, cpu: "Cpu", path: str) -> dict:
        cpu.charge(cpu.cost.cyc_fs_op_fixed)
        inode = self._inode(path)
        return {"size": inode.size, "blocks": len(inode.blocks),
                "nlink": inode.nlink}

    def exists(self, path: str) -> bool:
        return path in self.inodes

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------

    def read(self, cpu: "Cpu", path: str, offset: int,
             nbytes: int) -> tuple[list[object], int]:
        """Read up to ``nbytes`` from ``offset``; returns (block datas,
        bytes advanced)."""
        cost = cpu.cost
        cpu.clock.cycles += cost.cyc_fs_op_fixed
        inode = self._inode(path)
        if offset >= inode.size:
            return [], 0
        nbytes = min(nbytes, inode.size - offset)
        first = offset // BLOCK_SIZE
        last = (offset + nbytes - 1) // BLOCK_SIZE
        cyc_copy = cost.cyc_mem_touch_per_kb * (BLOCK_SIZE // 1024)
        out = []
        for idx in range(first, last + 1):
            block = inode.blocks[idx]
            hit, data = self.cache.get(block)
            if not hit:
                data = self.kernel.block_read(cpu, block)
                for evb, evd in self.cache.put(block, data, dirty=False):
                    self.kernel.block_write(cpu, evb, evd)
            # copying the block to the user buffer
            cpu.clock.cycles += cyc_copy
            out.append(data)
        return out, nbytes

    def write(self, cpu: "Cpu", path: str, offset: int, data: object,
              nbytes: int) -> int:
        """Write ``nbytes`` at ``offset`` (write-back through the cache)."""
        cpu.charge(cpu.cost.cyc_fs_op_fixed)
        inode = self._inode(path)
        end = offset + nbytes
        while len(inode.blocks) * BLOCK_SIZE < end:
            inode.blocks.append(self._alloc_block())
            self._journal(cpu)  # block allocation is a metadata change
        first = offset // BLOCK_SIZE
        last = (end - 1) // BLOCK_SIZE
        for idx in range(first, last + 1):
            block = inode.blocks[idx]
            cpu.charge(cpu.cost.cyc_mem_touch_per_kb * (BLOCK_SIZE // 1024))
            for evb, evd in self.cache.put(block, data, dirty=True):
                self.kernel.block_write(cpu, evb, evd)
        if end > inode.size:
            inode.size = end
        inode.generation += 1
        return nbytes

    def fsync(self, cpu: "Cpu", path: str) -> None:
        """Flush the file's dirty blocks and commit the journal."""
        cpu.charge(cpu.cost.cyc_fs_op_fixed)
        inode = self._inode(path)
        mine = set(inode.blocks)
        batch = []
        for block, data in self.cache.pop_dirty():
            if block in mine:
                batch.append((block, data))
            else:
                self.cache.dirty.add(block)  # keep others dirty
        if batch:
            # one batched submission — a split-driver ring carries the
            # whole file's dirty set behind a single doorbell
            self.kernel.block_write_many(cpu, batch)
        cpu.charge(cpu.cost.cyc_journal_commit)
        self.journal_commits += 1
        self.kernel.block_flush(cpu)

    def writeback(self, cpu: "Cpu", max_blocks: int = 4) -> int:
        """Background writeback (pdflush-style): push up to ``max_blocks``
        of the oldest dirty blocks to the device, no journal commit."""
        victims = sorted(self.cache.dirty)[:max_blocks]
        if not victims:
            return 0
        batch = []
        for block in victims:
            self.cache.dirty.discard(block)
            hit, data = self.cache.get(block)
            if hit:
                batch.append((block, data))
        if batch:
            self.kernel.block_write_many(cpu, batch)
        return len(batch)

    def sync_all(self, cpu: "Cpu") -> int:
        """Flush every dirty block (periodic writeback / unmount)."""
        batch = list(self.cache.pop_dirty())
        flushed = len(batch)
        if batch:
            self.kernel.block_write_many(cpu, batch)
        if flushed:
            cpu.charge(cpu.cost.cyc_journal_commit)
            self.journal_commits += 1
        self.kernel.block_flush(cpu)
        return flushed

    # ------------------------------------------------------------------

    def _inode(self, path: str) -> Inode:
        inode = self.inodes.get(path)
        if inode is None:
            raise FileSystemError(f"no such file: {path}")
        return inode

    def _alloc_block(self) -> int:
        block = self._next_block
        self._next_block += 1
        return block

    def _journal(self, cpu: "Cpu") -> None:
        """Record a metadata change; the cost of the *commit* is charged at
        fsync/sync time, a cheap in-memory append here."""
        cpu.charge(50)
