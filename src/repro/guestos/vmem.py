"""Virtual memory: vm areas, demand paging, copy-on-write, mmap.

The fault path here is the one lmbench's "Page Fault" and "Prot Fault" rows
measure, and mmap/munmap is the "Mmap LT" row.  All PTE manipulation goes
through the installed VO; frame share counts (for COW sharing) are the
kernel's own bookkeeping and mode-independent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import PageFault, SyscallError
from repro.hw.memory import frame_batch, frame_list
from repro.hw.paging import (PTE_COW, PTE_FRAME_SHIFT, PTE_P, PTE_U, PTE_W,
                             pte, vpn_split)
from repro.params import PAGE_SIZE, PT_ENTRIES

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.process import Task
    from repro.hw.cpu import Cpu

#: base of the mmap area in each address space
MMAP_BASE = 0x4000_0000
#: base of the text/data image
IMAGE_BASE = 0x0040_0000


@dataclass
class Vma:
    """One virtual memory area."""

    start: int
    end: int                  # exclusive
    writable: bool = True
    user: bool = True
    name: str = "anon"

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def clone(self) -> "Vma":
        return replace(self)


class VirtualMemory:
    """The kernel's VM subsystem."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        # frame -> COW share count (Linux's page->_mapcount), a column
        # indexed by frame and sized to the kernel's machine; 0 means no
        # task maps the frame (untracked), and the lifecycle's batches
        # read and write it through the zero-copy numpy view
        self._shares = array("i", [0]) * kernel.machine.memory.num_frames
        self._shares_np = np.frombuffer(self._shares, dtype=np.int32)
        self.minor_faults = 0
        self.cow_breaks = 0
        self.prot_faults = 0
        self.oom_kills = 0

    # ------------------------------------------------------------------
    # OOM handling
    # ------------------------------------------------------------------

    def _alloc_or_reclaim(self, cpu: "Cpu", task: "Task") -> int:
        """Allocate a frame; under memory pressure, run the OOM killer:
        sacrifice the largest *other* task and retry (Linux's badness
        heuristic, simplified to resident size)."""
        from repro.errors import OutOfMemory
        mem = self.kernel.machine.memory
        while True:
            try:
                return mem.alloc(self.kernel.owner_id)
            except OutOfMemory:
                victim = self._pick_oom_victim(exclude=task)
                if victim is None:
                    raise
                cpu.charge(cpu.cost.cyc_fault_handler_fixed)
                self.oom_kills += 1
                self.kernel.procs.exit(cpu, victim, 137)  # 128 + SIGKILL

    def _pick_oom_victim(self, exclude) -> "Task":
        from repro.guestos.process import TaskState
        candidates = [
            t for t in self.kernel.procs.live_tasks()
            if t is not exclude and t is not self.kernel.scheduler.current
            and t.pid != 1  # init is unkillable
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda t: t.aspace.mapped_count())

    # ------------------------------------------------------------------
    # frame sharing bookkeeping
    # ------------------------------------------------------------------

    def claim_frame(self, frame: int) -> None:
        self._shares[frame] = 1

    def claim_frames(self, frames: list) -> None:
        """One share on each frame of a freshly allocated run, in one
        column store."""
        self._shares_np[frames] = 1

    def release_frame(self, cpu: "Cpu", frame: int) -> None:
        self._release_each((frame,))

    def release_frames(self, cpu: "Cpu", frames) -> None:
        """Drop one share on each of ``frames`` (teardown/munmap bulk
        path), then free the frames left with none in one ``free_many``,
        in input order — the allocator's LIFO recycle order, and so every
        later frame number, follows it.  A frame no task tracked counts as
        one share.  A :func:`~repro.hw.memory.frame_batch` is one numpy
        pass over the column; any other batch takes :meth:`_release_each`,
        the per-frame rules the pass reproduces."""
        batch = frame_batch(frames, len(self._shares))
        if batch is None:
            self._release_each(frame_list(frames))
            return
        shares = self._shares_np
        counts = shares[batch]
        dead = counts <= 1
        shares[batch] = np.where(dead, 0, counts - 1)
        if dead.any():
            self.kernel.machine.memory.free_many(batch[dead])

    def _release_each(self, frames: list) -> None:
        """:meth:`release_frames` a frame at a time: the reference rules.
        A frame beyond the column is untracked, and ``free_many`` raises
        for it after freeing the dead frames before it."""
        shares = self._shares
        limit = len(shares)
        dead = []
        for frame in frames:
            if 0 <= frame < limit:
                refs = shares[frame]
                if refs > 1:
                    shares[frame] = refs - 1
                    continue
                shares[frame] = 0
            dead.append(frame)
        if dead:
            self.kernel.machine.memory.free_many(dead)

    def take_shares(self, frames) -> None:
        """Fork's side: one more share on each of ``frames`` (a child
        mapping them too; an untracked frame goes to two).  A
        :func:`~repro.hw.memory.frame_batch` is one numpy pass; any other
        batch takes :meth:`_take_each`."""
        batch = frame_batch(frames, len(self._shares))
        if batch is None:
            self._take_each(frame_list(frames))
            return
        shares = self._shares_np
        counts = shares[batch]
        shares[batch] = np.where(counts == 0, 2, counts + 1)

    def _take_each(self, frames: list) -> None:
        """:meth:`take_shares` a frame at a time: the reference rules (a
        frame beyond the column stays untracked)."""
        shares = self._shares
        limit = len(shares)
        for frame in frames:
            if 0 <= frame < limit:
                shares[frame] = (shares[frame] or 1) + 1

    def frame_refs(self, frame: int) -> int:
        """``frame``'s share count; 0 when no task maps it."""
        return self._shares[frame] if 0 <= frame < len(self._shares) else 0

    def shares(self) -> dict[int, int]:
        """Every tracked frame's share count, ``{frame: count}`` in frame
        order (what the refcount law, the healer and a checkpoint read)."""
        frames = np.flatnonzero(self._shares_np)
        return dict(zip(frames.tolist(), self._shares_np[frames].tolist()))

    def set_shares(self, counts: dict[int, int]) -> None:
        """Replace every share count with ``counts`` (a frame it leaves
        out becomes untracked; ``{}`` clears them all)."""
        self._shares_np[:] = 0
        for frame, refs in counts.items():
            self._shares[frame] = refs

    # ------------------------------------------------------------------
    # mapping
    # ------------------------------------------------------------------

    def map_image(self, cpu: "Cpu", task: "Task", pages: int) -> None:
        """Map and populate a process image (text+data+stack), as exec
        does.  Populated eagerly — image pages are read from the (cached)
        executable, not demand-zeroed."""
        vma = Vma(IMAGE_BASE, IMAGE_BASE + pages * PAGE_SIZE, name="image")
        task.vmas.append(vma)
        mem = self.kernel.machine.memory
        # per-page: one frame alloc plus copying the image page from the
        # (warm) page cache; charged in one lump for the populated range
        per_page = cpu.cost.cyc_page_alloc + cpu.cost.cyc_mem_touch_per_kb * 4
        frames = mem.alloc_many(self.kernel.owner_id, pages)
        cpu.charge(per_page * pages)
        self.claim_frames(frames)
        self.map_run(cpu, task, vma.start, frames, writable=True)

    def map_run(self, cpu: "Cpu", task: "Task", base: int, frames: list,
                writable: bool) -> None:
        """Map ``frames`` at consecutive pages from ``base`` as one region
        write, a leaf at a time (image, mmap populate and balloon regions).
        The run's PTE words are built in one numpy pass and dealt out to
        the leaves in order."""
        flags = PTE_P | PTE_U | (PTE_W if writable else 0)
        words = iter((np.asarray(frames, dtype=np.int64) << PTE_FRAME_SHIFT
                      | flags).tolist())
        leaves = []
        vpn = base // PAGE_SIZE
        done = 0
        while done < len(frames):
            pgd_idx, idx = divmod(vpn + done, PT_ENTRIES)
            take = min(len(frames) - done, PT_ENTRIES - idx)
            # zip stops at the end of the range before it takes a word
            leaves.append((pgd_idx, dict(zip(range(idx, idx + take), words))))
            done += take
        self.kernel.vo.apply_pte_region(cpu, task.aspace, leaves)

    def mmap(self, cpu: "Cpu", task: "Task", length: int, *,
             writable: bool = True, populate: bool = False,
             name: str = "anon") -> int:
        """Create a new anonymous mapping; returns its base address."""
        if length <= 0:
            raise SyscallError("EINVAL", "mmap length must be positive")
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        base = self._find_hole(task, pages)
        vma = Vma(base, base + pages * PAGE_SIZE, writable=writable, name=name)
        task.vmas.append(vma)
        if populate:
            mem = self.kernel.machine.memory
            # per-page: one frame alloc plus MAP_POPULATE zeroing/copying
            # the page in; charged in one lump for the whole range
            per_page = (cpu.cost.cyc_page_alloc
                        + cpu.cost.cyc_mem_touch_per_kb * 4)
            frames = mem.alloc_many(self.kernel.owner_id, pages)
            cpu.charge(per_page * pages)
            self.claim_frames(frames)
            self.map_run(cpu, task, base, frames, writable)
        return base

    def munmap(self, cpu: "Cpu", task: "Task", base: int, length: int) -> None:
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        end = base + pages * PAGE_SIZE
        vma = self._vma_at(task, base)
        if vma is None or vma.start != base or vma.end != end:
            raise SyscallError("EINVAL", f"munmap of unmapped range {base:#x}")
        task.vmas.remove(vma)
        # clear the range's present entries a leaf at a time, in vpn order;
        # each leaf's range is one pass over its words (an empty slot reads
        # as the non-present word 0), its frames one int64 array
        leaves = []
        freed = []
        pgd_entries = task.aspace.pgd.entries
        vpn = base // PAGE_SIZE
        end_vpn = vpn + pages
        while vpn < end_vpn:
            pgd_idx, lo = divmod(vpn, PT_ENTRIES)
            hi = min(end_vpn - pgd_idx * PT_ENTRIES, PT_ENTRIES)
            vpn = (pgd_idx + 1) * PT_ENTRIES
            leaf = pgd_entries.get(pgd_idx)
            if leaf is None:
                continue
            words = np.fromiter(map(leaf.entries.get, range(lo, hi),
                                    repeat(0)), np.int64, hi - lo)
            present = words & PTE_P != 0
            hits = (range(lo, hi) if present.all()
                    else (np.flatnonzero(present) + lo).tolist())
            freed.append(words[present] >> PTE_FRAME_SHIFT)
            if hits:
                leaves.append((pgd_idx, dict.fromkeys(hits)))
        self.kernel.vo.apply_pte_region(cpu, task.aspace, leaves)
        self.release_frames(cpu, np.concatenate(freed) if freed else freed)

    def steal_page(self, cpu: "Cpu", task: "Task", vaddr: int) -> Optional[int]:
        """Balloon-driver path: detach one mapped page from ``task`` and
        return its frame *without* freeing it — the caller (the balloon
        frontend) surrenders the frame to the host through the grant
        mechanism, so ownership must still read as this kernel when the
        backend verifies the grant.  The vaddr stays inside its VMA and
        faults back in (a fresh demand-zero frame) on the next touch —
        which is exactly the victim-page fault the hypervisor-driven
        reclaim ablation measures.  Returns None if nothing was mapped.
        The caller asks :meth:`frame_refs` first: a shared frame is not
        ``task``'s to give."""
        pte = task.aspace.get_pte(vaddr)
        if pte is None or not pte & PTE_P:
            return None
        frame = pte >> PTE_FRAME_SHIFT
        self.kernel.vo.clear_pte(cpu, task.aspace, vaddr)
        self._shares[frame] = 0
        return frame

    def brk(self, cpu: "Cpu", task: "Task", new_brk: int) -> int:
        """Grow (only) the heap; pages appear on demand."""
        if new_brk <= task.brk:
            return task.brk
        vma = Vma(task.brk, new_brk, name="heap")
        task.vmas.append(vma)
        task.brk = new_brk
        return new_brk

    # ------------------------------------------------------------------
    # memory access + fault handling
    # ------------------------------------------------------------------

    def access(self, cpu: "Cpu", task: "Task", vaddr: int, *,
               write: bool) -> int:
        """One user memory access: TLB, hardware walk, fault service.

        Returns the frame backing the access."""
        vpn = vaddr // PAGE_SIZE
        hit = cpu.tlb.lookup(vpn)
        if hit is not None and (not write or hit[1]):
            return hit[0]
        while True:
            try:
                pte = task.aspace.walk(vaddr, write=write, user=True)
                cpu.charge(cpu.cost.cyc_tlb_refill_per_page)
                frame = pte >> PTE_FRAME_SHIFT
                cpu.tlb.fill(vpn, frame, pte & PTE_W != 0)
                return frame
            except PageFault as fault:
                self.handle_fault(cpu, task, fault)

    def handle_fault(self, cpu: "Cpu", task: "Task", fault: PageFault) -> None:
        """The kernel page-fault handler (demand paging, COW, protection)."""
        kernel = self.kernel
        kernel.vo.fault_entry(cpu)
        cpu.charge(cpu.cost.cyc_fault_handler_fixed)
        if kernel.machine.config.num_cpus > 1:
            cpu.charge(cpu.cost.cyc_smp_fault_extra)  # mmap_sem contention
        vaddr = fault.vaddr & ~(PAGE_SIZE - 1)
        vma = self._vma_at(task, vaddr)
        if vma is None:
            self.prot_faults += 1
            kernel.vo.kernel_exit(cpu)
            self._sigsegv(cpu, task, fault.vaddr,
                          f"segfault at {fault.vaddr:#x}")

        pte = task.aspace.get_pte(vaddr)
        present = pte is not None and pte & PTE_P
        if present and fault.write and pte & PTE_COW:
            self._break_cow(cpu, task, vaddr, pte)
        elif present and fault.write and not pte & PTE_W:
            # genuine protection fault (mprotect'd page): deliver SIGSEGV
            self.prot_faults += 1
            kernel.vo.kernel_exit(cpu)
            self._sigsegv(cpu, task, fault.vaddr,
                          f"write to protected page {vaddr:#x}")
        elif not present:
            self._demand_page(cpu, task, vaddr, vma)
        kernel.vo.kernel_exit(cpu)

    def _demand_page(self, cpu: "Cpu", task: "Task", vaddr: int, vma: Vma) -> None:
        mem = self.kernel.machine.memory
        frame = self._alloc_or_reclaim(cpu, task)
        cpu.charge(cpu.cost.cyc_page_alloc)
        # zeroing the new page: 4 KiB of memory touch
        cpu.charge(cpu.cost.cyc_mem_touch_per_kb * 4)
        if self.kernel.vo.is_virtual:
            # secondary cache/iTLB damage of a VMM-mediated fault fixup
            cpu.charge(cpu.cost.cyc_virt_fault_penalty)
        self.claim_frame(frame)
        self.kernel.vo.set_pte(cpu, task.aspace, vaddr,
                               pte(frame, writable=vma.writable))
        self.minor_faults += 1

    def _break_cow(self, cpu: "Cpu", task: "Task", vaddr: int,
                   word: int) -> None:
        mem = self.kernel.machine.memory
        if self.kernel.vo.is_virtual:
            cpu.charge(cpu.cost.cyc_virt_fault_penalty)
        frame = word >> PTE_FRAME_SHIFT
        if self.frame_refs(frame) > 1:
            new_frame = mem.alloc(self.kernel.owner_id)
            cpu.charge(cpu.cost.cyc_page_alloc)
            cpu.charge(cpu.cost.cyc_cow_copy_page)
            content = mem.read(frame) if mem.owner_of(frame) >= 0 else None
            if content is not None:
                mem.write(new_frame, content)
            self.claim_frame(new_frame)
            self.release_frame(cpu, frame)
            self.kernel.vo.set_pte(cpu, task.aspace, vaddr,
                                   pte(new_frame, writable=True))
        else:
            # last reference: just make it writable again
            pgd_idx, idx = vpn_split(vaddr)
            self.kernel.vo.update_pte_flags(cpu, task.aspace, pgd_idx, (idx,),
                                            writable=True, cow=False)
        self.cow_breaks += 1

    def _sigsegv(self, cpu: "Cpu", task: "Task", vaddr: int,
                 message: str) -> None:
        """Deliver SIGSEGV: a registered handler runs (and the faulting
        access is abandoned, as via longjmp); otherwise the default action
        surfaces as the classic SyscallError."""
        from repro.errors import SignalDelivered
        from repro.guestos.ipc import SIGSEGV
        if self.kernel.ipc.deliver(cpu, task, SIGSEGV, info=vaddr):
            raise SignalDelivered(SIGSEGV, vaddr)
        raise SyscallError("SIGSEGV", message)

    def mprotect(self, cpu: "Cpu", task: "Task", base: int, length: int,
                 writable: bool) -> None:
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        vma = self._vma_at(task, base)
        if vma is None:
            raise SyscallError("EINVAL", f"mprotect of unmapped {base:#x}")
        vma.writable = writable
        # batched like Linux's change_protection: one lazy-MMU region over
        # the whole range instead of a trap per PTE
        with self.kernel.lazy_mmu(cpu):
            for i in range(pages):
                vaddr = base + i * PAGE_SIZE
                pte = task.aspace.get_pte(vaddr)
                if pte is not None and pte & PTE_P:
                    pgd_idx, idx = vpn_split(vaddr)
                    self.kernel.vo.update_pte_flags(cpu, task.aspace, pgd_idx,
                                                    (idx,), writable=writable)

    # ------------------------------------------------------------------

    def _vma_at(self, task: "Task", vaddr: int) -> Optional[Vma]:
        for vma in task.vmas:
            if vma.contains(vaddr):
                return vma
        return None

    def _find_hole(self, task: "Task", pages: int) -> int:
        """First-fit search in the mmap area."""
        base = MMAP_BASE
        need = pages * PAGE_SIZE
        occupied = sorted((v.start, v.end) for v in task.vmas
                          if v.start >= MMAP_BASE)
        for start, end in occupied:
            if base + need <= start:
                return base
            base = max(base, end)
        return base
