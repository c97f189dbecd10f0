"""Tasks and process lifecycle: fork / exec / exit / wait.

Process creation is the most virtualization-sensitive path in the kernel —
the paper's Table 1 shows fork ~5x slower under Xen — because it is made of
page-table work: building the child's tables, marking both copies
copy-on-write, and (in virtual mode) getting every new page-table page
validated by the VMM.  All of that goes through the installed VO here, so
the native/virtual cost difference *emerges* rather than being hard-coded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Optional

from repro.errors import NoSuchProcess, SyscallError
from repro.hw.memory import LEAF_PASS_MIN
from repro.hw.paging import (PTE_COW, PTE_FRAME_SHIFT, PTE_P, PTE_W,
                             AddressSpace, word_array)

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.vmem import Vma
    from repro.hw.cpu import Cpu


class TaskState(enum.Enum):
    RUNNING = "running"
    READY = "ready"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


@dataclass(eq=False)
class Task:
    """One process (single-threaded; lmbench's benchmarks are).  Tasks
    compare by identity: two processes with equal fields are still two."""

    pid: int
    name: str
    aspace: AddressSpace
    state: TaskState = TaskState.READY
    parent: Optional["Task"] = None
    children: list["Task"] = field(default_factory=list)
    exit_code: Optional[int] = None
    #: memory layout
    vmas: list = field(default_factory=list)
    brk: int = 0x0800_0000
    #: the code/data segment selectors cached on this task's kernel stack by
    #: its last interrupt frame (§5.1.2: these embed the privilege level and
    #: must be fixed up when a mode switch changes the kernel's PL)
    stack_cached_selector_dpl: Optional[int] = None
    #: open file descriptors: fd -> (file name, offset)
    fds: dict[int, list] = field(default_factory=dict)
    #: pipe descriptors: fd -> (Pipe, "r"|"w")  (see guestos.ipc)
    pipe_fds: dict[int, tuple] = field(default_factory=dict)
    next_fd: int = 3
    utime_cycles: int = 0

    def __post_init__(self):
        from repro.guestos.ipc import SignalState
        self.signals = SignalState()


def _child_words(entries: dict, words) -> tuple[dict, object]:
    """Fork's child leaf for a parent leaf whose re-protection is issued —
    ``(w & ~PTE_W) | PTE_COW`` for every present word ``w`` — and the
    frames it maps, in entry order.  With ``words``, the leaf's words as
    one int64 array (read before the re-protection, which changes no
    frame and no child word), a leaf whose words are all present is one
    numpy pass and its frames one array; where every parent word already
    is the child's (read-only and COW, after an earlier fork) the child's
    leaf is a copy of the parent's."""
    if words is not None and (words & PTE_P).all():
        child = words & ~PTE_W | PTE_COW
        copied = (dict(entries) if (child == words).all()
                  else dict(zip(entries, child.tolist())))
        return copied, words >> PTE_FRAME_SHIFT
    read_only = ~PTE_W
    copied = {idx: pte & read_only | PTE_COW
              for idx, pte in entries.items() if pte & PTE_P}
    return copied, [pte >> PTE_FRAME_SHIFT for pte in copied.values()]


class ProcessTable:
    """PID allocation and the task list."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.tasks: dict[int, Task] = {}
        self._next_pid = 1
        self.forks = 0
        self.execs = 0

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def spawn_initial(self, name: str, image_pages: int) -> Task:
        """Create a process from nothing (boot-time init)."""
        kernel = self.kernel
        aspace = AddressSpace(kernel.machine.memory, kernel.owner_id)
        task = Task(self._alloc_pid(), name, aspace)
        kernel.vmem.map_image(kernel.boot_cpu, task, image_pages)
        kernel.vo.new_address_space(kernel.boot_cpu, aspace)
        kernel.register_aspace(aspace)
        self.tasks[task.pid] = task
        return task

    def fork(self, cpu: "Cpu", parent: Task) -> Task:
        """Classic fork with copy-on-write.

        Work done (all through the VO): duplicate the vma list, walk the
        parent's page tables turning every writable mapping read-only+COW,
        install matching COW entries in the child, then register (and in
        virtual mode: pin) the child's address space."""
        kernel = self.kernel
        cost = cpu.cost
        cpu.charge(cost.cyc_proc_create_fixed)
        kernel.smp_lock(cpu)

        child_as = AddressSpace(kernel.machine.memory, kernel.owner_id)
        child = Task(self._alloc_pid(), parent.name, child_as, parent=parent)
        child.vmas = [vma.clone() for vma in parent.vmas]
        child.brk = parent.brk
        child.fds = {fd: list(v) for fd, v in parent.fds.items()}
        # pipes are shared (both tasks reference the same channel), signal
        # dispositions are copied — classic fork semantics
        child.pipe_fds = dict(parent.pipe_fds)
        child.signals.handlers = dict(parent.signals.handlers)
        child.next_fd = parent.next_fd
        child.stack_cached_selector_dpl = kernel.vo.data.kernel_segment_dpl

        # COW the parent's mapped pages into the child, one leaf at a time.
        # The parent-side re-protections go through the VO under a lazy-MMU
        # region (in virtual mode: one batched mmu_update instead of a trap
        # per PTE); the child's leaves are collected and installed as one
        # region write (the child is unpinned, so these are plain stores).
        child_leaves = []
        parent_as = parent.aspace
        with kernel.lazy_mmu(cpu):
            for pgd_idx, leaf in list(parent_as.pgd.entries.items()):
                copied = self._cow_copy_leaf(cpu, parent_as, pgd_idx,
                                             leaf.entries)
                if copied:
                    child_leaves.append((pgd_idx, copied))
            kernel.vo.apply_pte_region(cpu, child_as, child_leaves)

        kernel.vo.new_address_space(cpu, child_as)
        kernel.register_aspace(child_as)
        self.tasks[child.pid] = child
        kernel.scheduler.enqueue(child)
        self.forks += 1
        return child

    def _cow_copy_leaf(self, cpu: "Cpu", parent_as: AddressSpace,
                       pgd_idx: int, entries: dict) -> dict:
        """Fork's copy of one parent leaf: the child's read-only+COW word
        ``(w & ~PTE_W) | PTE_COW`` for every present parent word ``w``,
        each taking a share of its frame.  Where the parent's word already
        is read-only and COW (re-protected by an earlier fork) that is the
        parent's own word.

        The writable entries are re-protected through the VO.  When the
        run-ahead rule allows (:meth:`Kernel.flag_leaf_runs_ahead`, with
        the leaf's SMP lock bounces as lead), that is one sensitive call
        for the leaf, the copies are one pass and the lock bounces one
        lump.  Otherwise the leaf is copied an entry at a time, each
        re-protection a preempt point at its own clock, so a timer or
        switch request due inside the leaf lands at the same entry."""
        kernel = self.kernel
        vmem = kernel.vmem
        smp = kernel.machine.config.num_cpus > 1
        cyc_lock = cpu.cost.cyc_lock
        present_writable = PTE_P | PTE_W
        n = len(entries)
        words = word_array(entries.values(), n) if n >= LEAF_PASS_MIN else None
        if words is not None and not (words & PTE_W).any():
            writable = []   # re-protected by an earlier fork: nothing to do
        else:
            writable = [idx for idx, pte in entries.items()
                        if pte & present_writable == present_writable]
        if not writable or kernel.flag_leaf_runs_ahead(
                cpu, parent_as, len(writable), cyc_lock * n if smp else 0):
            if writable:
                kernel.vo.update_pte_flags(cpu, parent_as, pgd_idx, writable,
                                           writable=False, cow=True)
            copied, frames = _child_words(entries, words)
            vmem.take_shares(frames)
            if smp:  # page_table_lock bounces per entry on SMP
                cpu.charge(cyc_lock * len(copied))
            return copied
        copied = {}
        # kernel.vo is re-read per entry: update_pte_flags pumps the sim
        # scheduler, so the installed VO is not loop-invariant
        for idx, pte in list(entries.items()):
            if not pte & PTE_P:
                continue
            if pte & PTE_W:
                kernel.vo.update_pte_flags(cpu, parent_as, pgd_idx, (idx,),
                                           writable=False, cow=True)
                pte = entries.get(idx, pte)  # unless a lazy region queued it
            copied[idx] = pte & ~PTE_W | PTE_COW
            vmem.take_shares((pte >> PTE_FRAME_SHIFT,))
            if smp:
                cpu.charge(cyc_lock)
        return copied

    def exec(self, cpu: "Cpu", task: Task, name: str, image_pages: int) -> None:
        """Replace the task's image: tear down the old address space and
        build + populate a fresh one."""
        kernel = self.kernel
        cpu.charge(cpu.cost.cyc_exec_fixed)
        kernel.smp_lock(cpu)
        old_as = task.aspace
        self._teardown_aspace(cpu, task, old_as)

        new_as = AddressSpace(kernel.machine.memory, kernel.owner_id)
        task.aspace = new_as
        task.vmas = []
        task.name = name
        kernel.vmem.map_image(cpu, task, image_pages)
        kernel.vo.new_address_space(cpu, new_as)
        kernel.register_aspace(new_as)
        if kernel.scheduler.current is task:
            kernel.vo.write_cr3(cpu, new_as.pgd_frame)
        self.execs += 1

    # ------------------------------------------------------------------
    # exit / wait
    # ------------------------------------------------------------------

    def exit(self, cpu: "Cpu", task: Task, code: int) -> None:
        kernel = self.kernel
        kernel.smp_lock(cpu)
        self._teardown_aspace(cpu, task, task.aspace)
        task.state = TaskState.ZOMBIE
        task.exit_code = code
        kernel.scheduler.dequeue(task)
        if task.parent is not None:
            task.parent.children.append(task)

    def wait(self, cpu: "Cpu", parent: Task) -> tuple[int, int]:
        """Reap one zombie child; returns (pid, exit_code)."""
        for child in parent.children:
            if child.state == TaskState.ZOMBIE:
                parent.children.remove(child)
                self.tasks.pop(child.pid, None)
                return child.pid, child.exit_code or 0
        raise SyscallError("ECHILD", f"pid {parent.pid} has no zombie children")

    def _teardown_aspace(self, cpu: "Cpu", task: Task, aspace: AddressSpace) -> None:
        """Unmap everything, dropping frame references (frees unshared
        frames), then unregister + destroy the page tables.

        The unmap is one clear-all region through ``apply_pte_region``
        (multi-entry ``mmu_update`` in virtual mode) rather than a trap per
        PTE, collected a leaf at a time; frames are released only after the
        clears are applied, so the allocator never recycles a frame a live
        PTE still points at."""
        kernel = self.kernel
        tables = [(pgd_idx, leaf.entries)
                  for pgd_idx, leaf in aspace.pgd.entries.items()
                  if leaf.entries]
        leaves = [(pgd_idx, dict.fromkeys(entries))
                  for pgd_idx, entries in tables]
        # the present frames in entry order, leaf after leaf: one pass over
        # the space's words from LEAF_PASS_MIN of them (the release pass
        # takes the array as it is), else a comprehension
        n = sum(len(entries) for _, entries in tables)
        words = (word_array(chain.from_iterable(
                     entries.values() for _, entries in tables), n)
                 if n >= LEAF_PASS_MIN else None)
        if words is None:
            frames = [pte >> PTE_FRAME_SHIFT for _, entries in tables
                      for pte in entries.values() if pte & PTE_P]
        else:
            frames = words[words & PTE_P != 0] >> PTE_FRAME_SHIFT
        kernel.vo.apply_pte_region(cpu, aspace, leaves)
        kernel.vmem.release_frames(cpu, frames)
        kernel.unregister_aspace(aspace)
        kernel.vo.destroy_address_space(cpu, aspace)

    # ------------------------------------------------------------------

    def get(self, pid: int) -> Task:
        try:
            return self.tasks[pid]
        except KeyError:
            raise NoSuchProcess(f"no task with pid {pid}") from None

    def live_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if t.state != TaskState.ZOMBIE]

    def _alloc_pid(self) -> int:
        """The next unused pid.  A proc-table repair can file a task under
        a pid ahead of the counter, so pids the table holds are skipped."""
        pid = self._next_pid
        while pid in self.tasks:
            pid += 1
        self._next_pid = pid + 1
        return pid
