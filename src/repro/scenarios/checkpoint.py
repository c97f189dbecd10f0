"""Checkpoint and restart of operating systems (§6.1).

"To perform checkpointing, the pre-cached VMM is activated and makes a
snapshot of the whole system, then the VMM is detached and remains
inactive.  If a software failure occurs, the VMM could be automatically
re-activated to restore the failed system into a recent checkpoint.  For
hardware failures, the snapshot could be manually restored to another
healthy machine."

The snapshot serializes the guest's complete logical state — frame
contents, page-table structure, process table, scheduler, filesystem — into
a machine-independent :class:`CheckpointImage`.  Restore replays it either
onto the same kernel (rollback) or onto a fresh machine (disaster
recovery); fidelity tests assert workloads observe identical state.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.mercury import GuestWiring, Mercury, Mode
from repro.errors import CheckpointError
from repro.guestos.process import Task, TaskState
from repro.hw.paging import AddressSpace, pte, pte_fields

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu

#: cycles to snapshot one frame (copy + bookkeeping in the VMM)
CYC_SNAPSHOT_PER_FRAME = 260


# ---------------------------------------------------------------------------
# image format
# ---------------------------------------------------------------------------

@dataclass
class AspaceImage:
    pgd_frame: int
    #: vaddr -> (frame, present, writable, user, cow)
    ptes: dict[int, tuple] = field(default_factory=dict)
    #: pgd slot -> frame of the leaf page-table page occupying it
    leaf_frames: dict[int, int] = field(default_factory=dict)


@dataclass
class TaskImage:
    pid: int
    name: str
    state: str
    aspace_index: int
    vmas: list = field(default_factory=list)
    brk: int = 0
    fds: dict = field(default_factory=dict)
    next_fd: int = 3
    parent_pid: Optional[int] = None
    exit_code: Optional[int] = None
    selector_dpl: Optional[int] = None


@dataclass
class CheckpointImage:
    """A complete, machine-independent snapshot of one guest OS."""

    kernel_name: str
    owner_id: int
    taken_at_cycles: int
    #: frame -> content for every frame of :func:`state_frames`
    frames: dict[int, object] = field(default_factory=dict)
    aspaces: list[AspaceImage] = field(default_factory=list)
    tasks: list[TaskImage] = field(default_factory=list)
    current_pid: Optional[int] = None
    runqueue_pids: list[int] = field(default_factory=list)
    next_pid: int = 1
    #: filesystem: inodes + next block + (optionally) raw disk blocks
    fs_inodes: dict = field(default_factory=dict)
    fs_next_block: int = 1024
    disk_blocks: Optional[dict] = None
    #: frame share counts for COW
    frame_refs: dict[int, int] = field(default_factory=dict)

    @property
    def num_frames(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

def checkpoint(mercury: Mercury,
               cpu: Optional["Cpu"] = None) -> CheckpointImage:
    """Snapshot the self-virtualized OS.

    If the OS is native, the VMM is attached for the duration of the
    snapshot and detached afterwards — the §6.1 flow."""
    cpu = cpu or mercury.machine.boot_cpu
    kernel = mercury.kernel
    was_native = mercury.mode is Mode.NATIVE
    if was_native:
        mercury.attach(cpu)
    try:
        kernel.fs.sync_all(cpu)  # quiesce: the image carries clean FS state
        image = capture(kernel)
        cpu.charge(image.num_frames * CYC_SNAPSHOT_PER_FRAME)
    finally:
        if was_native:
            mercury.detach(cpu)
    return image


def state_frames(kernel: "Kernel") -> list[int]:
    """The frames that hold ``kernel``'s state, ascending: every frame it
    owns except those it has granted to another domain.  A granted frame
    is the split block frontend's payload buffer, which ``Mercury.wire``
    allocates afresh on every host; it belongs to the host's wiring, so
    neither a capture nor a migration carries it."""
    owned = kernel.machine.memory.frames_owned_by(kernel.owner_id)
    vmm = getattr(kernel.vo, "vmm", None)
    granted = ({e.frame for e in vmm.grants.active_grants_of(kernel.owner_id)}
               if vmm is not None else set())
    return [int(f) for f in owned if int(f) not in granted]


def capture(kernel: "Kernel", include_disk: bool = True) -> CheckpointImage:
    """Read ``kernel``'s whole logical state into an image.

    The walk charges no cycles and syncs nothing: :func:`checkpoint` and
    live migration charge ``CYC_SNAPSHOT_PER_FRAME`` per captured frame
    themselves, and :func:`state_digest` reads state for free."""
    mem = kernel.machine.memory
    image = CheckpointImage(
        kernel_name=kernel.name,
        owner_id=kernel.owner_id,
        taken_at_cycles=kernel.machine.clock.cycles,
        next_pid=kernel.procs._next_pid,
    )

    # memory frames
    for f in state_frames(kernel):
        content = mem.read(f)
        image.frames[f] = copy.deepcopy(content) if content is not None else None

    # address spaces
    aspace_indices: dict[int, int] = {}
    for idx, aspace in enumerate(kernel.aspaces):
        aspace_indices[id(aspace)] = idx
        a_img = AspaceImage(pgd_frame=aspace.pgd_frame)
        a_img.leaf_frames = {idx: leaf.frame
                             for idx, leaf in aspace.pgd.entries.items()}
        a_img.ptes = {vaddr: pte_fields(word)
                      for vaddr, word in aspace.mapped_items()}
        image.aspaces.append(a_img)

    # tasks
    for task in kernel.procs.tasks.values():
        if id(task.aspace) not in aspace_indices:
            continue  # zombies whose aspace is gone carry no memory state
        image.tasks.append(TaskImage(
            pid=task.pid, name=task.name, state=task.state.value,
            aspace_index=aspace_indices[id(task.aspace)],
            vmas=[v.clone() for v in task.vmas], brk=task.brk,
            fds={fd: list(v) for fd, v in task.fds.items()},
            next_fd=task.next_fd,
            parent_pid=task.parent.pid if task.parent else None,
            exit_code=task.exit_code,
            selector_dpl=task.stack_cached_selector_dpl))
    image.current_pid = (kernel.scheduler.current.pid
                         if kernel.scheduler.current else None)
    image.runqueue_pids = [t.pid for t in kernel.scheduler.runqueue]

    # filesystem
    image.fs_inodes = copy.deepcopy(kernel.fs.inodes)
    image.fs_next_block = kernel.fs._next_block
    if include_disk:
        image.disk_blocks = dict(kernel.machine.disk.blocks)

    image.frame_refs = kernel.vmem.shares()
    return image


# ---------------------------------------------------------------------------
# state digest
# ---------------------------------------------------------------------------

#: every piece of state :func:`state_digest` leaves out, with the reason
DIGEST_EXCLUDED = (
    ("CheckpointImage.owner_id, domain ids",
     "per-machine handles; a kernel landing in a shell keeps the shell's id"),
    ("CheckpointImage.kernel_name",
     "a kernel landing in a shell keeps the shell's name; hosted guests' "
     "names are in the stack part"),
    ("CheckpointImage.taken_at_cycles", "a clock reading, not state"),
    ("CheckpointImage.disk_blocks",
     "the machine's disk: networked storage every §6 move shares"),
    ("kernel state outside the image: buffer cache, sockets, IPC, counters",
     "a checkpoint syncs the filesystem before its capture, and a move "
     "re-creates I/O on the target"),
    ("frame numbers",
     "the allocator recycles LIFO, so a restore renumbers frames; frames "
     "are named by the walk instead (see _walk)"),
    ("object identities",
     "a digest must compare across machines and microreboots"),
    ("MmuAccounting.trusted",
     "an attach rollback distrusts the tracker by design, forcing the "
     "retry onto the full path"),
)

#: the stack-part name of a frame no walk reaches (a dead root, say):
#: sets of such frames compare by count
_UNWALKED = (-1, -1)


def _walk(image: CheckpointImage) -> dict[int, int]:
    """Canonical frame names, in first-visit order of a walk over the
    image's address spaces: each pgd, its leaf tables by slot, then the
    frames it maps by virtual address."""
    names: dict[int, int] = {}
    for a in image.aspaces:
        for frame in (a.pgd_frame,
                      *(a.leaf_frames[s] for s in sorted(a.leaf_frames)),
                      *(a.ptes[v][0] for v in sorted(a.ptes))):
            names.setdefault(frame, len(names))
    return names


def kernel_digest(image: CheckpointImage) -> dict:
    """The kernel part of :func:`state_digest`, read from a capture:
    frame contents, address spaces, tasks, scheduler, filesystem and COW
    share counts, with frames named by :func:`_walk`.  Frames the walk
    does not reach are compared by content and share count alone."""
    names = _walk(image)
    refs = image.frame_refs
    unwalked = (set(image.frames) | set(refs)) - set(names)
    return {
        "frames": {names[f]: c for f, c in image.frames.items() if f in names},
        "unwalked_frames": sorted((repr(image.frames.get(f)), refs.get(f, 0))
                                  for f in unwalked),
        "cow_shares": {names[f]: n for f, n in refs.items() if f in names},
        "aspaces": [{"pgd": names[a.pgd_frame],
                     "leaves": {s: names[f] for s, f in a.leaf_frames.items()},
                     "ptes": {v: (names[pte[0]], *pte[1:])
                              for v, pte in a.ptes.items()}}
                    for a in image.aspaces],
        "tasks": sorted((asdict(t) for t in image.tasks),
                        key=lambda t: t["pid"]),
        "current_pid": image.current_pid,
        "runqueue_pids": image.runqueue_pids,
        "next_pid": image.next_pid,
        "fs_inodes": {path: asdict(inode)
                      for path, inode in image.fs_inodes.items()},
        "fs_next_block": image.fs_next_block,
    }


def state_digest(mercury: Mercury) -> dict:
    """The state oracle for checkpoint, migration and recovery: a
    canonical plain-data value equal across any two stacks in the same
    logical state, so a failing ``==`` names the part that differs.

    ``kernel`` is :func:`kernel_digest` of the self-virtualized OS;
    ``stack`` is the switch and hosting state around it.  Frames in the
    stack part are named ``(kernel index, walk name)`` — the OS is index
    0, hosted guests follow in order.  What is left out, and why, is
    :data:`DIGEST_EXCLUDED`."""
    kernel = mercury.kernel
    guests = mercury.guests
    images = [capture(k, include_disk=False) for k in (kernel, *guests)]
    names: dict[int, tuple] = {}
    for index, image in enumerate(images):
        for frame, name in _walk(image).items():
            names.setdefault(frame, (index, name))

    def labels(frames) -> list:
        return sorted(names.get(int(f), _UNWALKED) for f in frames)

    tracker = mercury.mmu_log
    domain = mercury.domain
    cpus = mercury.machine.cpus
    vo = kernel.vo
    return {
        "kernel": kernel_digest(images[0]),
        "stack": {
            "mode": mercury.mode.value,
            "vmm_active": mercury.vmm.active,
            "vo": ("virtual" if vo is mercury.virtual_vo else
                   "native" if vo is mercury.native_vo else type(vo).__name__),
            "vo_refcount": vo.refcount,
            "segment_dpl": vo.data.kernel_segment_dpl,
            "gdt_dpls": [{sel: d.dpl for sel, d in c.gdt.items()}
                         for c in cpus],
            "idt_owners": [getattr(c.idt_base, "owner", None) for c in cpus],
            "interrupts": [c.interrupts_enabled for c in cpus],
            "pinned": labels(mercury.vmm.page_info.pinned),
            "aspaces": labels(a.pgd_frame for a in domain.aspaces)
                       if domain is not None else [],
            "mmu_dirty": (labels(tracker.dirty)
                          if tracker is not None else None),
            "mmu_contributions": (labels(tracker.contributions)
                                  if tracker is not None else None),
            "mmu_dead": (labels(tracker.dead)
                         if tracker is not None else None),
            "guests": [{"name": g.name, "vo_refcount": g.vo.refcount,
                        "aspaces": len(g.vo.domain.aspaces)} for g in guests],
            "backends": len(mercury.backends),
        },
    }


# ---------------------------------------------------------------------------
# restore
# ---------------------------------------------------------------------------

def restore(image: CheckpointImage, mercury: Mercury,
            cpu: Optional["Cpu"] = None, fresh_kernel: bool = False) -> "Kernel":
    """Restore a checkpoint.

    - Rollback on the same machine: pass the Mercury whose kernel took the
      snapshot; its current state is discarded and rebuilt.
    - Disaster recovery: pass a Mercury on a fresh machine with
      ``fresh_kernel=True``; a new kernel is created and populated.

    Per §6.1 the VMM does the restoring: it is attached for the duration
    (and detached again if it was not attached before)."""
    cpu = cpu or mercury.machine.boot_cpu
    was_native = mercury.mode is Mode.NATIVE

    if fresh_kernel and mercury.kernel is None:
        kernel = mercury.create_kernel(name=image.kernel_name,
                                       owner_id=image.owner_id, boot=False)
        kernel.booted = True  # restored, not booted
        kernel.install_tables(cpu)
    else:
        kernel = mercury.kernel
        if kernel is None:
            raise CheckpointError("no kernel to restore into")

    if was_native and kernel.booted:
        mercury.attach(cpu)
    try:
        _wipe(kernel, cpu)
        _rebuild(kernel, image, cpu)
    finally:
        if was_native and mercury.mode is not Mode.NATIVE:
            mercury.detach(cpu)
    return kernel


def restore_as_guest(image: CheckpointImage, host: Mercury,
                     cpu: Optional["Cpu"] = None) -> "Kernel":
    """Restore a checkpoint as a *hosted guest* on another machine (§6.3:
    the migrated execution environment lands on a machine already in
    partial-virtual mode, accommodating multiple operating systems).

    The restored kernel gets its own domain, a VirtualVO, and split I/O to
    the host's driver domain at address ``<host nic>:m<domain id>``, wired
    and recorded like any hosted guest.  Shared (networked) storage is
    modelled by copying the image's disk blocks onto the host's disk."""
    if host.mode is Mode.NATIVE:
        raise CheckpointError("host must have its VMM attached")
    cpu = cpu or host.machine.boot_cpu

    guest = host.guest_shell(image.kernel_name)
    guest.booted = True

    # networked storage: the image's blocks appear on the host's disk
    if image.disk_blocks is not None:
        host.machine.disk.blocks.update(image.disk_blocks)

    _rebuild(guest, image, cpu)

    # §5.2: frontends are created and connected *after* the migration
    host.wire(GuestWiring(guest, f"{host.machine.nic.addr}:m{guest.owner_id}"))
    return guest


def _wipe(kernel: "Kernel", cpu: "Cpu") -> None:
    """Discard the kernel's current state (the failed instance).

    Address spaces are torn down through the VO so that, in virtual mode,
    the VMM unpins them and its page type/count info stays coherent before
    the rebuild re-pins the restored tables."""
    mem = kernel.machine.memory
    kernel.scheduler.current = None
    kernel.scheduler.runqueue.clear()
    kernel.procs.tasks.clear()
    for aspace in list(kernel.aspaces):
        kernel.unregister_aspace(aspace)
        kernel.vo.destroy_address_space(cpu, aspace)
    mem.free_many(mem.frames_owned_by(kernel.owner_id).tolist())
    kernel.vmem.set_shares({})
    kernel.fs.inodes.clear()
    kernel.fs.cache.invalidate()


def _rebuild(kernel: "Kernel", image: CheckpointImage, cpu: "Cpu") -> None:
    mem = kernel.machine.memory

    # frames: allocate fresh ones on this machine and remap every reference
    # (the pseudo-physical -> physical translation of §3.2.2; the target's
    # frame numbering never matches the source's)
    fmap: dict[int, int] = {}
    for old_frame, content in image.frames.items():
        new_frame = mem.alloc(kernel.owner_id)
        fmap[old_frame] = new_frame
        if content is not None:
            mem.write(new_frame, copy.deepcopy(content))
        cpu.charge(CYC_SNAPSHOT_PER_FRAME)
    kernel.vmem.set_shares({fmap[f]: n for f, n in image.frame_refs.items()
                            if f in fmap})

    # address spaces: rebuild the structural objects over the new frames
    # (plain stores into unpinned tables, never through the VO), then pin
    # each in virtual mode
    restored_aspaces: list[AddressSpace] = []
    for a_img in image.aspaces:
        aspace = _rebuild_aspace(kernel, a_img, fmap)
        kernel.register_aspace(aspace)
        restored_aspaces.append(aspace)
        if kernel.vo.is_virtual:
            kernel.vo.new_address_space(cpu, aspace)

    # tasks
    by_pid: dict[int, Task] = {}
    for t_img in image.tasks:
        task = Task(pid=t_img.pid, name=t_img.name,
                    aspace=restored_aspaces[t_img.aspace_index],
                    state=TaskState(t_img.state),
                    brk=t_img.brk, exit_code=t_img.exit_code,
                    stack_cached_selector_dpl=t_img.selector_dpl)
        task.vmas = [v.clone() for v in t_img.vmas]
        task.fds = {fd: list(v) for fd, v in t_img.fds.items()}
        task.next_fd = t_img.next_fd
        by_pid[task.pid] = task
        kernel.procs.tasks[task.pid] = task
    for t_img in image.tasks:
        if t_img.parent_pid is not None and t_img.parent_pid in by_pid:
            by_pid[t_img.pid].parent = by_pid[t_img.parent_pid]
    kernel.procs._next_pid = image.next_pid

    # scheduler
    for pid in image.runqueue_pids:
        if pid in by_pid:
            kernel.scheduler.runqueue.append(by_pid[pid])
    if image.current_pid is not None and image.current_pid in by_pid:
        current = by_pid[image.current_pid]
        current.state = TaskState.READY
        kernel.scheduler.context_switch(cpu, current)

    # filesystem
    kernel.fs.inodes = copy.deepcopy(image.fs_inodes)
    kernel.fs._next_block = image.fs_next_block
    if image.disk_blocks is not None:
        kernel.machine.disk.blocks.update(image.disk_blocks)


def _rebuild_aspace(kernel: "Kernel", a_img: AspaceImage,
                    fmap: dict[int, int]) -> AddressSpace:
    """Reconstruct an AddressSpace over the remapped frames — including the
    page-table pages themselves, so the VMM's view after a later
    attach/pin is structurally identical to the snapshot."""
    from repro.hw.paging import PageTablePage

    mem = kernel.machine.memory
    aspace = AddressSpace.__new__(AddressSpace)
    aspace.mem = mem
    aspace.owner = kernel.owner_id
    pgd_frame = fmap[a_img.pgd_frame]
    aspace.pgd = PageTablePage(pgd_frame, level=2)
    mem.frame_objects[pgd_frame] = aspace.pgd
    for pgd_idx, leaf_frame in a_img.leaf_frames.items():
        leaf = PageTablePage(fmap[leaf_frame], level=1)
        aspace.pgd.entries[pgd_idx] = leaf
        mem.frame_objects[fmap[leaf_frame]] = leaf
    for vaddr, (frame, present, writable, user, cow) in a_img.ptes.items():
        aspace.set_pte(vaddr, pte(fmap[frame], present=present,
                                  writable=writable, user=user, cow=cow))
    return aspace
