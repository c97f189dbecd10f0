"""System-wide consistency invariants: the one registry of laws.

The behaviour-consistency requirements of §4.3, plus the attached VMM's
structural and liveness laws, as executable checks over a whole Mercury
stack.  :data:`REGISTRY` holds one :class:`Invariant` per law; every
``check(mercury)`` yields violation details (nothing = the law holds).
Three consumers read it:

- :func:`check_all` runs every *structural* entry and returns all
  violations (empty = consistent); the property tests run it after
  randomized workloads interleaved with mode switches.  The ``vmm``
  entries run only while the stack is attached and no recovery is in
  flight — there is no VMM to judge otherwise.
- :class:`~repro.watchdog.Watchdog` schedules the ``vmm`` entries in
  registry order, stopping at the first verdict; *liveness* entries
  (true mid-operation, e.g. a backend inside ``poll``) only fire after
  consecutive observations.
- The §6.2 :class:`~repro.scenarios.healing.SelfHealer` keeps a repairer
  per guest-OS entry it heals and detects through the entry's check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.core.mercury import Mode
from repro.errors import PageValidationError, RingError
from repro.guestos.process import TaskState
from repro.hw.paging import PTE_P, PTE_W, pte_frame
from repro.vmm.page_info import PageInfoTable

if TYPE_CHECKING:
    from repro.core.mercury import Mercury

#: a law that must hold whenever the stack is at rest
STRUCTURAL = "structural"
#: a law that may be legitimately broken mid-operation; only a violation
#: that persists across consecutive watchdog scans counts
LIVENESS = "liveness"

#: a healthy VO refcount is 0 at rest and single digits mid-pump; anything
#: past this is a runaway count that would wedge every future mode switch
REFCOUNT_SUSPECT_THRESHOLD = 512


@dataclass(frozen=True)
class Invariant:
    """One law: ``check(mercury)`` yields a detail string per violation."""

    name: str
    layer: str
    kind: str
    check: Callable[["Mercury"], Iterable[str]]


def check_mode_coherence(mercury: "Mercury") -> list[str]:
    """Mode flag, installed VO, and VMM activation must agree."""
    out = []
    kernel = mercury.kernel
    native = mercury.mode is Mode.NATIVE
    if native and kernel.vo is not mercury.native_vo:
        out.append("mode NATIVE but a non-native VO is installed")
    if not native and mercury.virtual_vo is not None and \
            kernel.vo is not mercury.virtual_vo:
        out.append(f"mode {mercury.mode.value} but the virtual VO is not installed")
    if native and mercury.vmm.active:
        out.append("mode NATIVE but the VMM is active")
    if not native and not mercury.vmm.active:
        out.append(f"mode {mercury.mode.value} but the VMM is inactive")
    dpl = kernel.vo.data.kernel_segment_dpl
    if native and dpl != 0:
        out.append(f"native mode with kernel segment DPL {dpl}")
    if not native and dpl != 1:
        out.append(f"virtual mode with kernel segment DPL {dpl}")
    return out


def check_vo_quiescent(mercury: "Mercury") -> list[str]:
    """At rest (between operations) no CPU is inside sensitive code."""
    if mercury.kernel.vo.busy():
        return [f"VO refcount {mercury.kernel.vo.refcount} at rest"]
    return []


def check_frame_ownership(mercury: "Mercury") -> list[str]:
    """Every frame mapped by any address space belongs to the kernel."""
    out = []
    kernel = mercury.kernel
    mem = mercury.machine.memory
    for aspace in kernel.aspaces:
        for frame in aspace.mapped_frames():
            if mem.owner_of(frame) != kernel.owner_id:
                out.append(
                    f"mapped frame {frame} owned by {mem.owner_of(frame)}, "
                    f"not {kernel.owner_id}")
    return out


def check_frame_refcounts(mercury: "Mercury") -> list[str]:
    """The COW share counters equal the actual PTE reference counts."""
    out = []
    kernel = mercury.kernel
    actual: dict[int, int] = {}
    for aspace in kernel.aspaces:
        for frame in aspace.mapped_frames():
            actual[frame] = actual.get(frame, 0) + 1
    shares = kernel.vmem.shares()
    for frame, refs in shares.items():
        have = actual.get(frame, 0)
        if refs != have:
            out.append(f"frame {frame}: refcount {refs} but {have} mappings")
    for frame, have in actual.items():
        if frame not in shares:
            out.append(f"frame {frame}: {have} mappings but no refcount")
    return out


def check_scheduler(mercury: "Mercury") -> list[str]:
    out = []
    sched = mercury.kernel.scheduler
    seen = set()
    for task in sched.runqueue:
        if task.pid in seen:
            out.append(f"pid {task.pid} duplicated on the runqueue")
        seen.add(task.pid)
        if task.state == TaskState.ZOMBIE:
            out.append(f"zombie pid {task.pid} on the runqueue")
    if sched.current is not None and \
            sched.current.state != TaskState.RUNNING:
        out.append(f"current task {sched.current.pid} not RUNNING")
    return out


def check_proc_table(mercury: "Mercury") -> Iterator[str]:
    """Every task is filed under its own pid, and a live task's parent is
    still in the table unless it exited (a reaped zombie's children keep
    their pointer to it)."""
    tasks = mercury.kernel.procs.tasks
    for pid, task in tasks.items():
        if task.pid != pid:
            yield f"task pid {task.pid} filed under pid {pid}"
        parent = task.parent
        if (task.state != TaskState.ZOMBIE and parent is not None
                and parent.pid not in tasks
                and parent.state != TaskState.ZOMBIE):
            yield f"pid {task.pid}: parent {parent.pid} left the table"


def check_pinning(mercury: "Mercury") -> list[str]:
    """Direct mode: in virtual mode every live address space is pinned, in
    native mode nothing is.  Shadow mode: nothing is ever pinned, but in
    virtual mode every live address space has a coherent shadow."""
    from repro.core.mercury import PagingMode

    out = []
    kernel = mercury.kernel
    pinned = mercury.vmm.page_info.pinned
    if mercury.paging is PagingMode.SHADOW:
        if pinned:
            out.append(f"{len(pinned)} pinned frames in shadow mode")
        if mercury.mode is not Mode.NATIVE and mercury.pager is not None:
            for aspace in kernel.aspaces:
                if id(aspace) not in mercury.pager.shadows:
                    out.append(f"PGD {aspace.pgd_frame} has no shadow")
                elif not mercury.pager.verify_coherent(aspace):
                    out.append(f"shadow of PGD {aspace.pgd_frame} incoherent")
        return out
    if mercury.mode is Mode.NATIVE:
        for aspace in kernel.aspaces:
            if aspace.pgd_frame in pinned:
                out.append(f"PGD {aspace.pgd_frame} pinned in native mode")
    else:
        for aspace in kernel.aspaces:
            if aspace.pgd_frame not in pinned:
                out.append(f"PGD {aspace.pgd_frame} unpinned in virtual mode")
    return out


def check_tlb_coherence(mercury: "Mercury") -> list[str]:
    """No CPU's TLB holds a translation that disagrees with the current
    address space's page tables (stale entries after an invalidate/flush
    would be silent memory corruption on real hardware)."""
    out = []
    kernel = mercury.kernel
    current = kernel.scheduler.current
    if current is None:
        return out
    aspace = current.aspace
    from repro.params import PAGE_SIZE
    for cpu in kernel.machine.cpus:
        if cpu.cr3 != aspace.pgd_frame:
            continue  # this CPU runs something else (or the VMM/shadow)
        for vpn, (frame, writable) in list(cpu.tlb._entries.items()):
            pte = aspace.get_pte(vpn * PAGE_SIZE)
            if pte is None or not pte & PTE_P:
                out.append(f"cpu{cpu.cpu_id}: stale TLB entry for vpn {vpn:#x}")
            elif pte_frame(pte) != frame:
                out.append(f"cpu{cpu.cpu_id}: TLB frame {frame} != PTE "
                           f"frame {pte_frame(pte)} for vpn {vpn:#x}")
            elif writable and not pte & PTE_W:
                out.append(f"cpu{cpu.cpu_id}: TLB grants write to "
                           f"read-only vpn {vpn:#x}")
    return out


def check_lazy_mmu(mercury: "Mercury") -> list[str]:
    """At rest no lazy-MMU updates may be queued: a pending queue means
    page tables the hardware could walk disagree with what the kernel
    believes it wrote (and a mode switch must never commit over one)."""
    pending = mercury.kernel.vo.lazy_mmu_pending()
    if pending:
        return [f"{pending} lazy-MMU updates queued at rest"]
    return []


def check_filesystem(mercury: "Mercury") -> list[str]:
    from repro.guestos.fs import BLOCK_SIZE
    out = []
    for path, inode in mercury.kernel.fs.inodes.items():
        if inode.size > len(inode.blocks) * BLOCK_SIZE:
            out.append(f"{path}: size {inode.size} exceeds "
                       f"{len(inode.blocks)} blocks")
        if inode.nlink < 1:
            out.append(f"{path}: nlink {inode.nlink}")
    return out


# ---------------------------------------------------------------------------
# the attached VMM's laws (read straight from simulator state: a wedged
# backend or poisoned grant table cannot hang the reader)
# ---------------------------------------------------------------------------

def check_trap_table(mercury: "Mercury") -> Iterator[str]:
    """Every gate the kernel registered must still be reachable via the
    driver domain's trap table, or ``forward_irq`` silently drops it."""
    if mercury.domain is None:
        return
    table = mercury.domain.trap_table
    for vector in sorted(mercury.kernel.idt.gates):
        if vector not in table:
            yield f"vector {vector:#x} missing from driver-domain table"


def check_vo_refcounts(mercury: "Mercury") -> Iterator[str]:
    vos = [("kernel", mercury.kernel.vo)]
    if (mercury.virtual_vo is not None
            and mercury.virtual_vo is not mercury.kernel.vo):
        vos.append(("virtual", mercury.virtual_vo))
    vos.extend((guest.name, guest.vo) for guest in mercury.guests)
    for label, vo in vos:
        if vo.refcount > REFCOUNT_SUSPECT_THRESHOLD:
            yield f"{label} VO refcount stuck at {vo.refcount}"


def backend_rings(mercury: "Mercury") -> Iterator[tuple]:
    """``(label, ring)`` for every split-driver backend ring."""
    for idx, back in enumerate(mercury.backends):
        for attr in ("ring", "tx_ring", "rx_ring"):
            ring = getattr(back, attr, None)
            if ring is not None:
                yield f"{type(back).__name__}[{idx}].{attr}", ring


def check_ring_indices(mercury: "Mercury") -> Iterator[str]:
    for key, ring in backend_rings(mercury):
        try:
            ring.check_invariants()
        except RingError as exc:
            yield f"{key}: {exc}"


def check_grant_refs(mercury: "Mercury") -> Iterator[str]:
    from repro.vmm.hypervisor import VMM_OWNER
    mem = mercury.machine.memory
    entries = mercury.vmm.grants._entries
    for key in sorted(entries):
        entry = entries[key]
        if entry.revoked:
            continue
        if entry.active_maps < 0:
            yield f"grant {key} active_maps={entry.active_maps}"
            continue
        owner = mem.owner_of(entry.frame)
        if owner != entry.granting_domain or owner == VMM_OWNER:
            yield (f"grant {key} frame {entry.frame} owned by {owner}, "
                   f"granted by {entry.granting_domain}")


class _UnchargedCpu:
    """Stub CPU for the reference page-info recompute: validation logic
    runs, cycle accounting doesn't."""

    class _Cost:
        cyc_pte_validate = 0

    cost = _Cost()

    def charge(self, cycles: int) -> None:
        pass


def check_page_info(mercury: "Mercury") -> Iterator[str]:
    """Digest check: re-derive the page-info columns from the pinned
    address spaces into a fresh table and compare semantically."""
    vmm = mercury.vmm
    live = vmm.page_info
    reference = PageInfoTable(mercury.machine.memory)
    stub = _UnchargedCpu()
    for domain_id in sorted(vmm.domains):
        domain = vmm.domains[domain_id]
        for aspace in domain.aspaces:
            if not live.pinned_map[aspace.pgd.frame]:
                continue
            try:
                reference.validate_pgd(stub, aspace, domain.domain_id)
            except PageValidationError as exc:
                yield (f"reference recompute rejected domain {domain_id}: "
                       f"{exc}")
                return
    if not reference.semantically_equal(live):
        yield "column digest diverged from reference recompute"


def check_channel_masks(mercury: "Mercury") -> Iterator[str]:
    """A *connected* channel pending while masked delivers nothing,
    forever — unless someone is about to unmask it (liveness)."""
    chans = mercury.vmm.events._channels
    for key in sorted(chans):
        ch = chans[key]
        if ch.peer_domain is not None and ch.pending and ch.masked:
            yield f"channel {key} pending while masked"


def check_backend_liveness(mercury: "Mercury") -> Iterator[str]:
    """A backend that stays inside ``poll`` is dead or spinning;
    re-entrant kicks silently bounce off ``_in_poll`` (liveness)."""
    for idx, back in enumerate(mercury.backends):
        if getattr(back, "_in_poll", False):
            yield f"{type(back).__name__}[{idx}] wedged in poll"


def _balloon_backends(mercury: "Mercury") -> Iterator[tuple]:
    from repro.vmm.backend import BalloonBack
    for idx, back in enumerate(mercury.backends):
        if isinstance(back, BalloonBack):
            yield idx, back


def check_balloon_doorbells(mercury: "Mercury") -> Iterator[str]:
    """A balloon ring whose advertised wakeup index sits past any
    reachable producer index has lost its doorbell."""
    for idx, back in _balloon_backends(mercury):
        c = back.ring.c
        if c.req_event > c.req_prod + 1 or c.rsp_event > c.rsp_prod + 1:
            yield (f"BalloonBack[{idx}] doorbell lost: event indices "
                   f"(req {c.req_event}, rsp {c.rsp_event}) past any "
                   f"reachable producer (req {c.req_prod}, rsp {c.rsp_prod})")


def check_balloon_drain(mercury: "Mercury") -> Iterator[str]:
    """Posted extents must drain promptly — the elasticity controller
    blocks on them (liveness: a scan can land between submit and poll)."""
    for idx, back in _balloon_backends(mercury):
        if back.ring.has_requests() and not back._in_poll:
            yield f"BalloonBack[{idx}] extents posted but never consumed"


#: every law, in check order; the ``vmm`` entries are in watchdog scan order
REGISTRY: tuple[Invariant, ...] = (
    Invariant("mode-coherence", "core", STRUCTURAL, check_mode_coherence),
    Invariant("vo-quiescent", "core", STRUCTURAL, check_vo_quiescent),
    Invariant("frame-ownership", "guestos", STRUCTURAL,
              check_frame_ownership),
    Invariant("frame-refs", "guestos", STRUCTURAL, check_frame_refcounts),
    Invariant("runqueue", "guestos", STRUCTURAL, check_scheduler),
    Invariant("proc-table", "guestos", STRUCTURAL, check_proc_table),
    Invariant("pinning", "core", STRUCTURAL, check_pinning),
    Invariant("tlb-coherence", "core", STRUCTURAL, check_tlb_coherence),
    Invariant("lazy-mmu", "core", STRUCTURAL, check_lazy_mmu),
    Invariant("fs-metadata", "guestos", STRUCTURAL, check_filesystem),
    Invariant("trap-table", "vmm", STRUCTURAL, check_trap_table),
    Invariant("vo-refcount", "vmm", STRUCTURAL, check_vo_refcounts),
    Invariant("ring-indices", "vmm", STRUCTURAL, check_ring_indices),
    Invariant("grant-refs", "vmm", STRUCTURAL, check_grant_refs),
    Invariant("page-info", "vmm", STRUCTURAL, check_page_info),
    Invariant("channel-masks", "vmm", LIVENESS, check_channel_masks),
    Invariant("backend-liveness", "vmm", LIVENESS, check_backend_liveness),
    Invariant("balloon-ring", "vmm", STRUCTURAL, check_balloon_doorbells),
    Invariant("balloon-ring", "vmm", LIVENESS, check_balloon_drain),
)

VMM_INVARIANTS = tuple(inv for inv in REGISTRY if inv.layer == "vmm")


def vmm_attached(mercury: "Mercury") -> bool:
    """Is there an attached VMM to judge?  Not while native, and not while
    a recovery is mid-flight (the stack is deliberately inconsistent)."""
    recovery = mercury.recovery
    return (mercury.mode is not Mode.NATIVE
            and not (recovery is not None and recovery.in_progress))


def check_all(mercury: "Mercury") -> list[str]:
    """Run every structural invariant; returns all violations found."""
    attached = vmm_attached(mercury)
    out: list[str] = []
    for inv in REGISTRY:
        if inv.kind == STRUCTURAL and (attached or inv.layer != "vmm"):
            out.extend(inv.check(mercury))
    return out
