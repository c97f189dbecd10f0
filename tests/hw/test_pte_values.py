"""Page-table entries are values: PTE words, never changed in place, and
shared.

A leaf entry is an int word (``repro.hw.paging``), so nothing can assign to
an installed entry: a flag change installs a new word.  That is what lets
fork hand the child the parent's read-only copy-on-write words, so these
tests check the sides of it on every VO kind:

- sharing: after a first and a second fork of a 384-page image every child
  entry equals the parent's, slot for slot and in the parent's order;
- the lifecycle: fork/exec/exit, COW breaks, ``mprotect``, ``munmap``,
  balloon steals, a checkpoint round trip (the whole state digest, under
  direct and shadow paging) and a live migration keep every law;
- behaviour: a write on one side of a fork (COW break) and an ``mprotect``
  on the other leave the other side's entries as they were.
"""

from __future__ import annotations

import pytest

from repro import Machine, Mercury, small_config
from repro.bench.configs import BareMetalVO
from repro.core.accounting import AccountingStrategy
from repro.core.invariants import check_all
from repro.core.mercury import PagingMode
from repro.guestos.vmem import IMAGE_BASE
from repro.hw.paging import pte_fields
from repro.params import PAGE_SIZE
from repro.scenarios.checkpoint import checkpoint, restore, state_digest
from repro.scenarios.migration import LiveMigration

KINDS = ("bare", "native", "native-active", "virtual", "virtual-region",
         "shadow")
#: the §7.4 image size: one full leaf and a part of the next
IMAGE_PAGES = 384


def _stack(kind: str, image_pages: int = IMAGE_PAGES):
    strategy = (AccountingStrategy.ACTIVE if kind == "native-active"
                else AccountingStrategy.RECOMPUTE)
    paging = PagingMode.SHADOW if kind == "shadow" else PagingMode.DIRECT
    mercury = Mercury(Machine(small_config()), strategy=strategy,
                      paging=paging)
    kernel = mercury.create_kernel(image_pages=image_pages)
    if kind == "bare":
        kernel.vo = BareMetalVO(mercury.machine, mmu_log=mercury.mmu_log)
    if kind.startswith(("virtual", "shadow")):
        mercury.attach()
    return mercury, kernel


def _check(mercury, kind: str) -> None:
    """The invariant catalogue, less the mode law that the bare VO (the
    unmodified kernel's, swapped in under Mercury) breaks by design."""
    violations = check_all(mercury)
    if kind == "bare":
        violations = [v for v in violations if "non-native VO" not in v]
    assert violations == []


def _fork(kind: str, kernel):
    """One fork syscall from the current task; ``virtual-region`` issues
    it inside an enclosing lazy-MMU region."""
    cpu = kernel.machine.boot_cpu
    if kind == "virtual-region":
        with kernel.lazy_mmu(cpu):
            pid = kernel.syscall(cpu, "fork")
    else:
        pid = kernel.syscall(cpu, "fork")
    return kernel.procs.get(pid)


def _leaves(aspace) -> dict:
    return {pgd_idx: dict(leaf.entries)
            for pgd_idx, leaf in aspace.pgd.entries.items()}


def _fields(aspace) -> dict:
    return {(pgd_idx, idx): pte_fields(word)
            for pgd_idx, leaf in aspace.pgd.entries.items()
            for idx, word in leaf.entries.items()}


def _shared(child, parent) -> bool:
    """Every entry of ``child`` is the parent's word, slot for slot and in
    the parent's order."""
    mine, theirs = _leaves(child.aspace), _leaves(parent.aspace)
    return (list(mine) == list(theirs)
            and all(list(entries.items()) == list(theirs[pgd_idx].items())
                    for pgd_idx, entries in mine.items()))


@pytest.mark.parametrize("kind", KINDS)
def test_fork_hands_the_child_the_parents_entries(kind):
    mercury, kernel = _stack(kind)
    parent = kernel.scheduler.current
    first = _fork(kind, kernel)
    second = _fork(kind, kernel)
    assert sum(len(e) for e in _leaves(second.aspace).values()) == IMAGE_PAGES
    assert _shared(second, parent)
    # the first fork's child takes the sweep's new parent words too, also
    # under the virtual VO, whose lazy queue keeps them out of the parent's
    # table until the flush
    assert _shared(first, parent)
    assert all(not f.writable and f.cow
               for f in _fields(parent.aspace).values())
    _check(mercury, kind)


def _lifecycle(mercury, kernel) -> None:
    """Every path that writes entries: fork, COW breaks on both sides
    (the copy and the last-reference one), mprotect both ways, munmap,
    a direct balloon steal, exec and exit."""
    cpu = mercury.machine.boot_cpu
    vmem = kernel.vmem
    parent = kernel.scheduler.current
    base = kernel.syscall(cpu, "mmap", 4 * PAGE_SIZE, True)
    child = kernel.procs.get(kernel.syscall(cpu, "fork"))
    vmem.access(cpu, child, base, write=True)            # copy in the child
    vmem.access(cpu, parent, base + PAGE_SIZE, write=True)
    vmem.access(cpu, parent, base, write=True)           # last reference
    kernel.syscall(cpu, "mprotect", base, 4 * PAGE_SIZE, False)
    kernel.syscall(cpu, "mprotect", base, 4 * PAGE_SIZE, True)
    frame = vmem.steal_page(cpu, parent, base)           # unshared page
    mercury.machine.memory.free(frame)
    vmem.access(cpu, parent, base, write=True)           # faults back in
    kernel.syscall(cpu, "munmap", base, 4 * PAGE_SIZE)
    grandchild = kernel.spawn_process(cpu, "sh", image_pages=8)
    kernel.run_and_reap(cpu, grandchild)
    kernel.run_and_reap(cpu, child)


@pytest.mark.parametrize("kind", KINDS)
def test_the_lifecycle_keeps_every_law_on_every_vo(kind):
    mercury, kernel = _stack(kind, image_pages=16)
    _lifecycle(mercury, kernel)
    _check(mercury, kind)
    image = checkpoint(mercury)
    digest = state_digest(mercury)
    restore(image, mercury)
    assert state_digest(mercury) == digest
    _lifecycle(mercury, kernel)
    dst = Mercury(Machine(small_config(mem_kb=32768),
                          clock=mercury.machine.clock))
    dst.create_kernel(name="dst", image_pages=8)
    mercury.machine.link_to(dst.machine)
    dst.attach()
    mercury.full_virtualize()
    landed, _ = LiveMigration(mercury, dst).run()
    assert check_all(dst) == []
    _lifecycle(dst, landed)
    _squeeze_a_ballooned_guest(dst)
    assert check_all(dst) == []


def _squeeze_a_ballooned_guest(host) -> None:
    """The hypervisor-driven balloon: map pool frames into a hosted
    guest, take three of them back as victims (the frontend steals their
    pages) and touch the stolen pages so they fault back in."""
    cpu = host.machine.boot_cpu
    guest = host.host_guest(name="squeezee", image_pages=8, mem_pages=96,
                            mem_floor=24, balloon=True)
    front, back = host.balloons[guest.owner_id]
    task = guest.scheduler.current
    front.map_pool_frames(cpu, task, 6)
    victims = sorted(front._rmap)[:3]
    stolen = [front._rmap[frame][1] for frame in victims]
    target = back.guest_domain.mem_pages - len(victims)
    back.set_target(cpu, target, victims=victims)
    if back.guest_domain.mem_pages > target:
        front.process_target(cpu)
    assert all(task.aspace.get_pte(vaddr) is None for vaddr in stolen)
    for vaddr in stolen:
        guest.vmem.access(guest.boot_cpu, task, vaddr, write=True)


@pytest.mark.parametrize("kind", KINDS)
def test_a_write_or_mprotect_on_one_side_leaves_the_other(kind):
    mercury, kernel = _stack(kind, image_pages=16)
    cpu = mercury.machine.boot_cpu
    parent = kernel.scheduler.current
    _fork(kind, kernel)
    child = _fork(kind, kernel)
    before = _fields(parent.aspace)
    for i in range(4):                      # COW breaks in the child
        kernel.vmem.access(cpu, child, IMAGE_BASE + i * PAGE_SIZE,
                           write=True)
    assert _fields(parent.aspace) == before
    before = _fields(child.aspace)
    kernel.syscall(cpu, "mprotect", IMAGE_BASE, 16 * PAGE_SIZE, True)
    assert _fields(child.aspace) == before
    assert all(writable for _, _, writable, _, _
               in _fields(parent.aspace).values())
    _check(mercury, kind)
