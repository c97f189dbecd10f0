"""Balloon split-driver datapath: inflate/deflate, surrender safety,
dirty-root accounting, the wedged-ring fault site, and the refcount-site
rename compat."""

import pytest

from repro import faults
from repro.core.recovery import RecoveryManager
from repro.errors import DomainError, PageValidationError
from repro.hw.memory import OWNER_FREE
from repro.hw.paging import pte_frame
from repro.metrics import MetricsCollector
from repro.vmm.backend import BalloonBack, BalloonRingEntry
from repro.watchdog import Watchdog


@pytest.fixture
def hosted(mercury, cpu):
    """Attached Mercury hosting one ballooned guest."""
    mercury.attach(cpu)
    guest = mercury.host_guest(name="ball-guest", image_pages=8,
                               mem_pages=64, mem_floor=16)
    front, back = mercury.balloons[guest.owner_id]
    dom = mercury.vmm.domains[guest.owner_id]
    return mercury, guest, front, back, dom


def test_reservation_established(hosted):
    mercury, guest, front, back, dom = hosted
    mem = mercury.machine.memory
    assert dom.mem_pages == 64
    assert dom.mem_floor == 16
    assert len(mem.frames_owned_by(guest.owner_id)) == 64
    assert len(front.pool) > 0


def test_inflate_surrenders_to_host_pool(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    mem = mercury.machine.memory
    free0 = mem.free_frames
    owned0 = len(mem.frames_owned_by(guest.owner_id))
    back.set_target(cpu, 48)
    assert dom.mem_pages == 48
    assert len(mem.frames_owned_by(guest.owner_id)) == owned0 - 16
    assert mem.free_frames == free0 + 16
    assert back.inflated == 16


def test_deflate_regrows_reservation(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    pool0 = len(front.pool)
    back.set_target(cpu, 80)
    assert dom.mem_pages == 80
    assert len(front.pool) == pool0 + 16
    assert back.deflated == 16
    assert len(mercury.machine.memory.frames_owned_by(guest.owner_id)) == 80


def test_snapshot_counts_balloon_traffic(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    collector = MetricsCollector(mercury.machine, mercury=mercury)
    before = collector.snapshot()
    back.set_target(cpu, dom.mem_pages - 16)
    back.set_target(cpu, dom.mem_pages + 8)
    delta = collector.snapshot() - before
    assert (delta.balloon_inflated, delta.balloon_deflated) == (16, 8)


def test_inflate_deflate_round_trip_conserves(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    mem = mercury.machine.memory
    owned0 = len(mem.frames_owned_by(guest.owner_id))
    for _ in range(3):
        back.set_target(cpu, dom.mem_pages - 16)
        back.set_target(cpu, dom.mem_pages + 16)
    assert dom.mem_pages == 64
    assert len(mem.frames_owned_by(guest.owner_id)) == owned0


def test_surrender_refuses_mapped_and_pt_frames(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    pi = mercury.vmm.page_info
    # map some pool frames into the guest init task; those frames (and
    # the page tables backing them) must be refused by release_frame
    init = guest.scheduler.current
    front.map_pool_frames(cpu, init, 4)
    mapped = next(iter(front._rmap))
    with pytest.raises(PageValidationError):
        pi.release_frame(mapped)
    pgd = init.aspace.pgd.frame
    with pytest.raises(PageValidationError):
        pi.release_frame(pgd)


def test_balloon_ledger_never_negative(hosted):
    mercury, guest, front, back, dom = hosted
    with pytest.raises(DomainError):
        dom.balloon_adjust(-(dom.mem_pages + 1))


def test_below_floor_flag(hosted):
    mercury, guest, front, back, dom = hosted
    assert not dom.below_floor
    dom.mem_pages = dom.mem_floor - 1
    assert dom.below_floor
    dom.mem_pages = 0  # an unballooned domain has no floor semantics
    assert not dom.below_floor


def test_map_pool_frames_dirties_root(mercury, cpu):
    """Dom0 ballooning in native mode must mark the receiving root dirty
    so the next attach revalidates exactly that root."""
    mercury.attach(cpu)
    front, back = mercury.connect_balloon()
    dom0 = mercury.domain
    back.set_target(cpu, dom0.mem_pages + 16)  # stock the pool
    mercury.detach(cpu)
    marks0 = mercury.mmu_log.balloon_marks
    task = mercury.kernel.scheduler.current
    front.map_pool_frames(cpu, task, 4)
    assert mercury.mmu_log.balloon_marks == marks0 + 1
    assert task.aspace.pgd.frame in mercury.mmu_log.dirty


def test_hypervisor_driven_victims_fault_back(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    init = guest.scheduler.current
    front.map_pool_frames(cpu, init, 8)
    targets = sorted(vaddr for _t, vaddr in front._rmap.values())
    victims = tuple(sorted(front.resident_frames, reverse=True)[:8])
    back.set_target(cpu, dom.mem_pages - 8, victims=victims)
    assert dom.mem_pages == 56
    assert front.victim_unmaps > 0
    faults0 = guest.vmem.minor_faults
    for vaddr in targets:
        guest.vmem.access(cpu, init, vaddr, write=True)
    assert guest.vmem.minor_faults - faults0 == front.victim_unmaps


def _guest_shares_hold(guest) -> bool:
    """The guest kernel's share counts equal its tasks' mappings (the
    refcount law, which ``check_all`` applies to Mercury's own kernel)."""
    actual: dict[int, int] = {}
    for aspace in guest.aspaces:
        for frame in aspace.mapped_frames():
            actual[frame] = actual.get(frame, 0) + 1
    return guest.vmem.shares() == actual


@pytest.mark.parametrize("broken", [False, True],
                         ids=["fork-shared", "cow-broken"])
@pytest.mark.parametrize("driven", [False, True],
                         ids=["guest-delegated", "hypervisor-driven"])
def test_inflate_keeps_a_page_a_fork_shares(hosted, cpu, driven, broken):
    """A region page whose frame a fork shares, or whose vaddr a COW break
    moved to a copy, is no victim on either inflate path: it stays mapped
    in the guest and no other frame goes in its place.  A shared page
    stays in the region map; a moved one leaves it (and the guest-delegated
    path's order, which meets it first), as its frame is no longer the
    region's."""
    mercury, guest, front, back, dom = hosted
    mem = mercury.machine.memory
    task = guest.scheduler.current
    front.map_pool_frames(cpu, task, len(front.pool))
    guest.procs.fork(cpu, task)
    frame = front._order[-1]         # the guest-delegated path's first pick
    if broken:                       # the parent writes: it takes a copy
        guest.vmem.access(cpu, task, front._rmap[frame][1], write=True)
    rmap, order = dict(front._rmap), list(front._order)
    if broken:
        del rmap[frame]
        if not driven:
            order.remove(frame)
    owned = mem.frames_owned_by(guest.owner_id).tolist()
    assert front.inflate(cpu, 1, victims=(frame,) if driven else ()) == 0
    assert front._rmap == rmap and front._order == order
    assert mem.frames_owned_by(guest.owner_id).tolist() == owned
    assert _guest_shares_hold(guest)


@pytest.mark.parametrize("case", ["cow-break", "task-exit"])
def test_region_map_names_only_pages_its_tasks_map(hosted, cpu, case):
    """Once a COW break moves a region page to a copy, or the task that
    mapped a region exits, the old frames leave the region map: the
    resident view the host's reclaim picks victims from holds only frames
    the guest owns, each region frame mapped at its recorded vaddr."""
    mercury, guest, front, back, dom = hosted
    mem = mercury.machine.memory
    task = guest.scheduler.current
    if case == "cow-break":          # the parent writes, the child dies
        front.map_pool_frames(cpu, task, len(front.pool))
        child = guest.procs.fork(cpu, task)
        frame = front._order[-1]
        guest.vmem.access(cpu, task, front._rmap[frame][1], write=True)
    else:                            # a child maps a region, then dies
        child = guest.procs.fork(cpu, task)
        frames = front.pool[-8:]
        front.map_pool_frames(cpu, child, 8)
    guest.run_and_reap(cpu, child)
    resident = front.resident_frames
    assert all(mem.owner[f] == guest.owner_id for f in resident)
    if case == "cow-break":
        assert mem.owner[frame] == OWNER_FREE and frame not in resident
    else:
        assert not set(frames) & set(resident)
    for f, (t, vaddr) in front._rmap.items():
        assert pte_frame(t.aspace.get_pte(vaddr)) == f


def test_refcount_site_rename_compat():
    assert faults.VMM_REFCOUNT_RUNAWAY == "vmm.refcount-runaway"
    assert faults.site(faults.VMM_REFCOUNT_RUNAWAY).during_switch is False


def test_balloon_wedge_requires_backend(mercury, cpu):
    mercury.attach(cpu)
    from repro.errors import VMMError
    with pytest.raises(VMMError):
        faults.inject_vmm_fault(faults.VMM_BALLOON_WEDGED, mercury)


def test_wedged_doorbell_detected_and_recovered(hosted, cpu):
    """The balloon fault site: a lost doorbell is structural, detected in
    one scan, and cleared by the microreboot (fresh rings)."""
    mercury, guest, front, back, dom = hosted
    watchdog = Watchdog(mercury, suspect_scans=1)
    manager = RecoveryManager(mercury)
    assert watchdog.scan(cpu) is None
    what = faults.inject_vmm_fault(faults.VMM_BALLOON_WEDGED, mercury)
    assert "doorbell lost" in what
    verdict = watchdog.scan(cpu)
    assert verdict is not None and verdict.invariant == "balloon-ring"
    record = manager.recover(verdict, cpu=cpu)
    assert record.success
    assert watchdog.scan(cpu) is None


def test_unconsumed_extents_need_double_observation(hosted, cpu):
    """Requests sitting in the ring are only suspicious if they persist:
    one scan mid-submit must not fire, two must."""
    mercury, guest, front, back, dom = hosted
    watchdog = Watchdog(mercury, suspect_scans=2)
    # wedge the backend silently: kill its poll, then submit a deflate
    back._in_poll = True
    entry_count0 = back.requests_handled
    front.ring.push_request(BalloonRingEntry(op="deflate", count=4))
    front.ring.push_requests_and_check_notify()
    back._in_poll = False
    assert watchdog.scan(cpu) is None  # first observation: suspect only
    verdict = watchdog.scan(cpu)
    assert verdict is not None and verdict.invariant == "balloon-ring"
    assert back.requests_handled == entry_count0


def test_variant_selects_flavor(hosted, cpu):
    mercury, guest, front, back, dom = hosted
    what = faults.inject_vmm_fault(faults.VMM_BALLOON_WEDGED, mercury,
                                   variant=1)
    assert "rsp_event" in what
