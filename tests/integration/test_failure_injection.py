"""Failure injection and resource-exhaustion edge cases.

The dependability claims only mean something if the system degrades
cleanly when resources run out or components misbehave: exhausted memory,
overrun rings, aborted migrations, dead backends.
"""

import pytest

from repro import Machine, Mercury, small_config
from repro.core.mercury import Mode
from repro.core.native_vo import NativeVO
from repro.errors import (HypercallError, OutOfMemory, PageValidationError,
                          RingError)
from repro.guestos.kernel import Kernel
from repro.params import PAGE_SIZE


# ---------------------------------------------------------------------------
# memory exhaustion
# ---------------------------------------------------------------------------

def test_mmap_populate_oom_surfaces_cleanly():
    machine = Machine(small_config(mem_kb=1024))  # 256 frames, tiny
    k = Kernel(machine, NativeVO(machine), name="tiny")
    k.boot(image_pages=4)
    cpu = machine.boot_cpu
    with pytest.raises(OutOfMemory):
        k.syscall(cpu, "mmap", 64 * 1024 * 1024, True)
    # the kernel is still alive afterwards
    assert k.syscall(cpu, "getpid") >= 1


def test_fork_bomb_hits_oom_not_corruption():
    machine = Machine(small_config(mem_kb=2048))
    k = Kernel(machine, NativeVO(machine), name="bomb")
    k.boot(image_pages=16)
    cpu = machine.boot_cpu
    with pytest.raises(OutOfMemory):
        for _ in range(10_000):
            k.syscall(cpu, "fork")
    # whatever was created is still consistent
    for task in k.procs.live_tasks():
        assert task.aspace.mapped_count() >= 0


def test_attach_survives_after_prior_oom(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    with pytest.raises(OutOfMemory):
        k.syscall(cpu, "mmap", 1 << 34, True)
    rec = mercury.attach()
    assert rec is not None and mercury.mode is Mode.PARTIAL_VIRTUAL
    mercury.detach()


# ---------------------------------------------------------------------------
# isolation under attack
# ---------------------------------------------------------------------------

def test_guest_cannot_map_foreign_frame_via_hypercall(mercury):
    """A (buggy or malicious) guest trying to map another owner's frame is
    stopped by validation — in every virtual-mode path."""
    from repro.hw.paging import pte
    mercury.attach()
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    foreign = mercury.machine.memory.alloc(777)
    aspace = k.scheduler.current.aspace
    with pytest.raises(PageValidationError):
        k.vo.set_pte(cpu, aspace, 0x6666_0000, pte(foreign))
    # the mapping did not happen
    assert aspace.get_pte(0x6666_0000) is None
    mercury.detach()


def test_guest_cannot_selfmap_its_page_tables_writable(mercury):
    from repro.hw.paging import pte
    mercury.attach()
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    aspace = k.scheduler.current.aspace
    with pytest.raises(PageValidationError):
        k.vo.set_pte(cpu, aspace, 0x6666_0000,
                     pte(aspace.pgd_frame, writable=True))
    mercury.detach()


def test_hosted_guest_cannot_touch_host_devices(mercury):
    from repro.hw.devices import BlockRequest
    mercury.attach()
    guest = mercury.host_guest()
    cpu = mercury.machine.boot_cpu
    with pytest.raises(HypercallError):
        guest.vo.disk_submit(cpu, BlockRequest(op="read", block=0))


# ---------------------------------------------------------------------------
# transport failures
# ---------------------------------------------------------------------------

def test_ring_overrun_is_an_error_not_corruption():
    from repro.vmm.rings import IoRing
    ring = IoRing(size=2)
    ring.push_request("a")
    ring.push_request("b")
    with pytest.raises(RingError):
        ring.push_request("c")
    # the two queued requests are intact
    assert ring.pop_request() == "a"
    assert ring.pop_request() == "b"
    ring.check_invariants()


def test_migration_failure_leaves_target_clean():
    """If migration prerequisites fail, neither side is half-migrated."""
    from repro.errors import MigrationError
    from repro.scenarios.migration import LiveMigration

    src_machine = Machine(small_config())
    src = Mercury(src_machine)
    src.create_kernel(name="src")
    dst = Mercury(Machine(small_config(), clock=src_machine.clock))
    dst.create_kernel(name="dst")
    dst.attach()
    # source never entered full-virtual mode: refused up front
    with pytest.raises(MigrationError):
        LiveMigration(src, dst).run()
    assert dst.guests == []
    assert src.mode is Mode.NATIVE
    assert len(src.kernel.procs.live_tasks()) == 1


def test_machine_failure_flag_is_inspectable():
    from repro.scenarios.cluster import HpcCluster
    cluster = HpcCluster(num_nodes=2)
    node = cluster.nodes[0]
    node.fail()
    assert node.machine.failed
    from repro.scenarios.cluster import NodeState
    assert node.state is NodeState.FAILED
    # the healthy peer is unaffected
    assert not cluster.nodes[1].machine.failed


# ---------------------------------------------------------------------------
# switch-engine edge cases
# ---------------------------------------------------------------------------

def test_switch_request_while_retry_pending_coalesces(mercury):
    """Two requests while busy: both resolve into one committed switch."""
    k = mercury.kernel
    k.vo.refcount += 1   # hold the gate
    mercury.attach(wait=False)
    mercury.engine.request(  # a second, redundant request
        __import__("repro.core.switch", fromlist=["Direction"]).Direction.TO_VIRTUAL)
    k.vo.refcount -= 1
    mercury._drain_until_committed(0)
    # drain the leftover duplicate retry too: it must be a harmless no-op
    mercury.machine.clock.drain_until_idle()
    mercury.machine.poll()
    committed = [r for r in mercury.engine.records]
    assert len(committed) == 1
    assert mercury.mode is Mode.PARTIAL_VIRTUAL


def test_checkpoint_of_empty_kernel(mercury):
    """Degenerate but legal: checkpoint right after boot, restore works."""
    from repro.scenarios.checkpoint import checkpoint, restore
    img = checkpoint(mercury)
    restore(img, mercury)
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
