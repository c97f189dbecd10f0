"""Elastic reclaim policy properties, hypothesis-driven.

The load-bearing claim: **frame ownership is conserved**.  Under any
policy schedule — either strategy, any pressure pattern, any step sizes —
every frame a guest balloons out is either in the host free pool or
re-granted to a domain; the owner column and the reservation ledger move
in lockstep (Δowned == Δledger per domain), no frame is double-owned, no
domain is reclaimed below its floor, and the host keeps its headroom.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, Mercury, small_config
from repro.hw.machine import reset_machine_ids
from repro.vmm.elastic import (HOST_HEADROOM_FRAMES, STRATEGIES,
                               ElasticMemoryController)


def _build(num_guests: int, reservations, floors):
    machine = Machine(small_config())
    mercury = Mercury(machine)
    mercury.create_kernel(name="driver", image_pages=16)
    cpu = machine.boot_cpu
    mercury.attach(cpu)
    guests = []
    for i in range(num_guests):
        guests.append(mercury.host_guest(
            name=f"g{i}", image_pages=8,
            mem_pages=reservations[i], mem_floor=floors[i]))
    return machine, mercury, cpu, guests


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ownership_conserved_under_any_policy_schedule(data):
    reset_machine_ids()
    strategy = data.draw(st.sampled_from(STRATEGIES))
    num_guests = data.draw(st.integers(1, 3))
    reservations = [data.draw(st.integers(40, 80), label=f"mem{i}")
                    for i in range(num_guests)]
    floors = [data.draw(st.integers(0, 32), label=f"floor{i}")
              for i in range(num_guests)]
    machine, mercury, cpu, guests = _build(num_guests, reservations, floors)
    mem = machine.memory

    # map part of guest 0's reservation so hypervisor-driven victim
    # picking has hot frames to steal
    front0, _ = mercury.balloons[guests[0].owner_id]
    front0.map_pool_frames(cpu, guests[0].scheduler.current,
                           data.draw(st.integers(0, 8), label="mapped"))

    pressures: dict[int, int] = {}
    controller = ElasticMemoryController(
        mercury, strategy,
        reclaim_step=data.draw(st.integers(1, 24), label="reclaim_step"),
        grant_step=data.draw(st.integers(1, 24), label="grant_step"),
        pressure_fn=lambda owner: pressures.get(owner, 0))

    base = {g.owner_id: (len(mem.frames_owned_by(g.owner_id)),
                         mercury.vmm.domains[g.owner_id].mem_pages)
            for g in guests}

    rounds = data.draw(st.integers(1, 6), label="rounds")
    for _ in range(rounds):
        for g in guests:
            pressures[g.owner_id] = data.draw(st.integers(0, 1))
        controller.step(cpu)

        for g in guests:
            dom = mercury.vmm.domains[g.owner_id]
            owned0, ledger0 = base[g.owner_id]
            owned = len(mem.frames_owned_by(g.owner_id))
            # conservation: the owner column and the ledger move together
            assert owned - owned0 == dom.mem_pages - ledger0, (
                f"{strategy}: domain {g.owner_id} owns {owned} frames but "
                f"ledger says {dom.mem_pages} (base {owned0}/{ledger0})")
            # the floor is inviolable
            assert dom.mem_pages >= dom.mem_floor
        # a grant never starves the host
        assert mem.free_frames >= 0
        if controller.pages_granted:
            assert mem.free_frames >= HOST_HEADROOM_FRAMES

    # no frame is double-owned: the per-owner frame sets partition memory
    seen: set[int] = set()
    for g in guests:
        frames = set(int(f) for f in mem.frames_owned_by(g.owner_id))
        assert not (frames & seen)
        seen |= frames


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), strategy=st.sampled_from(STRATEGIES))
def test_policy_is_deterministic(seed, strategy):
    """Same stack, same schedule, same decisions — the controller is a
    pure function of simulator state."""
    logs = []
    for _ in range(2):
        reset_machine_ids()
        machine, mercury, cpu, guests = _build(
            2, [48 + seed % 16, 56], [16, 8])
        controller = ElasticMemoryController(
            mercury, strategy, pressure_fn=lambda owner: owner % 2)
        for _round in range(4):
            controller.step(cpu)
        logs.append((controller.log, controller.summary()))
    assert logs[0] == logs[1]
