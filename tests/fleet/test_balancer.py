"""Load-balancer policies, lifecycle states, and routability rules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import LoadBalancer, MachineState, NoRoutableMachine


def test_round_robin_cycles_in_index_order():
    lb = LoadBalancer([1, 2, 3], policy="round-robin")
    picks = []
    for _ in range(6):
        i = lb.pick()
        lb.dispatched(i)
        picks.append(i)
    assert picks == [1, 2, 3, 1, 2, 3]


def test_least_outstanding_prefers_idle_machine():
    lb = LoadBalancer([1, 2, 3], policy="least-outstanding")
    lb.dispatched(1)
    lb.dispatched(1)
    lb.dispatched(2)
    assert lb.pick() == 3
    lb.dispatched(3)
    assert lb.pick() == 2  # ties broken by lower index


def test_switch_aware_skips_draining_but_least_outstanding_does_not():
    aware = LoadBalancer([1, 2], policy="switch-aware")
    naive = LoadBalancer([1, 2], policy="least-outstanding")
    for lb in (aware, naive):
        lb.dispatched(2)      # machine 1 now has the fewest outstanding
        lb.mark_draining(1)
    assert aware.pick() == 2  # drain respected
    assert naive.pick() == 1  # drain invisible to the naive policy


def test_switching_and_down_never_routable_under_any_policy():
    for policy in ("round-robin", "least-outstanding", "switch-aware"):
        lb = LoadBalancer([1, 2], policy=policy)
        lb.mark_switching(1)
        assert lb.pick() == 2
        lb.mark_down(2)
        with pytest.raises(NoRoutableMachine):
            lb.pick()


def test_spares_held_out_until_promoted():
    lb = LoadBalancer([1, 2, 3], spares=[3])
    assert lb.spare_machines() == [3]
    assert lb.serving_machines() == [1, 2]
    for _ in range(5):
        assert lb.pick() != 3
        lb.dispatched(lb.pick())
    lb.mark_ready(3)
    lb.dispatched(1)
    lb.dispatched(2)
    assert lb.pick() == 3


def test_drain_bookkeeping():
    lb = LoadBalancer([1, 2])
    lb.dispatched(1)
    lb.mark_draining(1)
    assert not lb.drained(1)
    lb.completed(1)
    assert lb.drained(1)
    with pytest.raises(RuntimeError, match="nothing outstanding"):
        lb.completed(1)


def test_validation():
    with pytest.raises(ValueError, match="unknown policy"):
        LoadBalancer([1], policy="random")
    with pytest.raises(ValueError, match="at least one machine"):
        LoadBalancer([])
    with pytest.raises(KeyError):
        LoadBalancer([1]).mark_down(7)


def _reference_pick(lb, rr_last):
    """The pick recomputed from scratch: sort every machine's state, then
    round-robin after ``rr_last`` or take the least-outstanding machine
    with the lower index winning ties (None when nothing is routable)."""
    ok = (MachineState.READY,) if lb.policy == "switch-aware" else (
        MachineState.READY, MachineState.DRAINING)
    routable = [i for i in sorted(lb.state) if lb.state[i] in ok]
    if not routable:
        return None
    if lb.policy == "round-robin":
        return next((i for i in routable if i > rr_last), routable[0])
    return min(routable, key=lambda i: (lb.outstanding[i], i))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       policy=st.sampled_from(("round-robin", "least-outstanding",
                               "switch-aware")),
       ops=st.lists(st.integers(min_value=0, max_value=30), max_size=40))
def test_pick_never_returns_unroutable_machine(n, policy, ops):
    """Whatever the dispatch/state history, a pick is READY (or DRAINING
    only under the drain-blind policies) and equals the from-scratch
    reference pick."""
    lb = LoadBalancer(range(n), policy=policy)
    states = (MachineState.READY, MachineState.DRAINING,
              MachineState.SWITCHING, MachineState.DOWN, MachineState.SPARE)
    rr_last = -1
    for op in ops:
        machine, action = op % n, op % 5
        if action == 4:
            try:
                lb.completed(machine)
            except RuntimeError:
                pass
        else:
            lb.mark(machine, states[action])
        expected = _reference_pick(lb, rr_last)
        try:
            pick = lb.pick()
        except NoRoutableMachine:
            assert expected is None
            continue
        assert pick == expected
        rr_last = pick
        lb.dispatched(pick)
        ok = (MachineState.READY,) if policy == "switch-aware" else (
            MachineState.READY, MachineState.DRAINING)
        assert lb.state[pick] in ok
