"""Failure-prediction edges in the §6.5 cluster scenario.

Races the happy-path tests never hit: a predicted-failed node whose
sensors recover before the migration completes, two simultaneous
predictions contending for the same standby, and a warned node that
already hosts an earlier evacuee."""

from __future__ import annotations

import pytest

from repro.core.invariants import check_all
from repro.core.mercury import Mode
from repro.errors import MigrationError, ScenarioError
from repro.scenarios.cluster import HpcCluster, NodeState
from repro.scenarios.migration import LiveMigration


def _warn(node, temp=95.0):
    node.monitor.temperature_c = temp
    assert node.monitor.predicts_failure()


# -- recovery before the migration completes -------------------------------

def test_prediction_clears_mid_precopy_cancels_migration():
    """Sensors recover during pre-copy: the evacuation is abandoned, the
    node rolls back to native with its job intact, and the standby is
    left native too."""
    cluster = HpcCluster(num_nodes=2)
    node, standby = cluster.nodes
    node.job_progress = 0
    for _ in range(3):
        node.run_job_step()
    _warn(node)

    def recover(round_no):
        node.monitor.temperature_c = 45.0  # transient event passes

    survivor = cluster.handle_warning(node, mutator=recover,
                                      cancel_on_recovery=True)
    assert survivor is node
    assert node.state is NodeState.HEALTHY
    assert node.mercury.mode is Mode.NATIVE
    assert standby.mercury.mode is Mode.NATIVE
    assert cluster.evacuations == 0
    assert node.job_progress == 3
    node.run_job_step()                     # the job keeps running here
    assert node.job_progress == 4


def test_cancelled_node_can_still_evacuate_later():
    """The rollback leaves the stack reusable: a later (real) prediction
    evacuates normally."""
    cluster = HpcCluster(num_nodes=2)
    node, standby = cluster.nodes
    node.job_progress = 5
    _warn(node)
    cluster.handle_warning(
        node,
        mutator=lambda r: setattr(node.monitor, "temperature_c", 50.0),
        cancel_on_recovery=True)
    assert node.state is NodeState.HEALTHY

    _warn(node)
    hosted_by = cluster.handle_warning(node)
    assert hosted_by is standby
    assert node.state is NodeState.EVACUATED
    assert standby.job_progress == 5
    assert cluster.evacuations == 1


def test_recovery_after_stop_and_copy_is_too_late():
    """Once pre-copy ends, the switchover is committed: a recovery that
    lands during the *last* round check no longer helps — without
    ``cancel_on_recovery`` the migration just completes."""
    cluster = HpcCluster(num_nodes=2)
    node, standby = cluster.nodes
    node.job_progress = 1
    _warn(node)
    flips = []

    def recover_late(round_no):
        flips.append(round_no)
        node.monitor.temperature_c = 45.0

    hosted_by = cluster.handle_warning(node, mutator=recover_late)
    assert hosted_by is standby
    assert node.state is NodeState.EVACUATED
    assert flips  # the sensors did recover, but nobody was rechecking


def test_no_prediction_is_rejected():
    cluster = HpcCluster(num_nodes=2)
    with pytest.raises(ScenarioError, match="no failure prediction"):
        cluster.handle_warning(cluster.nodes[0])


# -- two predictions racing for the standby pool ---------------------------

def test_simultaneous_predictions_take_distinct_standbys():
    """With enough healthy peers, the second prediction must not pile
    onto the standby the first one took."""
    cluster = HpcCluster(num_nodes=4)
    n0, n1, n2, n3 = cluster.nodes
    _warn(n0)
    _warn(n1)

    first = cluster.handle_warning(n0)
    second = cluster.handle_warning(n1)
    assert first is n2
    assert second is n3                     # not n2 again
    assert len(n2.mercury.guests) == 1
    assert len(n3.mercury.guests) == 1
    assert cluster.evacuations == 2


def test_simultaneous_predictions_share_the_last_standby():
    """With one healthy peer left, the second evacuee lands as a second
    hosted guest on the same standby instead of being dropped."""
    cluster = HpcCluster(num_nodes=3)
    n0, n1, n2 = cluster.nodes
    n0.job_progress = 7
    n1.job_progress = 9
    _warn(n0)
    _warn(n1)

    assert cluster.handle_warning(n0) is n2
    assert cluster.handle_warning(n1) is n2
    assert len(n2.mercury.guests) == 2
    assert n0.state is NodeState.EVACUATED
    assert n1.state is NodeState.EVACUATED
    # job bookkeeping follows the most recent evacuee (documented quirk
    # of the scalar job slot; the hosted kernels both run)
    assert n2.job_progress == 9


def test_warned_node_is_not_a_standby():
    """A node whose own sensors fired must never be chosen to host an
    evacuee, even before its migration starts."""
    cluster = HpcCluster(num_nodes=3)
    n0, n1, n2 = cluster.nodes
    _warn(n0)
    _warn(n1)
    n1.state = NodeState.WARNED             # n1's evacuation is pending
    assert cluster.handle_warning(n0) is n2


def test_all_peers_unhealthy_raises_cleanly():
    cluster = HpcCluster(num_nodes=2)
    n0, n1 = cluster.nodes
    _warn(n0)
    n1.state = NodeState.FAILED
    with pytest.raises(ScenarioError, match="no healthy standby"):
        cluster.handle_warning(n0)
    # the failed lookup happened before any mode switch: n0 untouched
    assert n0.mercury.mode is Mode.NATIVE


# -- a warned node that hosts an earlier evacuee -----------------------------

def _chained_evacuation():
    """n0 evacuates to n1; then n1 is warned while hosting n0's OS."""
    cluster = HpcCluster(num_nodes=3)
    n0, n1, n2 = cluster.nodes
    _warn(n0)
    assert cluster.handle_warning(n0) is n1
    _warn(n1)
    return cluster, n1, n2


def test_evacuation_moves_hosted_guests_first():
    """Evacuating n1 takes n0's OS along instead of stranding it on a
    node whose own kernel has left."""
    cluster, n1, n2 = _chained_evacuation()
    assert cluster.handle_warning(n1) is n2
    assert n1.mercury.guests == []
    assert [g.name for g in n2.mercury.guests] == ["node0-linux",
                                                  "node1-linux"]
    assert check_all(n1.mercury) == []
    assert check_all(n2.mercury) == []

    guest = n2.mercury.guests[0]
    cpu = n2.machine.boot_cpu
    fd = guest.syscall(cpu, "open", "/after-evacuation", True)
    guest.syscall(cpu, "write", fd, "still-here", 4096)
    guest.syscall(cpu, "fsync", fd)
    guest.syscall(cpu, "lseek", fd, 0)
    assert guest.syscall(cpu, "read", fd, 4096) == ["still-here"]


def test_own_os_move_refused_while_hosting_guests():
    """Moving a node's own OS out from under its hosted guests is refused
    before any page is sent; the target is left as it was."""
    cluster, n1, n2 = _chained_evacuation()
    n1.mercury.full_virtualize()
    n2.mercury.attach()
    t0 = cluster.clock.cycles
    with pytest.raises(MigrationError, match="hosts 1 guest"):
        LiveMigration(n1.mercury, n2.mercury).run()
    assert cluster.clock.cycles == t0
    assert n2.mercury.guests == []
    assert [g.name for g in n1.mercury.guests] == ["node0-linux"]
    assert n1.mercury.kernel.booted
    assert check_all(n1.mercury) == []


def test_prediction_clears_while_moving_a_hosted_guest():
    """Cancelled mid-way through the guest move: the guest stays hosted
    where it was, so the node stays attached for it."""
    cluster, n1, n2 = _chained_evacuation()
    survivor = cluster.handle_warning(
        n1, mutator=lambda r: setattr(n1.monitor, "temperature_c", 45.0),
        cancel_on_recovery=True)
    assert survivor is n1
    assert n1.state is NodeState.HEALTHY
    assert n1.mercury.mode is Mode.PARTIAL_VIRTUAL
    assert [g.name for g in n1.mercury.guests] == ["node0-linux"]
    assert n2.mercury.mode is Mode.NATIVE
    assert check_all(n1.mercury) == []
