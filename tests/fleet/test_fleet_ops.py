"""Fleet operations: determinism, conservation, and wave guarantees.

The headline properties from the issue:

- ``workers=k`` fleet output is byte-identical to ``workers=1`` for
  every scenario (hypothesis over fleet shape and seed, inline shards);
- request conservation — every generated request is dispatched exactly
  once and completes exactly once, nothing lost across drain waves,
  evacuations, and chaos recoveries;
- the wave never routes to a draining machine under the switch-aware
  policy, and *no* policy ever routes to a switching/down machine;
- the latency histogram carried through ``MetricsSnapshot.merge`` equals
  the frontend's own per-phase merge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (FleetOrchestrator, LatencyHistogram,
                         fleet_latency_histogram, run_fleet)

#: small-but-real fleet defaults for property runs: gap sized so a
#: 2-machine fleet is still comfortably under-loaded
QUICK = dict(transport="inline", mean_gap_cycles=150_000,
             mean_service_cycles=120_000, log_requests=True)


def _run(scenario, machines, seed, workers, **kw):
    args = dict(QUICK)
    args.update(kw)
    return run_fleet(scenario=scenario, machines=machines, seed=seed,
                     workers=workers, requests=machines * 12, **args)


# -- determinism -----------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(scenario=st.sampled_from(("liveupdate", "maintenance", "cluster")),
       machines=st.integers(min_value=3, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31))
def test_workers_k_byte_identical_to_workers_1(scenario, machines, seed):
    base = _run(scenario, machines, seed, workers=1)
    base_bytes = base.canonical_output()
    for k in (2, 4):
        sharded = _run(scenario, machines, seed, workers=k)
        assert sharded.canonical_output() == base_bytes
        assert sharded.fleet.metrics == base.fleet.metrics


def test_same_seed_reproduces_different_seed_differs():
    a = _run("liveupdate", 3, seed=42, workers=1)
    b = _run("liveupdate", 3, seed=42, workers=1)
    c = _run("liveupdate", 3, seed=43, workers=1)
    assert a.canonical_output() == b.canonical_output()
    assert c.canonical_output() != a.canonical_output()


# -- conservation ----------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(scenario=st.sampled_from(("liveupdate", "maintenance", "cluster")),
       machines=st.integers(min_value=3, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31),
       arrival=st.sampled_from(("poisson", "pareto")))
def test_request_conservation(scenario, machines, seed, arrival):
    res = _run(scenario, machines, seed, workers=2, arrival=arrival)
    fr = res.frontend
    assert fr["dispatched"] == fr["requests"]
    assert fr["completed"] == fr["requests"]
    assert fr["in_flight_residual"] == 0
    served = 0
    for i, row in res.fleet.node_results.items():
        if i == 0:
            continue
        assert row["queued_residual"] == 0
        served += row["served"]
    assert served == fr["requests"]


# -- wave routing guarantees -----------------------------------------------

def _wave_intervals(frontend):
    """(machine, closed-out interval) pairs from the drain log; a
    machine that never rejoined (evacuated) keeps an open end."""
    for entry in frontend["drain_log"]:
        yield (entry["machine"], entry["drain_at"], entry["switch_at"],
               entry["ready_at"])


@settings(max_examples=6, deadline=None)
@given(scenario=st.sampled_from(("liveupdate", "maintenance", "cluster")),
       machines=st.integers(min_value=3, max_value=5),
       seed=st.integers(min_value=0, max_value=2**31))
def test_wave_never_routes_to_draining_machine(scenario, machines, seed):
    """Switch-aware: from the drain announcement to the rejoin, not one
    request lands on the machine."""
    res = _run(scenario, machines, seed, workers=1)
    fr = res.frontend
    assert fr["forced_dispatches"] == 0
    log = fr["request_log"]
    for machine, drain_at, switch_at, ready_at in _wave_intervals(fr):
        assert drain_at <= switch_at
        if ready_at >= 0:
            assert switch_at <= ready_at
        for _req, target, cycle, _phase in log:
            if target != machine:
                continue
            in_wave = cycle >= drain_at and (ready_at < 0
                                             or cycle < ready_at)
            assert not in_wave, (
                f"request dispatched to machine {machine} at {cycle} "
                f"inside its wave [{drain_at}, {ready_at})")


@pytest.mark.parametrize("policy", ["round-robin", "least-outstanding"])
def test_no_policy_routes_to_switching_machine(policy):
    """Drain-blind policies may hit DRAINING, but the hard guarantee —
    never dispatch into the switch itself — holds for all of them."""
    res = _run("liveupdate", 4, seed=9, workers=1, policy=policy)
    fr = res.frontend
    assert fr["completed"] == fr["requests"]
    log = fr["request_log"]
    hit_draining = 0
    for machine, drain_at, switch_at, ready_at in _wave_intervals(fr):
        for _req, target, cycle, _phase in log:
            if target != machine:
                continue
            assert not (switch_at <= cycle and
                        (ready_at < 0 or cycle < ready_at))
            if drain_at <= cycle < switch_at:
                hit_draining += 1
    # bookkeeping sanity: the counter exists even if this seed's drains
    # are instant (nothing outstanding when the wave arrives)
    assert hit_draining >= 0


# -- scenario effects ------------------------------------------------------

def test_rolling_update_patches_every_serving_machine():
    res = _run("liveupdate", 4, seed=3, workers=2)
    fr = res.frontend
    assert fr["updated_machines"] == [1, 2, 3, 4]
    for i, row in res.fleet.node_results.items():
        if i == 0:
            continue
        assert row["updates_applied"] == 1
        assert row["mode"] == "native"          # detached after the patch
        assert row["mode_switches"] >= 2        # attach + detach at least
    # the wave interval is recorded and ordered
    assert 0 <= fr["wave_start_cycle"] < fr["wave_end_cycle"]


def test_rolling_update_patch_runs_on_every_updated_machine(monkeypatch):
    """The wave's payload is live: once updated, a machine's ``getpid``
    answers with the patched pid + 1000."""
    from repro.fleet import orchestrator
    built = {}
    real_build = orchestrator.build_fleet_node

    def build(index, seed, **kwargs):
        built[index] = real_build(index, seed, **kwargs)
        return built[index]

    monkeypatch.setattr(orchestrator, "build_fleet_node", build)
    res = _run("liveupdate", 3, seed=3, workers=1)
    assert res.frontend["updated_machines"] == [1, 2, 3]
    for index in res.frontend["updated_machines"]:
        kernel = built[index].kernel
        task = kernel.scheduler.current
        assert kernel.syscall(kernel.boot_cpu, "getpid") == task.pid + 1000


def test_maintenance_round_trip():
    res = _run("maintenance", 4, seed=5, workers=2, maintain_count=2)
    fr = res.frontend
    assert len(fr["maintained_machines"]) == 2
    for i in fr["maintained_machines"]:
        row = res.fleet.node_results[i]
        assert row["maintenances"] == 1
        assert row["mode"] == "native"


def test_cluster_evacuation_promotes_spares():
    res = _run("cluster", 5, seed=8, workers=2,
               evacuations=2, chaos_events=1)
    fr = res.frontend
    assert len(fr["evacuated_machines"]) == 2
    for i in fr["evacuated_machines"]:
        row = res.fleet.node_results[i]
        assert row["evacuated"] is True
        assert row["queued_residual"] == 0     # drained before leaving
    # chaos struck, was detected, and the machine recovered in place
    assert len(fr["chaos_log"]) == 1
    (victim, _site, detected, mttr, _elapsed) = fr["chaos_log"][0]
    assert detected is True
    assert mttr >= 0
    assert res.fleet.node_results[victim]["chaos_recoveries"] == 1
    assert res.fleet.node_results[victim]["mode"] == "native"
    # conservation held through failures
    assert fr["completed"] == fr["requests"]


def test_frontend_keeps_no_request_log_unless_asked(monkeypatch):
    """The per-request log is kept only with ``log_requests`` on."""
    from repro.fleet import orchestrator

    nodes = []
    build = orchestrator.build_fleet_node

    def keep(index, seed, **kwargs):
        nodes.append(build(index, seed, **kwargs))
        return nodes[-1]

    monkeypatch.setattr(orchestrator, "build_fleet_node", keep)
    res = _run("liveupdate", 3, seed=4, workers=1, log_requests=False)
    assert res.frontend["completed"] == res.frontend["requests"]
    assert "request_log" not in res.frontend
    assert not nodes[0].request_log


# -- metrics carry ---------------------------------------------------------

def test_merged_snapshot_carries_fleet_latency_histogram():
    res = _run("liveupdate", 3, seed=13, workers=2)
    merged = fleet_latency_histogram(res)
    assert merged.count == res.frontend["completed"]
    # identical to what the frontend's per-phase histograms merge to:
    # the snapshot path through MetricsSnapshot.merge loses nothing
    phase_counts = sum(res.frontend["percentiles"][p]["count"]
                      for p in ("steady", "wave", "after"))
    assert phase_counts == merged.count
    assert merged.percentile(0.5) is not None


# -- configuration validation ----------------------------------------------

def test_orchestrator_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        FleetOrchestrator(scenario="bluegreen")
    with pytest.raises(ValueError, match="unknown policy"):
        FleetOrchestrator(policy="random")
    with pytest.raises(ValueError, match="unknown arrival"):
        FleetOrchestrator(arrival="uniform")
    with pytest.raises(ValueError, match="at least two"):
        FleetOrchestrator(machines=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_process_transport_matches_inline(workers):
    serial = _run("liveupdate", 3, seed=21, workers=1)
    procs = run_fleet(scenario="liveupdate", machines=3, seed=21,
                      workers=workers, requests=36, transport="process",
                      mean_gap_cycles=150_000, mean_service_cycles=120_000,
                      log_requests=True)
    assert procs.canonical_output() == serial.canonical_output()
    assert procs.fleet.metrics == serial.fleet.metrics
