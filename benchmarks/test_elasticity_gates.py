"""Memory-elasticity bench gates: attach-time drift vs. balloon churn,
the reclaim-strategy ablation, and guest-domain fleet serving.

Records a ``memory`` section in ``BENCH_perf.json``:

- steady-state incremental attach stays under 50 µs at zero balloon
  churn (ballooning must not tax the paper's headline switch time when
  nothing ballooned);
- attach time grows monotonically with the churn rate — each ballooned
  root is revalidated once, nothing else is;
- the hypervisor-driven and guest-delegated reclaim strategies converge
  to identical final domain sizes, differing only in reclaim latency and
  victim-page-fault tax;
- frame ownership is conserved across the squeeze (Δowned == Δledger:
  every inflated frame is in the host free pool or re-granted, never
  double-owned);
- a fleet serving from hosted guest domains under the elastic controller
  is byte-identical at workers 1 and 4.
"""

from __future__ import annotations

from conftest import PERF, record
from repro.bench.elasticity import run_elasticity
from repro.fleet import run_fleet

#: the zero-churn gate: ballooning may not tax the steady attach path
MAX_STEADY_ATTACH_US = 50.0

FLEET_MACHINES = 6
FLEET_GUESTS = 2
SEED = 2007  # ICPP'07


def test_elasticity_gates_and_record():
    result = run_elasticity()
    summary = result.summary()

    # steady-state: zero churn keeps the incremental fast path
    assert result.steady_attach_us < MAX_STEADY_ATTACH_US, (
        f"zero-churn attach {result.steady_attach_us}us above the "
        f"{MAX_STEADY_ATTACH_US}us gate: ballooning taxed the trusted "
        f"fast path")

    # drift: attach cost is monotone in the number of ballooned roots,
    # and a churn-free re-attach always falls back near steady state
    assert result.drift_monotone, summary["drift_attach_us"]
    for entry in result.drift:
        assert entry["balloon_marks"] == entry["churn"]
        assert entry["reattach_us"] < MAX_STEADY_ATTACH_US

    # ablation: strategy changes the path, not the destination
    assert result.final_sizes_equal, {
        k: v["final_pages"] for k, v in result.ablation.items()}
    assert result.conservation_ok
    hyp = result.ablation["hypervisor-driven"]
    dele = result.ablation["guest-delegated"]
    for arm in (hyp, dele):
        assert arm["squeezed_pages"] == arm["floor"], (
            f"{arm['strategy']} never reached the floor")
        assert arm["pages_reclaimed"] > 0
        assert arm["reclaim_latency_cycles_max"] > 0
    # the fault tax is the ablation's point: host-picked victims are hot
    assert hyp["victim_unmaps"] > dele["victim_unmaps"]
    assert hyp["victim_faults"] > dele["victim_faults"]

    # guest-domain fleet serving: traffic flows through the hosted
    # domains, elasticity runs under load, and the shard count never
    # changes a byte
    serial = run_fleet(machines=FLEET_MACHINES, workers=1, seed=SEED,
                       scenario="liveupdate", requests=FLEET_MACHINES * 24,
                       guest_domains=FLEET_GUESTS)
    fanned = run_fleet(machines=FLEET_MACHINES, workers=4, seed=SEED,
                       scenario="liveupdate", requests=FLEET_MACHINES * 24,
                       guest_domains=FLEET_GUESTS)
    assert fanned.canonical_output() == serial.canonical_output()
    fleet_summary = serial.summary()
    assert fleet_summary["completed"] == fleet_summary["requests"]
    # every served request went to a guest domain at or above its floor
    assert fleet_summary["guest_served"] == fleet_summary["completed"]
    assert fleet_summary["floor_skips"] == 0

    record(PERF, "memory", {
        "workload": "run_elasticity(): dom0 balloon churn vs. incremental "
                    "attach drift, plus a hosted-guest squeeze-to-floor "
                    "ablation of the two reclaim strategies",
        "steady_attach_us": result.steady_attach_us,
        "steady_attach_gate_us": MAX_STEADY_ATTACH_US,
        "drift_attach_us": summary["drift_attach_us"],
        "drift_monotone": result.drift_monotone,
        "ablation": {
            strategy: {
                "final_pages": arm["final_pages"],
                "pages_reclaimed": arm["pages_reclaimed"],
                "pages_granted": arm["pages_granted"],
                "reclaim_latency_cycles_p50":
                    arm["reclaim_latency_cycles_p50"],
                "reclaim_latency_cycles_max":
                    arm["reclaim_latency_cycles_max"],
                "victim_unmaps": arm["victim_unmaps"],
                "victim_faults": arm["victim_faults"],
            } for strategy, arm in result.ablation.items()},
        "final_sizes_equal": result.final_sizes_equal,
        "conservation_ok": result.conservation_ok,
        "fleet_guest_domains": {
            "machines": FLEET_MACHINES,
            "guests_per_machine": FLEET_GUESTS,
            "guest_served": fleet_summary["guest_served"],
            "floor_skips": fleet_summary["floor_skips"],
            "workers4_byte_identical": True,
        },
    })
