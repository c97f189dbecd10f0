"""Command-line reproduction harness: ``python -m repro <target>``.

Targets:

- ``table1`` / ``table2`` — the lmbench tables (UP / SMP)
- ``fig3`` / ``fig4``     — the application-benchmark figures (UP / SMP)
- ``switch``              — the §7.4 mode-switch measurement
- ``trace``               — a traced switch round-trip: text timeline +
  per-phase latency breakdown (``--trace-json FILE`` for chrome://tracing)
- ``simload``             — the §5.1.1 switch-under-load scenario on one
  machine under the deterministic simulation scheduler (``--rounds N``
  storm rounds); emits canonical output suitable for byte-for-byte
  diffing (the CI ``sched-determinism`` job runs it twice)
- ``chaos``               — the VMM-fault chaos campaign: seeded fault
  episodes with VMI-watchdog detection and microreboot recovery; emits
  canonical output (the CI ``chaos-recovery`` job runs it twice);
  ``--workers N`` fans episodes across processes without changing a byte
- ``fleet``               — the §6 scenarios as fleet operations: an
  open-loop arrival stream over ``--machines N`` service machines behind
  a switch-aware balancer while a rolling wave (``--scenario
  liveupdate|maintenance|cluster``) runs; emits canonical output that is
  byte-identical at any ``--workers`` count (the CI ``fleet-smoke`` and
  ``shard-determinism`` jobs diff exactly that); ``--fleet-summary``
  prints the percentile report instead; ``--guest-domains N`` hosts N
  ballooned guest domains per service machine and serves the traffic
  from them under the elastic memory controller (``--elastic-strategy``)
- ``elastic``             — the memory-elasticity bench: attach-time
  drift vs. balloon churn rate plus the reclaim-strategy ablation
  (hypervisor-driven vs. guest-delegated); emits canonical output (the
  CI ``memory-elasticity`` job double-runs and byte-diffs it)
- ``all``                 — everything, in paper order

Options: ``--quick`` (N-L and X-0 columns only), ``--mem-kb N``,
``--cpus N`` (trace target), ``--trace-json FILE``, ``--rounds N``
(simload storm rounds), ``--machines N`` / ``--workers N`` (fleet
size and shard worker processes; workers also parallelizes chaos),
``--episodes N`` / ``--seed N`` (chaos campaign; seed also feeds fleet),
``--scenario``, ``--policy``, ``--arrival``, ``--requests N``,
``--fleet-summary`` (fleet target).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro import Machine, Mercury, MachineConfig, trace
from repro.bench.configs import CONFIG_KEYS
from repro.bench.report import (format_lmbench_table, format_relative_figure,
                                format_switch_times)
from repro.bench.runner import (SWITCH_PROCESSES, mean_switch_times,
                                relative_to_native, run_app_suite,
                                run_lmbench_suite, switch_stack)

TARGETS = ("table1", "table2", "fig3", "fig4", "switch", "trace",
           "simload", "chaos", "fleet", "elastic", "all")


def _trace_switch(config, num_cpus: int, json_path: str | None) -> None:
    """Run one attach/detach round-trip under the tracer and print the
    timeline plus the §7.4 per-phase breakdown."""
    cfg = dataclasses.replace(config, num_cpus=num_cpus)
    machine = Machine(cfg)
    mercury = Mercury(machine)
    kernel = mercury.create_kernel(image_pages=64)
    cpu = machine.boot_cpu
    for _ in range(8):
        kernel.syscall(cpu, "fork")
    with trace.tracing(machine) as tracer:
        mercury.attach()
        mercury.detach()
    events = tracer.events()
    freq = cfg.cost.freq_mhz

    print(f"Mode-switch trace — {num_cpus} CPU(s), {len(events)} events "
          f"({tracer.dropped} dropped)")
    print()
    print(trace.format_timeline(events, freq_mhz=freq))
    print()
    print("Per-phase switch latency (§7.4 decomposition):")
    print(trace.format_phase_table(
        trace.phase_summary(events, names=trace.SWITCH_PHASES),
        freq_mhz=freq))
    if json_path:
        trace.write_chrome_trace(json_path, events, freq_mhz=freq)
        print(f"\nwrote Chrome trace_event JSON to {json_path} "
              f"(load in chrome://tracing or Perfetto)")


def _simload(rounds: int) -> None:
    """Run the switch-under-load scenario and print its canonical output.

    Everything printed is a pure function of ``rounds``; run twice and
    ``diff`` to check scheduler determinism."""
    from repro.bench.underload import run_switch_under_load
    from repro.hw.machine import reset_machine_ids

    reset_machine_ids()
    result = run_switch_under_load(rounds=rounds)
    sys.stdout.write(result.canonical_output())


def _chaos(episodes: int, seed: int, workers: int) -> None:
    """Run the chaos campaign and print its canonical output (byte-exact
    for a given seed/episode count at any worker count — the
    chaos-recovery and shard-determinism CI contracts)."""
    from repro.bench.chaoscampaign import run_chaos_campaign

    result = run_chaos_campaign(episodes=episodes, seed=seed,
                                workers=workers)
    sys.stdout.write(result.canonical_output())


def _fleet(args) -> None:
    """Run a §6 fleet operation; print the canonical (byte-diffable)
    output, or the human percentile report with ``--fleet-summary``."""
    import json

    from repro.fleet import run_fleet

    result = run_fleet(machines=args.machines, workers=args.workers,
                       seed=args.seed, scenario=args.scenario,
                       policy=args.policy, arrival=args.arrival,
                       requests=args.requests,
                       guest_domains=args.guest_domains,
                       guest_mem_pages=args.guest_mem_pages,
                       guest_mem_floor=args.guest_mem_floor,
                       elastic_strategy=args.elastic_strategy)
    if args.fleet_summary:
        print(json.dumps(result.summary(), indent=1, sort_keys=True))
        return
    sys.stdout.write(result.canonical_output())


def _elastic() -> None:
    """Run the memory-elasticity bench and print its canonical output
    (byte-exact — the memory-elasticity CI job double-runs and diffs)."""
    from repro.bench.elasticity import run_elasticity

    sys.stdout.write(run_elasticity().canonical_output())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Mercury paper's tables and figures.")
    parser.add_argument("target", choices=TARGETS)
    parser.add_argument("--quick", action="store_true",
                        help="N-L and X-0 columns only")
    parser.add_argument("--mem-kb", type=int, default=262_144,
                        help="simulated memory per machine (default 262144)")
    parser.add_argument("--cpus", type=int, default=1,
                        help="CPU count for the trace target (default 1)")
    parser.add_argument("--trace-json", metavar="FILE", default=None,
                        help="also write the trace target's events as "
                             "Chrome trace_event JSON")
    parser.add_argument("--rounds", type=int, default=5,
                        help="attach/detach rounds for the simload target "
                             "(default 5)")
    parser.add_argument("--machines", type=int, default=100,
                        help="service machines for the fleet target "
                             "(default 100)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the fleet and chaos "
                             "targets (default 1)")
    parser.add_argument("--episodes", type=int, default=20,
                        help="fault episodes for the chaos target "
                             "(default 20)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="RNG seed for the chaos and fleet targets "
                             "(default 1234)")
    parser.add_argument("--scenario", choices=("liveupdate", "maintenance",
                                               "cluster"),
                        default="liveupdate",
                        help="fleet wave scenario (default liveupdate)")
    parser.add_argument("--policy", choices=("round-robin",
                                             "least-outstanding",
                                             "switch-aware"),
                        default="switch-aware",
                        help="fleet balancer policy (default switch-aware)")
    parser.add_argument("--arrival", choices=("poisson", "pareto"),
                        default="poisson",
                        help="fleet arrival process (default poisson)")
    parser.add_argument("--requests", type=int, default=None,
                        help="fleet request count (default scales with "
                             "--machines)")
    parser.add_argument("--fleet-summary", action="store_true",
                        help="print the fleet percentile report instead of "
                             "canonical output")
    parser.add_argument("--guest-domains", type=int, default=0,
                        help="ballooned guest domains hosted per fleet "
                             "service machine (default 0: serve bare)")
    parser.add_argument("--guest-mem-pages", type=int, default=48,
                        help="per-guest balloon reservation (default 48)")
    parser.add_argument("--guest-mem-floor", type=int, default=16,
                        help="per-guest memory floor the elastic controller "
                             "never reclaims below (default 16)")
    parser.add_argument("--elastic-strategy",
                        choices=("hypervisor-driven", "guest-delegated"),
                        default="guest-delegated",
                        help="fleet reclaim strategy (default "
                             "guest-delegated)")
    args = parser.parse_args(argv)
    if args.target == "simload" and (args.machines, args.workers) != (
            parser.get_default("machines"), parser.get_default("workers")):
        parser.error("simload runs one machine; --machines and --workers "
                     "apply to the fleet and chaos targets")

    keys = ("N-L", "X-0") if args.quick else CONFIG_KEYS
    config = dataclasses.replace(MachineConfig(), mem_kb=args.mem_kb)
    want = (lambda t: args.target in (t, "all"))

    if want("table1"):
        t = run_lmbench_suite(num_cpus=1, config=config, keys=keys)
        print(format_lmbench_table(
            t, "Table 1. Lmbench latency results in uniprocessor mode",
            keys=keys))
        print()
    if want("table2"):
        t = run_lmbench_suite(num_cpus=2, config=config, keys=keys)
        print(format_lmbench_table(
            t, "Table 2. Lmbench latency results in SMP mode", keys=keys))
        print()
    if want("fig3"):
        rel = relative_to_native(
            run_app_suite(num_cpus=1, config=config, keys=keys))
        print(format_relative_figure(
            rel, "Fig. 3. Relative performance, uniprocessor mode",
            keys=keys))
        print()
    if want("fig4"):
        rel = relative_to_native(
            run_app_suite(num_cpus=2, config=config, keys=keys))
        print(format_relative_figure(
            rel, "Fig. 4. Relative performance, SMP mode", keys=keys))
        print()
    if want("switch"):
        to_v, to_n = mean_switch_times(
            switch_stack(config, SWITCH_PROCESSES, True))
        print(format_switch_times(to_v, to_n))
        print()
    if args.target == "trace":  # deliberately not part of "all"
        _trace_switch(config, num_cpus=args.cpus, json_path=args.trace_json)
        print()
    if args.target == "simload":  # canonical output: not part of "all"
        _simload(rounds=args.rounds)
    if args.target == "chaos":  # canonical output: not part of "all"
        _chaos(episodes=args.episodes, seed=args.seed,
               workers=args.workers)
    if args.target == "fleet":  # canonical output: not part of "all"
        _fleet(args)
    if args.target == "elastic":  # canonical output: not part of "all"
        _elastic()
    return 0


if __name__ == "__main__":
    sys.exit(main())
