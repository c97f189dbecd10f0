#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation (§7).

Produces Table 1 (lmbench UP), Table 2 (lmbench SMP), the Fig. 3/4
relative-performance series, and the §7.4 mode-switch measurement —
printed in the paper's layout with the paper's reference values alongside.

Run:  python examples/reproduce_paper.py [--quick]

``--quick`` restricts to the N-L and X-0 columns (~4x faster).
"""

import argparse
import dataclasses

from repro import MachineConfig
from repro.bench.configs import CONFIG_KEYS
from repro.bench.report import (format_lmbench_table, format_relative_figure,
                                format_switch_times)
from repro.bench.runner import (SWITCH_PROCESSES, mean_switch_times,
                                relative_to_native, run_app_suite,
                                run_lmbench_suite, switch_stack)

PAPER_TABLE1 = {
    "Fork Process": (98, 482), "Exec Process": (372, 1233),
    "Sh Process": (1203, 2977), "Ctx (2p/0k)": (1.64, 5.10),
    "Ctx (16p/16k)": (2.73, 6.76), "Ctx (16p/64k)": (10.30, 15.73),
    "Mmap LT": (3724, 10579), "Prot Fault": (0.61, 0.97),
    "Page Fault": (1.22, 3.09),
}


def print_with_reference(table: dict) -> None:
    print(f"  {'row':<16}{'N-L sim':>10}{'N-L paper':>11}"
          f"{'X-0 sim':>10}{'X-0 paper':>11}")
    print("  " + "-" * 58)
    for row, (p_nl, p_x0) in PAPER_TABLE1.items():
        print(f"  {row:<16}{table[row]['N-L']:>10.2f}{p_nl:>11}"
              f"{table[row]['X-0']:>10.2f}{p_x0:>11}")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true",
                        help="N-L and X-0 columns only")
    args = parser.parse_args()
    keys = ("N-L", "X-0") if args.quick else CONFIG_KEYS
    config = dataclasses.replace(MachineConfig(), mem_kb=262_144)

    # ---- Table 1 ------------------------------------------------------
    print("running lmbench, uniprocessor mode...")
    t1 = run_lmbench_suite(num_cpus=1, config=config, keys=keys)
    print()
    print(format_lmbench_table(
        t1, "Table 1. Lmbench latency results in uniprocessor mode",
        keys=keys))
    print()
    print("  simulated vs paper (µs):")
    print_with_reference(t1)

    # ---- Table 2 --------------------------------------------------------
    print("\nrunning lmbench, SMP mode...")
    t2 = run_lmbench_suite(num_cpus=2, config=config, keys=keys)
    print()
    print(format_lmbench_table(
        t2, "Table 2. Lmbench latency results in SMP mode", keys=keys))

    # ---- Figures 3 and 4 --------------------------------------------------
    for cpus, name in ((1, "Fig. 3"), (2, "Fig. 4")):
        mode = "uniprocessor" if cpus == 1 else "SMP"
        print(f"\nrunning application benchmarks, {mode} mode...")
        apps = run_app_suite(num_cpus=cpus, config=config, keys=keys)
        rel = relative_to_native(apps)
        print()
        print(format_relative_figure(
            rel, f"{name}. Relative performance of Mercury against Linux "
                 f"and Xen-Linux in {mode} mode", keys=keys))

    # ---- §7.4 mode switch time ---------------------------------------------
    print("\nmeasuring mode switch time (Section 7.4)...")
    to_virtual, to_native = mean_switch_times(
        switch_stack(config, SWITCH_PROCESSES, True))
    print()
    print(format_switch_times(to_virtual, to_native))


if __name__ == "__main__":
    main()
