"""Paper-style table and figure formatting.

``format_lmbench_table`` prints Tables 1/2 (µs latencies, config columns);
``format_relative_figure`` prints the Fig. 3/4 series as text (relative
performance per configuration, N-L = 1.00); ``format_switch_times``
prints the §7.4 measurement.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench.configs import CONFIG_KEYS
from repro.workloads.lmbench import LmbenchResults


def format_lmbench_table(table: dict[str, dict[str, float]], title: str,
                         keys: Iterable[str] = CONFIG_KEYS) -> str:
    keys = [k for k in keys if any(k in row for row in table.values())]
    lines = [title, ""]
    header = f"{'Config.':<16}" + "".join(f"{k:>10}" for k in keys)
    lines.append(header)
    lines.append("-" * len(header))
    for row in LmbenchResults.ROW_ORDER:
        if row not in table:
            continue
        cells = "".join(f"{table[row].get(k, float('nan')):>10.2f}"
                        for k in keys)
        lines.append(f"{row:<16}" + cells)
    lines.append("")
    lines.append("(times in simulated microseconds)")
    return "\n".join(lines)


def format_app_table(table: dict[str, dict[str, float]], title: str,
                     keys: Iterable[str] = CONFIG_KEYS) -> str:
    units = {"OSDB-IR": "q/s", "dbench": "MB/s", "Linux build": "s",
             "ping": "µs", "iperf-tcp": "Mbit/s", "iperf-udp": "Mbit/s"}
    keys = [k for k in keys if any(k in row for row in table.values())]
    lines = [title, ""]
    header = f"{'Benchmark':<14}{'unit':<8}" + "".join(f"{k:>10}" for k in keys)
    lines.append(header)
    lines.append("-" * len(header))
    for row, per_config in table.items():
        cells = "".join(f"{per_config.get(k, float('nan')):>10.2f}"
                        for k in keys)
        lines.append(f"{row:<14}{units.get(row, ''):<8}" + cells)
    return "\n".join(lines)


def format_relative_figure(relative: dict[str, dict[str, float]], title: str,
                           keys: Iterable[str] = CONFIG_KEYS) -> str:
    """The Fig. 3/4 bar chart, as text: 1.00 = native performance."""
    keys = [k for k in keys if any(k in row for row in relative.values())]
    lines = [title, ""]
    header = f"{'Benchmark':<14}" + "".join(f"{k:>8}" for k in keys)
    lines.append(header)
    lines.append("-" * len(header))
    for row, per_config in relative.items():
        cells = "".join(f"{per_config.get(k, float('nan')):>8.3f}"
                        for k in keys)
        lines.append(f"{row:<14}" + cells)
    lines.append("")
    lines.append("(relative performance vs. native Linux; higher is better)")
    return "\n".join(lines)


def format_switch_times(to_virtual_us: float, to_native_us: float) -> str:
    lines = [
        "Mode switch time (Section 7.4)",
        "",
        f"  native -> virtual : {to_virtual_us / 1000.0:6.3f} ms"
        f"   (paper: ~0.22 ms)",
        f"  virtual -> native : {to_native_us / 1000.0:6.3f} ms"
        f"   (paper: ~0.06 ms)",
    ]
    return "\n".join(lines)
