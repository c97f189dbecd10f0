"""Table 2: lmbench OS-latency results, SMP mode (two processors).

Same rows as Table 1 on a 2-CPU machine.  The additional assertion is the
paper's §7.2 observation: "due to the introduced locks and possible
contentions, most of the operations in SMP mode are a bit expensive
compared to those in UP mode" — every SMP row must sit at or above its UP
counterpart, by a modest margin.
"""

import pytest

from repro.bench.report import format_lmbench_table
from repro.bench.runner import run_lmbench_suite


@pytest.fixture(scope="module")
def tables(bench_config):
    up = run_lmbench_suite(num_cpus=1, config=bench_config,
                           keys=("N-L", "X-0"))
    smp = run_lmbench_suite(num_cpus=2, config=bench_config)
    return up, smp


def test_table2_lmbench_smp(bench_config):
    table = run_lmbench_suite(num_cpus=2, config=bench_config)
    print()
    print(format_lmbench_table(
        table, "Table 2. Lmbench latency results in SMP mode"))

    for row in table:
        assert table[row]["M-N"] == pytest.approx(table[row]["N-L"], rel=0.03)
        assert table[row]["M-V"] == pytest.approx(table[row]["X-0"], rel=0.05)
        ratio = table[row]["X-0"] / table[row]["N-L"]
        assert ratio > 1.05, f"{row}: no virtualization penalty in SMP?"


def test_smp_rows_sit_above_up_rows(tables):
    up, smp = tables
    higher = 0
    for row in up:
        if smp[row]["N-L"] >= up[row]["N-L"] * 0.999:
            higher += 1
    # "most of the operations" — allow mmap-style rows to tie
    assert higher >= len(up) - 2


def test_smp_premium_is_modest(tables):
    """SMP adds percents, not multiples (paper: fork 98 -> 128 µs)."""
    up, smp = tables
    for row in up:
        premium = smp[row]["N-L"] / up[row]["N-L"]
        assert premium < 2.2, f"{row}: SMP premium {premium:.2f}x too large"
