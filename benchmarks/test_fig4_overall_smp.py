"""Figure 4: relative application performance, SMP mode.

"The evaluation on five application level benchmarks has the similar
results in uniprocessor mode.  The overhead in Mercury in the three modes
is less than 2% compared to native Linux, domain0 and domainU." (§7.3)
"""

import pytest

from repro.bench.report import format_relative_figure
from repro.bench.runner import relative_to_native, run_app_suite


def test_fig4_overall_smp(bench_config):
    rel = relative_to_native(run_app_suite(num_cpus=2, config=bench_config))
    print()
    print(format_relative_figure(
        rel, "Fig. 4. Relative performance of Mercury against Linux and "
             "Xen-Linux in SMP mode"))

    # the paper's §7.3 claim, verbatim: Mercury within 2% of each
    # counterpart in SMP mode
    for row in rel:
        assert rel[row]["M-N"] == pytest.approx(1.0, abs=0.02)
        assert rel[row]["M-V"] == pytest.approx(rel[row]["X-0"], rel=0.02)
        assert rel[row]["M-U"] == pytest.approx(rel[row]["X-U"], rel=0.02)

    # similar shape to Fig. 3
    assert rel["OSDB-IR"]["X-0"] < 0.85
    assert rel["dbench"]["X-U"] > 1.0
    assert rel["iperf-tcp"]["X-U"] < rel["iperf-tcp"]["X-0"] < 0.70
