"""Figure 3: relative application performance, uniprocessor mode.

Regenerates the Fig. 3 series (OSDB-IR, dbench, Linux build, ping, iperf)
for all six configurations, normalized to native Linux, and asserts the
paper's qualitative findings:

- OSDB-IR loses >20% under virtualization (both dom0 and domU);
- dbench: dom0 ~15% slower, but domU *faster* than native (the split
  block model's write caching — the paper's one inversion);
- kernel build loses ~9%;
- ping/iperf lose >20%/(~40%) in dom0 and 60%/70% in domU;
- Mercury's three modes track their counterparts within ~2%.
"""

import pytest

from repro.bench.report import format_relative_figure
from repro.bench.runner import relative_to_native, run_app_suite


@pytest.fixture(scope="module")
def relative(bench_config):
    return relative_to_native(run_app_suite(num_cpus=1, config=bench_config))


def test_fig3_overall_up(bench_config):
    rel = relative_to_native(run_app_suite(num_cpus=1, config=bench_config))
    print()
    print(format_relative_figure(
        rel, "Fig. 3. Relative performance of Mercury against Linux and "
             "Xen-Linux in uniprocessor mode"))

    # --- Mercury modes track their counterparts (<2%) ------------------
    for row in rel:
        assert rel[row]["M-N"] == pytest.approx(1.0, abs=0.02)
        assert rel[row]["M-V"] == pytest.approx(rel[row]["X-0"], rel=0.02)
        assert rel[row]["M-U"] == pytest.approx(rel[row]["X-U"], rel=0.02)

    # --- per-benchmark shapes -------------------------------------------
    assert rel["OSDB-IR"]["X-0"] < 0.85            # >20% loss (paper: ~0.78)
    assert rel["OSDB-IR"]["X-U"] < 0.85

    assert 0.70 < rel["dbench"]["X-0"] < 0.95      # dom0 slower (paper 0.85)
    assert rel["dbench"]["X-U"] > 1.0              # the inversion (paper ~1.05)

    assert 0.85 < rel["Linux build"]["X-0"] < 0.98  # ~9% loss
    assert 0.85 < rel["Linux build"]["X-U"] < 1.02

    assert rel["ping"]["X-0"] < 0.85               # >20% latency loss
    assert rel["ping"]["X-U"] < rel["ping"]["X-0"]  # domU worse than dom0

    assert rel["iperf-tcp"]["X-0"] < 0.70          # ~40%+ loss
    assert rel["iperf-tcp"]["X-U"] < 0.45          # ~70% loss
    assert rel["iperf-udp"]["X-U"] < rel["iperf-udp"]["X-0"]
