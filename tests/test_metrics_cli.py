"""Metrics collector, report formatting, and the CLI entry point."""

import pytest

from repro import Machine, Mercury, small_config
from repro.metrics import MetricsCollector, MetricsSnapshot, format_report


@pytest.fixture
def collector(mercury):
    return MetricsCollector(mercury.machine, kernel=mercury.kernel,
                            mercury=mercury)


def test_snapshot_diff(collector, mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    before = collector.snapshot()
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    delta = collector.snapshot() - before
    assert delta.forks == 1
    assert delta.syscalls == 3   # fork, exit, wait
    assert delta.cycles > 0
    assert delta.hypercalls == 0  # native mode


def test_measure_wrapper(collector, mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    result, delta = collector.measure(k.syscall, cpu, "getpid")
    assert result == k.scheduler.current.pid
    assert delta.syscalls == 1


def test_virtual_mode_shows_hypercalls(collector, mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    mercury.attach()
    before = collector.snapshot()
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    delta = collector.snapshot() - before
    assert delta.hypercalls > 0
    assert delta.page_validations > 0
    mercury.detach()


def test_mode_switches_counted(collector, mercury):
    before = collector.snapshot()
    mercury.attach()
    mercury.detach()
    delta = collector.snapshot() - before
    assert delta.mode_switches == 2


def test_rates():
    s = MetricsSnapshot(tlb_hits=90, tlb_misses=10,
                        cache_hits=3, cache_misses=1)
    assert s.tlb_hit_rate == pytest.approx(0.9)
    assert s.cache_hit_rate == pytest.approx(0.75)
    assert MetricsSnapshot().tlb_hit_rate == 0.0


def test_format_report_mentions_activity(collector, mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    _, delta = collector.measure(
        lambda: (k.syscall(cpu, "fork"),
                 k.run_and_reap(cpu, k.procs.get(
                     max(k.procs.tasks)))))
    text = format_report(delta, "run")
    assert "forks" in text
    assert "syscalls" in text
    assert "µs" in text


def test_format_report_groups_rows_by_layer():
    snap = MetricsSnapshot(cycles=3000, syscalls=3, hypercalls=5,
                           cache_hits=3, cache_misses=1,
                           watchdog_verdicts={"page-info": 2})
    text = format_report(snap, "run")
    assert text.index("guestos:") < text.index("vmm:") \
        < text.index("watchdog:")
    assert "page-infox2" in text  # histogram rows print bucket x count
    assert "cache hit rate" in text


def test_cli_switch_target(capsys):
    from repro.__main__ import main
    assert main(["switch", "--mem-kb", "16384"]) == 0
    out = capsys.readouterr().out
    assert "native -> virtual" in out
    assert "virtual -> native" in out


def test_cli_quick_table(capsys):
    from repro.__main__ import main
    assert main(["table1", "--quick", "--mem-kb", "65536"]) == 0
    out = capsys.readouterr().out
    assert "Fork Process" in out
    assert "X-0" in out and "M-V" not in out  # quick: two columns


def test_cli_trace_writes_balanced_chrome_trace(tmp_path, capsys):
    """``trace --trace-json FILE`` writes a Chrome trace_event file that
    loads as JSON, covers every CPU, and closes each begin with a matching
    end on the same thread."""
    import json
    from repro.__main__ import main
    path = tmp_path / "switch.json"
    assert main(["trace", "--cpus", "2", "--mem-kb", "16384",
                 "--trace-json", str(path)]) == 0
    assert str(path) in capsys.readouterr().out
    events = json.loads(path.read_text())["traceEvents"]
    assert {ev["tid"] for ev in events} == {0, 1}
    open_spans: dict = {}
    for ev in events:
        stack = open_spans.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            stack.append(ev["name"])
        elif ev["ph"] == "E":
            assert stack and stack.pop() == ev["name"], ev
    assert all(stack == [] for stack in open_spans.values())
    assert sum(ev["ph"] == "B" for ev in events) > 0


def test_cli_rejects_unknown_target():
    from repro.__main__ import main
    with pytest.raises(SystemExit):
        main(["table9"])


@pytest.mark.parametrize("flags", [["--machines", "4"], ["--workers", "2"]])
def test_cli_simload_rejects_fleet_flags(flags, capsys):
    """simload is one machine: a fleet flag is an error, not ignored."""
    from repro.__main__ import main
    with pytest.raises(SystemExit):
        main(["simload", *flags])
    assert "simload runs one machine" in capsys.readouterr().err
