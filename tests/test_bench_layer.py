"""The bench layer itself: runners, normalization, report formatting."""

import gc
import math
import weakref

import pytest

from repro import small_config
from repro.bench import runner
from repro.bench.report import (format_app_table, format_lmbench_table,
                                format_relative_figure, format_switch_times)
from repro.bench.runner import relative_to_native


def test_relative_to_native_higher_is_better():
    table = {"OSDB-IR": {"N-L": 100.0, "X-0": 80.0}}
    rel = relative_to_native(table)
    assert rel["OSDB-IR"]["N-L"] == pytest.approx(1.0)
    assert rel["OSDB-IR"]["X-0"] == pytest.approx(0.8)


def test_relative_to_native_inverts_lower_is_better_rows():
    # build time: 100 s native, 110 s virtualized -> relative 0.909
    table = {"Linux build": {"N-L": 100.0, "X-0": 110.0},
             "ping": {"N-L": 100.0, "X-0": 125.0}}
    rel = relative_to_native(table)
    assert rel["Linux build"]["X-0"] == pytest.approx(100 / 110)
    assert rel["ping"]["X-0"] == pytest.approx(0.8)


def test_relative_to_native_skips_rows_without_baseline():
    rel = relative_to_native({"orphan": {"X-0": 5.0}})
    assert rel == {}


def test_relative_handles_zero_values():
    rel = relative_to_native({"ping": {"N-L": 10.0, "X-0": 0.0}})
    assert rel["ping"]["X-0"] == 0.0


def test_format_lmbench_table_layout():
    table = {"Fork Process": {"N-L": 98.0, "X-0": 482.0},
             "Page Fault": {"N-L": 1.22, "X-0": 3.09}}
    text = format_lmbench_table(table, "T", keys=("N-L", "X-0"))
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "Fork Process" in text and "482.00" in text
    # rows print in the paper's order: fork before page fault
    assert text.index("Fork Process") < text.index("Page Fault")
    assert "microseconds" in text


def test_format_lmbench_table_handles_missing_configs():
    table = {"Fork Process": {"N-L": 98.0}}
    text = format_lmbench_table(table, "T", keys=("N-L", "X-0"))
    assert "N-L" in text
    assert "X-0" not in text  # absent columns are dropped, not NaN'd


def test_format_app_table_units():
    table = {"dbench": {"N-L": 12.5}, "ping": {"N-L": 113.0}}
    text = format_app_table(table, "apps", keys=("N-L",))
    assert "MB/s" in text and "µs" in text


def test_format_relative_figure():
    rel = {"dbench": {"N-L": 1.0, "X-U": 1.05}}
    text = format_relative_figure(rel, "fig", keys=("N-L", "X-U"))
    assert "1.050" in text
    assert "higher is better" in text


def test_format_switch_times_mentions_paper():
    text = format_switch_times(204.0, 46.0)
    assert "0.204 ms" in text
    assert "0.22" in text and "0.06" in text


def test_bare_metal_vo_has_no_indirection_cost(machine):
    """Through the sensitive wrapper every workload runs: the N-L
    baseline's VO charges nothing, Mercury's native VO the indirection."""
    from repro.bench.configs import BareMetalVO
    from repro.core.native_vo import NativeVO
    cpu = machine.boot_cpu
    bare = BareMetalVO(machine)
    t0 = cpu.rdtsc()
    bare.irq_disable(cpu)
    assert cpu.rdtsc() == t0  # truly free
    assert bare.entries == 1 and not bare.busy()  # still refcounted
    native = NativeVO(machine)
    t0 = cpu.rdtsc()
    native.irq_disable(cpu)
    assert cpu.rdtsc() - t0 == cpu.cost.cyc_vo_indirect == 3


@pytest.mark.parametrize("suite", [
    runner.run_lmbench_suite,
    lambda **kw: runner.run_app_suite(scale=0.05, **kw)],
    ids=["lmbench", "apps"])
def test_suites_free_each_system_they_drop(monkeypatch, suite):
    """A system under test is an island of reference cycles: each suite
    drops every system it built and collects the young generations, so
    with the automatic collector off (nothing is promoted) every system
    is freed by the time the suite returns — a local still holding one
    fails this."""
    machines = []

    def build(*args, **kwargs):
        sut = build_config(*args, **kwargs)
        machines.append(weakref.ref(sut.machine))
        return sut

    build_config = runner.build_config
    monkeypatch.setattr(runner, "build_config", build)
    enabled = gc.isenabled()
    gc.disable()
    try:
        suite(config=small_config(mem_kb=65_536), keys=("N-L", "X-0"))
        alive = [m() is not None for m in machines]
    finally:
        if enabled:  # the next allocation may then run a full collection
            gc.enable()
    assert alive == [False, False]
