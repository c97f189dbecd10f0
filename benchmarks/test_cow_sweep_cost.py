"""Host cost of fork's copy-on-write sweep on a chaos-episode stack.

A chaos episode's first fork re-protects every writable entry of the
parent's image.  The run-ahead rule lets a leaf go in one
``update_pte_flags`` call when no preempt point inside it could service
anything; otherwise the sweep is one sensitive call, and so one preempt
point, per entry.  The bench builds an attached ``small_config`` stack
with 1 and 2 CPUs, a running watchdog and a ``SimScheduler`` — what
``run_episode`` builds — and forks a 320-page writable image.  It counts
the sensitive VO calls, the polls that reach ``Clock.run_due`` and the
image leaves applied in one call or an entry at a time (all
deterministic), and times ``_cow_copy_leaf`` per re-protected entry (best
of 7 stacks), with the run-ahead on and, for comparison, off.  It records
a ``cow_sweep`` section in ``BENCH_perf.json`` and gates it against the
committed section:

- no count may rise;
- the run-ahead's ns per entry, as a share of the per-entry path's
  measured in the same run (``run_ahead_share``), may be at most twice its
  committed value.  The two arms alternate, so host load that slows both
  cancels out of the share; the absolute ns figures are recorded but not
  gated, because on a shared host they move up to 2x between runs.
"""

from __future__ import annotations

import dataclasses
import inspect
import time

from conftest import PERF, committed, record
from repro import Mercury, small_config
from repro.bench.chaoscampaign import SCAN_INTERVAL_CYCLES
from repro.guestos.kernel import Kernel
from repro.guestos.process import ProcessTable
from repro.hw.clock import Clock
from repro.hw.machine import Machine, isolated_machine_ids
from repro.hw.paging import PTE_P, PTE_W
from repro.sim import SimScheduler
from repro.watchdog import Watchdog

IMAGE_PAGES = 320
REPEATS = 7
#: the run-ahead share gate, as a multiple of the committed share
MAX_SHARE_RATIO = 2.0
COUNTS = ("sensitive_calls", "run_due_polls", "leaves_one_call",
          "leaves_per_entry")


def _fork_once(monkeypatch, num_cpus: int, run_ahead: bool) -> dict:
    """Fork the image once on a fresh episode stack; counts and the host
    seconds spent in ``_cow_copy_leaf``."""
    config = dataclasses.replace(small_config(), num_cpus=num_cpus)
    with isolated_machine_ids():
        machine = Machine(config)
        mercury = Mercury(machine)
        kernel = mercury.create_kernel(image_pages=IMAGE_PAGES)
        mercury.attach()
    watchdog = Watchdog(mercury, suspect_scans=2)
    work_cpu = machine.cpus[1] if num_cpus > 1 else machine.boot_cpu
    seen = {name: 0 for name in COUNTS} | {"reprotected": 0, "sweep_s": 0.0}

    vo_cls = type(kernel.vo)
    for name, method in inspect.getmembers(vo_cls, inspect.isfunction):
        if hasattr(method, "__wrapped__"):  # a @sensitive method

            def counted(self, *args, _method=method, **kwargs):
                seen["sensitive_calls"] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(vo_cls, name, counted)
    run_due = Clock.run_due

    def counted_run_due(clock):
        seen["run_due_polls"] += 1
        return run_due(clock)

    copy_leaf = ProcessTable._cow_copy_leaf

    def timed_copy_leaf(table, cpu, parent_as, pgd_idx, entries):
        writable = sum(1 for pte in entries.values()
                       if pte & PTE_W and pte & PTE_P)
        calls = seen["sensitive_calls"]
        t0 = time.perf_counter()
        copied = copy_leaf(table, cpu, parent_as, pgd_idx, entries)
        seen["sweep_s"] += time.perf_counter() - t0
        seen["reprotected"] += writable
        if writable > 1:
            per_entry = seen["sensitive_calls"] - calls > 1
            seen["leaves_per_entry" if per_entry else "leaves_one_call"] += 1
        return copied

    monkeypatch.setattr(Clock, "run_due", counted_run_due)
    monkeypatch.setattr(ProcessTable, "_cow_copy_leaf", timed_copy_leaf)
    if not run_ahead:
        monkeypatch.setattr(Kernel, "flag_leaf_runs_ahead",
                            lambda *args, **kwargs: False)

    def forker():
        kernel.syscall(work_cpu, "fork")
        watchdog.stop()
        yield

    try:
        sched = SimScheduler(machine)
        watchdog.start(SCAN_INTERVAL_CYCLES)
        sched.spawn(forker(), name="fork", cpu=work_cpu, kernel=kernel)
        sched.run()
    finally:
        monkeypatch.undo()
    assert seen["reprotected"] >= IMAGE_PAGES
    return seen


def _measure(monkeypatch, num_cpus: int) -> dict:
    # alternate the two arms so a burst of host load hits both alike
    runs, off = [], []
    for _ in range(REPEATS):
        runs.append(_fork_once(monkeypatch, num_cpus, run_ahead=True))
        off.append(_fork_once(monkeypatch, num_cpus, run_ahead=False))
    assert all({k: r[k] for k in COUNTS} == {k: runs[0][k] for k in COUNTS}
               for r in runs)
    entries = runs[0]["reprotected"]
    best_on = min(r["sweep_s"] for r in runs)
    best_off = min(r["sweep_s"] for r in off)
    return {
        **{name: runs[0][name] for name in COUNTS},
        "reprotected": entries,
        "ns_per_entry": round(best_on / entries * 1e9),
        "ns_per_entry_without_run_ahead": round(best_off / entries * 1e9),
        "run_ahead_share": round(best_on / best_off, 3),
        "sensitive_calls_without_run_ahead": off[0]["sensitive_calls"],
    }


def test_cow_sweep_cost(monkeypatch):
    # read before this run overwrites it
    baseline = committed(PERF, "cow_sweep")
    cpus = {str(n): _measure(monkeypatch, n) for n in (1, 2)}
    for key, now in cpus.items():
        base = baseline["cpus"][key]
        for name in COUNTS:
            assert now[name] <= base[name], (
                f"{key} CPU(s): {name} {now[name]}, committed "
                f"{base[name]}: the sweep does more than it did")
        # the one-call path must actually be taken on this stack
        assert now["leaves_one_call"] >= 1 and now["leaves_per_entry"] == 0
        limit = MAX_SHARE_RATIO * base["run_ahead_share"]
        assert now["run_ahead_share"] <= limit, (
            f"{key} CPU(s): the run-ahead sweep costs "
            f"{now['run_ahead_share']} of the per-entry sweep per "
            f"re-protected entry, over {MAX_SHARE_RATIO}x the committed "
            f"{base['run_ahead_share']}")
    record(PERF, "cow_sweep", {
        "workload": f"fork of a {IMAGE_PAGES}-page writable image on an "
                    f"attached small_config stack under SimScheduler with "
                    f"a watchdog scanning every {SCAN_INTERVAL_CYCLES} "
                    f"cycles (best of {REPEATS} stacks)",
        "cpus": cpus,
        "max_share_ratio": MAX_SHARE_RATIO,
    })
