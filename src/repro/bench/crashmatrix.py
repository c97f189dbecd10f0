"""Programmatic switch-crash matrix: every fault site × direction ×
topology × fault flavor, as independently runnable cells.

The pytest matrix (``tests/integration/test_switch_crash_matrix.py``)
proves the §4.3 dependability claims per cell; this module packages the
same checks as a bench so the whole matrix can be timed, parallelized
(each cell is a pure function of its parameters, so
:func:`~repro.sim.pool.parallel_episodes` fans cells across processes
without changing a verdict) and summarized into dashboards.

Cell semantics mirror the tests:

- **persistent** — a never-clearing fault makes the switch terminally
  abort with the stack transactionally back in its pre-switch state, and
  the next un-faulted switch commits.  (``smp.ipi-delayed`` is
  latency-only: it must *commit* under the fault.)
- **transient** — a single-shot fault is absorbed by rollback + bounded
  retry; the caller sees a committed switch and never the fault.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro import Machine, Mercury, faults, small_config
from repro.core.invariants import check_all
from repro.errors import ReproError, SwitchAborted
from repro.hw.machine import isolated_machine_ids
from repro.scenarios.checkpoint import state_digest
from repro.sim.pool import parallel_episodes

DIRECTIONS = ("attach", "detach")
TOPOLOGIES = (1, 2)
FLAVORS = ("persistent", "transient")


@dataclass
class CellResult:
    """Verdict of one matrix cell."""

    site: str
    direction: str
    ncpus: int
    flavor: str
    skipped: bool = False
    retries: int = 0
    rollbacks: int = 0
    #: failed check labels; empty == the cell holds
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def row(self) -> dict:
        out = asdict(self)
        out["ok"] = self.ok
        return out


def _switch(mercury: Mercury, direction: str):
    return mercury.attach() if direction == "attach" else mercury.detach()


def run_cell(site: str, direction: str, ncpus: int,
             flavor: str) -> CellResult:
    """Run one cell; a pure function of its parameters (module-level so
    worker processes can import it by reference)."""
    cell = CellResult(site=site, direction=direction, ncpus=ncpus,
                      flavor=flavor)
    spec = faults.site(site)
    if spec.smp_only and ncpus == 1:
        cell.skipped = True
        return cell

    def check(cond: bool, label: str) -> None:
        if not cond:
            cell.failures.append(label)

    with isolated_machine_ids():
        mercury = Mercury(Machine(small_config(num_cpus=ncpus)))
        mercury.create_kernel(image_pages=16)
    if direction == "detach":
        check(mercury.attach() is not None, "pre-attach commits")
    start_mode = mercury.mode
    before = state_digest(mercury)
    latency_only = site == faults.IPI_DELAYED

    plan = faults.FaultPlan()
    plan.arm(site, times=None if flavor == "persistent" else 1)
    try:
        with faults.injected(plan):
            if flavor == "persistent" and not latency_only:
                try:
                    _switch(mercury, direction)
                    check(False, "persistent fault must abort")
                except SwitchAborted as exc:
                    check(exc.retries == mercury.engine.max_retries,
                          "abort consumed the whole retry budget")
            else:
                rec = _switch(mercury, direction)
                check(rec is not None, "switch commits")
                check(mercury.mode is not start_mode, "mode flipped")
                if rec is not None:
                    cell.retries = rec.retries
                    cell.rollbacks = rec.rollbacks
                    if flavor == "transient" and not latency_only:
                        check(rec.retries >= 1, "transient fault retried")
    except ReproError as exc:
        check(False, f"unexpected {type(exc).__name__}")
        return cell
    check(plan.injected >= 1, "fault actually injected")

    if flavor == "persistent" and not latency_only:
        check(mercury.mode is start_mode, "mode restored")
        check(state_digest(mercury) == before, "state digest restored")
    check(check_all(mercury) == [], "invariants clean")

    # the un-faulted follow-up switch must commit and leave a live kernel
    follow_up = direction
    if flavor == "transient" or latency_only:  # already switched
        follow_up = "detach" if direction == "attach" else "attach"
    try:
        check(_switch(mercury, follow_up) is not None, "follow-up commits")
        kernel = mercury.kernel
        cpu = mercury.machine.boot_cpu
        pid = kernel.syscall(cpu, "fork")
        kernel.run_and_reap(cpu, kernel.procs.get(pid))
        check(check_all(mercury) == [], "post-smoke invariants clean")
    except ReproError as exc:
        check(False, f"smoke raised {type(exc).__name__}")
    return cell


def matrix_cells() -> list:
    """Every (site, direction, ncpus, flavor) tuple, registry-derived."""
    return [(s.name, direction, ncpus, flavor)
            for s in faults.SWITCH_SITES
            for direction in DIRECTIONS
            for ncpus in TOPOLOGIES
            for flavor in FLAVORS]


def run_crash_matrix(workers: int = 1) -> list:
    """Run the full matrix, optionally fanning cells across processes."""
    return parallel_episodes(run_cell, matrix_cells(), workers=workers)


def matrix_summary(results: list) -> dict:
    ran = [c for c in results if not c.skipped]
    per_site: dict = {}
    for cell in ran:
        site = per_site.setdefault(cell.site, {"cells": 0, "ok": 0})
        site["cells"] += 1
        site["ok"] += int(cell.ok)
    return {
        "cells": len(results),
        "ran": len(ran),
        "skipped": len(results) - len(ran),
        "ok": sum(1 for c in ran if c.ok),
        "failures": [c.row() for c in ran if not c.ok],
        "per_site": dict(sorted(per_site.items())),
    }


def canonical_matrix_output(results: list) -> str:
    """Byte-stable rendering (CI diffs this across worker counts)."""
    payload = {
        "summary": matrix_summary(results),
        "rows": [c.row() for c in results],
    }
    return json.dumps(payload, indent=1, sort_keys=True,
                      default=str) + "\n"
