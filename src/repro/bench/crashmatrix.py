"""The switch-crash matrix: every fault site × direction × topology ×
fault flavor, as independently runnable cells.

:func:`run_cell` is the one implementation of a cell's §4.3
dependability checks.  The pytest matrix
(``tests/integration/test_switch_crash_matrix.py``) runs each cell through
it and fails on any failed check; the bench runs the whole matrix, timed,
parallelized (each cell is a pure function of its parameters, so
:func:`~repro.sim.pool.parallel_episodes` fans cells across processes
without changing a verdict) and summarized into dashboards.

Cell semantics:

- **persistent** — a never-clearing fault makes the switch terminally
  abort with the stack transactionally back in its pre-switch state (same
  state digest, same VO object, same registered address-space objects,
  one abort counted), and the next un-faulted switch commits.
  (``smp.ipi-delayed`` is latency-only: it must *commit* under the fault,
  first time.)
- **transient** — a single-shot fault is absorbed by rollback + bounded
  retry; the caller sees a committed switch and never the fault.  A stuck
  refcount is refused at the gate, so nothing is unwound; every other
  site rolls back at least once.
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


def _registered(mercury: Mercury) -> list:
    return list(mercury.domain.aspaces) if mercury.domain is not None else []


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
    engine = mercury.engine
    start_mode = mercury.mode
    before = state_digest(mercury)
    # object identity is outside any digest: checked directly
    vo_before = mercury.kernel.vo
    aspaces_before = _registered(mercury)
    latency_only = site == faults.IPI_DELAYED
    aborts = flavor == "persistent" and not latency_only

    plan = faults.FaultPlan()
    plan.arm(site, times=None if flavor == "persistent" else 1)
    try:
        with faults.injected(plan):
            if aborts:
                try:
                    _switch(mercury, direction)
                    check(False, "persistent fault must abort")
                except SwitchAborted as exc:
                    check(exc.retries == engine.max_retries,
                          "abort consumed the whole retry budget")
            else:
                rec = _switch(mercury, direction)
                check(rec is not None, "switch commits")
                check(mercury.mode is not start_mode, "mode flipped")
                if rec is not None:
                    cell.retries = rec.retries
                    cell.rollbacks = rec.rollbacks
                    if latency_only:
                        check(rec.retries == 0, "late IPI commits first time")
                    else:
                        check(rec.retries >= 1, "transient fault retried")
                        if site == faults.REFCOUNT_STUCK:
                            check(rec.rollbacks == 0,
                                  "refused at the gate, nothing unwound")
                        else:
                            check(rec.rollbacks >= 1 and
                                  engine.switch_rollbacks >= 1,
                                  "transient fault rolled back")
    except ReproError as exc:
        check(False, f"unexpected {type(exc).__name__}")
        return cell
    if flavor == "transient":
        check(plan.injected == 1, "fault injected exactly once")
    else:
        check(plan.injected >= 1, "fault actually injected")

    if aborts:
        check(mercury.mode is start_mode, "mode restored")
        check(state_digest(mercury) == before, "state digest restored")
        check(mercury.kernel.vo is vo_before, "same VO object")
        aspaces_after = _registered(mercury)
        check(len(aspaces_after) == len(aspaces_before) and
              all(a is b for a, b in zip(aspaces_after, aspaces_before)),
              "same registered address-space objects")
        check(engine.switch_aborts == 1, "one abort counted")
        check(engine.switch_rollbacks >= 1, "rollback counted")
    else:
        check(engine.switch_aborts == 0, "no abort counted")
    check(check_all(mercury) == [], "invariants clean")

    # the un-faulted follow-up switch must commit and leave a live kernel
    follow_up = direction
    if not aborts:  # already switched
        follow_up = "detach" if direction == "attach" else "attach"
    try:
        check(_switch(mercury, follow_up) is not None, "follow-up commits")
        check(check_all(mercury) == [], "follow-up invariants clean")
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
