"""Mutation-kill matrix derived from the invariant registry.

Every VMM fault site names the registry entry its corruption must trip
(``FaultSite.targets``).  For each site x victim variant x CPU count, on
the chaos campaign's stack shape (attached VMM, one ballooned guest):

- a fresh stack scans clean;
- after injection the watchdog's first verdict names exactly the target —
  on the first scan for structural targets, on the second (and not the
  first) for liveness targets under the double-observation rule;
- for structural targets ``check_all`` reports the damage too.

The catalogue checks keep the matrix honest as the registry grows: every
target is a registry name, and every ``vmm`` entry is some site's target
(``ring-indices`` excepted: no site corrupts ring indices; its hand-built
case lives in ``test_watchdog.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core.invariants import (LIVENESS, REGISTRY, STRUCTURAL,
                                   VMM_INVARIANTS, check_all)
from repro.hw.machine import isolated_machine_ids
from repro.metrics import MetricsCollector
from repro.watchdog import Watchdog

UNTARGETED = {"ring-indices"}


def _kinds(name: str) -> set:
    return {inv.kind for inv in REGISTRY if inv.name == name}


def _stack(ncpus: int) -> Mercury:
    cfg = dataclasses.replace(small_config(), num_cpus=ncpus)
    with isolated_machine_ids():
        mercury = Mercury(Machine(cfg))
        mercury.create_kernel(image_pages=16)
        mercury.attach()
        mercury.host_guest(image_pages=8, mem_pages=48, mem_floor=16)
    return mercury


def test_every_target_is_a_registry_entry():
    names = {inv.name for inv in REGISTRY}
    for site in faults.VMM_SITES:
        assert site.targets in names, site.name


def test_every_vmm_entry_is_targeted():
    targeted = {site.targets for site in faults.VMM_SITES}
    vmm_names = {inv.name for inv in VMM_INVARIANTS}
    assert vmm_names - targeted == UNTARGETED


@pytest.mark.parametrize("ncpus", [1, 2])
@pytest.mark.parametrize("variant", range(8))
@pytest.mark.parametrize("site", [s.name for s in faults.VMM_SITES])
def test_site_kills_its_target(site, variant, ncpus):
    mercury = _stack(ncpus)
    watchdog = Watchdog(mercury)  # suspect_scans=2: the campaign's rule
    assert watchdog.scan() is None, "fresh stack must scan clean"
    assert check_all(mercury) == []

    faults.inject_vmm_fault(site, mercury, variant=variant)
    target = faults.site(site).targets
    structural = STRUCTURAL in _kinds(target)
    if not structural:
        assert _kinds(target) == {LIVENESS}
        assert watchdog.scan() is None, "one observation is only a suspicion"
    verdict = watchdog.scan()
    assert verdict is not None, f"{site} variant {variant} went undetected"
    assert verdict.invariant == target
    snap = MetricsCollector(mercury.machine, mercury=mercury).snapshot()
    assert snap.watchdog_verdicts == {target: 1}
    if structural:
        assert check_all(mercury), "check_all missed structural damage"
