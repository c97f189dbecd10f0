"""Pinned sha256 of the chaos campaign's, the paper tables' and the
elasticity bench's canonical CLI output.

The fleet and ``simload`` bytes are pinned in
``tests/fleet/test_canonical_digests.py``; these pin the process-lifecycle
paths the fleets barely touch: the chaos campaign (fork's copy-on-write
sweep under the simulation scheduler, watchdog scans, microreboot),
Tables 1 and 2 (lmbench over all six configurations) and the balloon
bookkeeping of ``elastic`` (the churn sweep's attach drift and the
reclaim-strategy ablation, whose hypervisor-driven arm picks victims from
the balloon region map).  A change that moves one simulated cycle, seq
ticket or counter there moves a digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from repro.__main__ import main

DIGESTS = {
    "chaos --episodes 40 --seed 1234":
        "16db671b9cc81caea74e2c69af59b7c08640a44e1364cffabf36a3c403358435",
    "elastic":
        "922afb1656d9c0a93f648bb895246a135709dbaf678989e4df685d6ce89174e3",
    "table1":
        "5ed0841d7374dacb199a767d5037ec884544ac73c8279c6004581495825bb949",
    "table2":
        "79ae0de688bb4a1f75f3ce4122586d59a39f2c330d012585d04815be9810ad4e",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_canonical_output_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[command], (
        f"`python -m repro {command}` changed its canonical output")
