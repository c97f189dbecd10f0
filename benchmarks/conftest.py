"""Shared benchmark configuration and the one bench recorder.

Benchmarks run the simulator at a reduced-but-faithful machine scale
(256 MiB instead of the paper's 900 000 KB) so each table regenerates in
seconds; the cost model is identical, and per-operation latencies are
independent of installed memory.  Results print as paper-style tables.

Benches that keep numbers write them through :func:`record` into one of
three files, each ``{section: {...}}`` with one section per bench and a
stamp of the host that produced it.  Regression gates read their baseline
through :func:`committed`.  Both fail the test on a missing or malformed
file, so no bad file can turn a gate off.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from pathlib import Path

import numpy
import pytest

from repro.hw.machine import reset_machine_ids
from repro.params import MachineConfig

#: the machine configuration every benchmark builds
BENCH_MEM_KB = 262_144

REPO_ROOT = Path(__file__).resolve().parent.parent
PERF = REPO_ROOT / "BENCH_perf.json"
RECOVERY = REPO_ROOT / "BENCH_recovery.json"
FAULTS = REPO_ROOT / "BENCH_faults.json"


def pytest_runtest_setup(item):
    # deterministic machine names/NIC addresses per benchmark
    reset_machine_ids()


@pytest.fixture(scope="session")
def bench_config():
    return dataclasses.replace(MachineConfig(), mem_kb=BENCH_MEM_KB)


def sections(path: Path) -> dict:
    """Every section of ``path``, in file order."""
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path.name} is not a {{section: ...}} object")
    return data


def committed(path: Path, section: str) -> dict:
    """``section`` as ``path`` holds it; call it before :func:`record`
    rewrites that section."""
    data = sections(path)
    if section not in data:
        raise KeyError(f"{path.name} has no {section!r} section")
    return data[section]


def _host() -> dict:
    """What produced a section's host-time numbers."""
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip()
              for line in (cpuinfo.read_text().splitlines()
                           if cpuinfo.exists() else ())
              if line.startswith("model name")]
    return {"cores": os.cpu_count(),
            "cpu": models[0] if models else platform.processor(),
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def record(path: Path, section: str, data: dict) -> None:
    """Replace ``section`` of ``path`` with the host stamp plus ``data``;
    every other section stays as it is, in its place."""
    merged = {**sections(path), section: {"host": _host(), **data}}
    path.write_text(json.dumps(merged, indent=2) + "\n")


def timed(fn, repeats: int = 1):
    """``fn()``'s result and its fastest host wall time (s) over
    ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best
