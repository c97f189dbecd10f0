"""Smoke tests for the end-to-end benchmark, at the tiny workload size.

Run from the repository root (they are outside the tier-1 ``testpaths``)::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def child(workload: str, seed: int, traced: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), "tiny",
         "1" if traced else "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_set(tmp_path_factory):
    """One tiny set over every workload: one repeat plus a traced run."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny",
         "--repeats", "1", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.splitlines()[-1])
    return proc, last, json.loads(out.read_text())


def test_spec_is_within_the_declared_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_is_emitted_with_its_unit(traced_set):
    proc, last, result = traced_set
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    for workload in WORKLOADS:
        emitted = last["metrics"][workload]
        assert list(emitted) == [m["name"] for m in SPEC["per_layer"]]
        for metric in SPEC["per_layer"]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
        host = result["workloads"][workload]["host"]
        for metric in SPEC["end_to_end"]:
            assert host[metric["name"]]["unit"] == metric["unit"]
            assert host[metric["name"]]["median"] > 0


def test_each_workload_reports_its_simulated_results(traced_set):
    _, last, _ = traced_set
    expected = {"fleet-sparse": ("req_p99_us", "wave_ms", "attach_us"),
                "fleet-dense": ("req_p999_us", "wave_p99_us",
                                "vmm.pages_reclaimed"),
                "chaos": ("mttr_p50_us", "watchdog.detect_p99_us",
                          "bench.episode_ms_p99"),
                "paper": ("paper_err_pct", "attach_us",
                          "core.attach.transfer.page-tables_us")}
    for workload, names in expected.items():
        for name in names:
            assert last["metrics"][workload][name]["value"] > 0, \
                (workload, name)


def test_wrappers_only_observe():
    plain = child("fleet-dense", 7, traced=False)
    traced = child("fleet-dense", 7, traced=True)
    assert plain["sha256"] == traced["sha256"]
    assert traced["layer"]["fleet.gen_late_max_us"] == 0
    assert not plain["problems"] and not traced["problems"]


def test_a_different_seed_changes_the_fleet_output():
    assert child("fleet-sparse", 1, False)["sha256"] != \
        child("fleet-sparse", 2, False)["sha256"]


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "chaos", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class _Toy:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return sum(range(n))


def test_self_times_add_up_to_the_top_level_spans():
    rec = spans.Recorder()
    original = _Toy.__dict__["outer"]
    rec.wrap(_Toy, "outer", "a")
    rec.wrap(_Toy, "inner", "b")
    _Toy().outer(10_000)
    _Toy().inner(10)
    rec.restore()
    assert _Toy.__dict__["outer"] is original
    assert [s[0] for s in rec.spans] == ["a:_Toy.outer", "b:_Toy.inner",
                                         "b:_Toy.inner", "b:_Toy.inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0, -1]
    layers = rec.self_by_layer()
    assert sum(layers.values()) == pytest.approx(rec.top_level_s())
    assert rec.inclusive_s("b:_Toy.inner") == pytest.approx(
        sum(rec.durations("b:_Toy.inner")))
