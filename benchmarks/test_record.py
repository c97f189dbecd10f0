"""The bench recorder in ``conftest.py``: a bench rewrites only its own
section, and no missing or malformed result file turns a gate off."""

from __future__ import annotations

import os

import pytest

from conftest import committed, record, sections, timed

ORIGINAL = b'{"a": {"x": 1}, "b": {"y": [2, 3]}, "c": {"z": 4}}\n'


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "BENCH_test.json"
    path.write_bytes(ORIGINAL)
    return path


def test_committed_returns_the_section(bench_file):
    assert committed(bench_file, "b") == {"y": [2, 3]}


def test_committed_fails_on_a_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        committed(tmp_path / "BENCH_absent.json", "a")


def test_committed_fails_on_malformed_json(bench_file):
    bench_file.write_bytes(b"{")
    with pytest.raises(ValueError):
        committed(bench_file, "a")


def test_committed_fails_on_a_missing_section(bench_file):
    with pytest.raises(KeyError, match="no 'd' section"):
        committed(bench_file, "d")


def test_record_replaces_one_section_in_place(bench_file):
    record(bench_file, "b", {"y": 5})

    after = sections(bench_file)
    assert list(after) == ["a", "b", "c"]
    assert after["a"] == {"x": 1}
    assert after["c"] == {"z": 4}
    assert list(after["b"]) == ["host", "y"]
    assert after["b"]["y"] == 5
    assert after["b"]["host"]["cores"] == os.cpu_count()
    assert set(after["b"]["host"]) == {"cores", "cpu", "python", "numpy"}
    text = bench_file.read_bytes()
    assert text.startswith(b'{\n  "a": {\n    "x": 1\n  },')
    assert text.endswith(b"}\n}\n")


def test_record_appends_a_new_section_last(bench_file):
    record(bench_file, "d", {"w": 0})
    assert list(sections(bench_file)) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("content", [b"{", b"", b"[]"],
                         ids=["truncated", "empty", "not-an-object"])
def test_record_on_a_malformed_file_raises_and_writes_nothing(bench_file,
                                                               content):
    bench_file.write_bytes(content)
    with pytest.raises(ValueError):
        record(bench_file, "a", {"x": 2})
    assert bench_file.read_bytes() == content


def test_record_on_a_missing_file_creates_nothing(tmp_path):
    path = tmp_path / "BENCH_absent.json"
    with pytest.raises(FileNotFoundError):
        record(path, "a", {"x": 2})
    assert not path.exists()


def test_timed_returns_the_result_and_the_fastest_run():
    calls = []
    result, best = timed(lambda: calls.append(1) or len(calls), repeats=3)
    assert result == 3
    assert len(calls) == 3
    assert best >= 0.0
