"""``MetricsSnapshot.merge``: the fleet aggregation the sharded
simulation depends on.

The contract: merging k disjoint per-machine snapshots — however they
were grouped into shards first — equals merging all of them directly.
Every counter combines by its :data:`~repro.metrics.COUNTERS` row's rule
(``add``, ``max`` — every machine has its own clock — or key-wise
``hist``); the strategies and expectations below are derived from the
registry, so a new row is covered without touching this file."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fleet import LatencyHistogram
from repro.metrics import (ADD, COUNTERS, HIST, MAX, MetricsCollector,
                           MetricsSnapshot)

#: counters exercised explicitly because the sharded benches gate on them
KEY_FIELDS = ("switch_retries", "pending_retries", "watchdog_scans",
              "watchdog_detections", "recoveries", "recovery_failures",
              "mode_switches", "faults_injected")

histograms = st.dictionaries(st.integers(min_value=0, max_value=16),
                             st.integers(min_value=1, max_value=10**6),
                             max_size=6)
counts = st.integers(min_value=0, max_value=10**9)

snapshots = st.fixed_dictionaries({}, optional={
    c.name: histograms if c.merge == HIST else counts for c in COUNTERS
}).map(lambda values: MetricsSnapshot(**values))


@settings(max_examples=60, deadline=None)
@given(st.lists(snapshots, min_size=1, max_size=8),
       st.data())
def test_merge_is_partition_invariant(snaps, data):
    """Grouping into shards then merging the shard merges equals merging
    every per-machine snapshot at once — for any partition."""
    direct = MetricsSnapshot.merge(snaps)
    k = data.draw(st.integers(min_value=1, max_value=len(snaps)))
    groups = [[] for _ in range(k)]
    for i, snap in enumerate(snaps):
        groups[data.draw(st.integers(min_value=0, max_value=k - 1))
               ].append(snap)
    partitioned = MetricsSnapshot.merge(
        MetricsSnapshot.merge(g) for g in groups if g)
    assert partitioned == direct


@settings(max_examples=30, deadline=None)
@given(st.lists(snapshots, min_size=1, max_size=6))
def test_merge_sums_counters_and_maxes_cycles(snaps):
    merged = MetricsSnapshot.merge(snaps)
    for c in COUNTERS:
        values = [getattr(s, c.name) for s in snaps]
        if c.merge == ADD:
            expect = sum(values)
        elif c.merge == MAX:
            expect = max(values)
        else:
            assert c.merge == HIST, c.name
            expect = {k: sum(v.get(k, 0) for v in values)
                      for k in {k for v in values for k in v}}
        assert getattr(merged, c.name) == expect, c.name


@settings(max_examples=30, deadline=None)
@given(snapshots, snapshots)
def test_diff_follows_the_merge_rule(a, b):
    """Scalars subtract; histograms subtract key-wise over the minuend's
    keys (histograms only grow), dropping zeros."""
    delta = a - b
    for c in COUNTERS:
        mine, theirs = getattr(a, c.name), getattr(b, c.name)
        if c.merge == HIST:
            expect = {k: v - theirs.get(k, 0) for k, v in mine.items()
                      if v != theirs.get(k, 0)}
        else:
            expect = mine - theirs
        assert getattr(delta, c.name) == expect, c.name


@settings(max_examples=20, deadline=None)
@given(snapshots)
def test_merge_identity(snap):
    assert MetricsSnapshot.merge([snap]) == snap
    assert MetricsSnapshot.merge((snap, MetricsSnapshot())) == snap


def test_merge_key_fields_explicitly():
    """The retry histogram and watchdog counters (the fields the chaos /
    sharding gates read) add key-wise."""
    a = MetricsSnapshot(cycles=100)
    b = MetricsSnapshot(cycles=300)
    for i, name in enumerate(KEY_FIELDS, start=1):
        setattr(a, name, i)
        setattr(b, name, 10 * i)
    a.retry_histogram = {0: 5, 1: 2}
    b.retry_histogram = {1: 3, 4: 7}
    merged = MetricsSnapshot.merge((a, b))
    assert merged.cycles == 300
    for i, name in enumerate(KEY_FIELDS, start=1):
        assert getattr(merged, name) == 11 * i
    assert merged.retry_histogram == {0: 5, 1: 5, 4: 7}
    # inputs untouched
    assert a.retry_histogram == {0: 5, 1: 2}


latency_samples = st.lists(st.integers(min_value=0, max_value=2**40),
                           max_size=50)


def _latency_snap(vals) -> MetricsSnapshot:
    hist = LatencyHistogram()
    for v in vals:
        hist.record(v)
    snap = MetricsSnapshot()
    snap.latency_histogram = hist.buckets
    return snap


@settings(max_examples=40, deadline=None)
@given(a=latency_samples, b=latency_samples, c=latency_samples)
def test_latency_histogram_merge_is_associative(a, b, c):
    """(a+b)+c == a+(b+c) through the snapshot merge path, and both equal
    recording every sample into one histogram."""
    sa, sb, sc = _latency_snap(a), _latency_snap(b), _latency_snap(c)
    merge = MetricsSnapshot.merge
    left = merge((merge((sa, sb)), sc))
    right = merge((sa, merge((sb, sc))))
    assert left.latency_histogram == right.latency_histogram
    assert left.latency_histogram == _latency_snap(a + b + c
                                                   ).latency_histogram


@settings(max_examples=40, deadline=None)
@given(st.lists(latency_samples, min_size=1, max_size=8), st.data())
def test_latency_histogram_merge_is_partition_invariant(sample_sets, data):
    """However per-machine latency logs are grouped into shards, the
    fleet-wide histogram — and so every percentile readout — is the
    same."""
    snaps = [_latency_snap(vals) for vals in sample_sets]
    direct = MetricsSnapshot.merge(snaps)
    k = data.draw(st.integers(min_value=1, max_value=len(snaps)))
    groups = [[] for _ in range(k)]
    for snap in snaps:
        groups[data.draw(st.integers(min_value=0, max_value=k - 1))
               ].append(snap)
    partitioned = MetricsSnapshot.merge(
        MetricsSnapshot.merge(g) for g in groups if g)
    assert partitioned.latency_histogram == direct.latency_histogram
    direct_hist = LatencyHistogram.from_counts(direct.latency_histogram)
    part_hist = LatencyHistogram.from_counts(partitioned.latency_histogram)
    for q in (0.5, 0.95, 0.99, 0.999):
        assert direct_hist.percentile(q) == part_hist.percentile(q)


def test_merge_of_real_disjoint_runs_equals_combined_counters():
    """Two real machines, real workloads: the merged snapshot carries
    exactly the sum of what each collector measured."""
    from repro import Machine, Mercury, small_config

    snaps = []
    for rounds in (1, 2):
        mercury = Mercury(Machine(small_config()))
        kernel = mercury.create_kernel(image_pages=8)
        cpu = mercury.machine.boot_cpu
        for _ in range(rounds):
            kernel.syscall(cpu, "fork")
            mercury.attach()
            mercury.detach()
        snaps.append(MetricsCollector(mercury.machine, kernel=kernel,
                                      mercury=mercury).snapshot())
    merged = MetricsSnapshot.merge(snaps)
    assert merged.mode_switches == sum(s.mode_switches for s in snaps) == 6
    assert merged.syscalls == sum(s.syscalls for s in snaps)
    assert merged.cycles == max(s.cycles for s in snaps)
