"""Host cost of releasing a batch of frames through the share-count column.

A teardown (exit, exec) or a munmap drops one copy-on-write share on each
frame it unmapped and frees the frames left with none:
``VirtualMemory.release_frames`` and ``PhysicalMemory.free_many``.  A
batch of distinct frames in range is one numpy pass over the share and
owner columns; the per-frame loops (``_release_each``, ``_free_each``)
remain as the fallback and the reference.  The bench times both on a
booted kernel of the bench machine, for a 384-frame teardown batch (the
§7.4 image) and an 8,192-frame munmap batch (lmbench's 32 MB Mmap LT),
each frame at one share so every frame is freed, best of 7 rounds with
the two arms alternating.  It records a ``frame_release`` section in
``BENCH_perf.json`` and gates it against the committed section: the
pass's time, as a share of the loop's measured in the same run
(``pass_share``), may be at most twice its committed value.  Host load
that slows both arms cancels out of the share; the absolute ns figures
are recorded but not gated.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import PERF, committed, record
from repro import Machine, Mercury

BATCHES = {"teardown": 384, "munmap": 8192}
ROUNDS = 7
#: batches released per round, so a round lasts well above timer noise
PER_ROUND = {"teardown": 40, "munmap": 3}
#: the pass-share gate, as a multiple of the committed share
MAX_SHARE_RATIO = 2.0


def _release(kernel, n: int, batches: int, loop: bool) -> tuple:
    """Seconds per batch of ``n`` freshly claimed frames released, and the
    recycle stack it left; ``loop`` releases and frees a frame at a time.
    Each arm gets the batch as its caller hands it over: the pass an int64
    array (teardown's and munmap's gather), the loop a list."""
    vmem, mem = kernel.vmem, kernel.machine.memory
    if loop:
        mem.free_many = mem._free_each
    try:
        spent = 0.0
        for _ in range(batches):
            frames = mem.alloc_many(kernel.owner_id, n)
            vmem.claim_frames(frames)
            batch = frames if loop else np.asarray(frames, dtype=np.int64)
            t0 = time.perf_counter()
            if loop:
                vmem._release_each(batch)
            else:
                vmem.release_frames(None, batch)
            spent += time.perf_counter() - t0
    finally:
        if loop:
            del mem.free_many
    return spent / batches, list(mem._recycled)


def _measure(bench_config, name: str) -> dict:
    n, batches = BATCHES[name], PER_ROUND[name]
    arms = {}
    for loop in (False, True):
        mercury = Mercury(Machine(bench_config))
        arms[loop] = (mercury.create_kernel(image_pages=16), [])
    for _ in range(ROUNDS):
        for loop, (kernel, times) in arms.items():
            seconds, recycled = _release(kernel, n, batches, loop)
            times.append(seconds)
            assert len(recycled) >= n
    # the same frames freed, in the same recycle order, on either arm
    assert (arms[False][0].machine.memory._recycled
            == arms[True][0].machine.memory._recycled)
    best_pass, best_loop = min(arms[False][1]), min(arms[True][1])
    return {"frames": n,
            "ns_per_frame": round(best_pass / n * 1e9),
            "ns_per_frame_per_frame_loop": round(best_loop / n * 1e9),
            "pass_share": round(best_pass / best_loop, 3)}


def test_frame_release_cost(bench_config):
    # read before this run overwrites it
    baseline = committed(PERF, "frame_release")
    batches = {name: _measure(bench_config, name) for name in BATCHES}
    for name, now in batches.items():
        limit = MAX_SHARE_RATIO * baseline["batches"][name]["pass_share"]
        assert now["pass_share"] <= limit, (
            f"{name}: releasing {now['frames']} frames in one pass costs "
            f"{now['pass_share']} of the per-frame loops, over "
            f"{MAX_SHARE_RATIO}x the committed "
            f"{baseline['batches'][name]['pass_share']}")
    record(PERF, "frame_release", {
        "workload": "release_frames + free_many of a batch of freshly "
                    "claimed frames at one share each (all freed) on a "
                    "booted kernel of the bench machine, numpy pass "
                    "against the per-frame loops (best of "
                    f"{ROUNDS} rounds, arms alternating)",
        "batches": batches,
        "max_share_ratio": MAX_SHARE_RATIO,
    })
