"""End-to-end benchmark of the Mercury simulator.

Usage (from the repository root)::

    python3 e2ebench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                            [--repeats N] [--trace 0|1] [--out FILE]

Each repetition of a workload runs in a fresh child process
(``child.py``), one child at a time, with ``workers=1``.  Repetitions go
round-robin across the selected workloads, so a slow spell on the host is
spread over all of them.  At least ``--repeats`` rounds run; with
``--seconds S`` more rounds follow while they fit in S seconds per
workload.  ``--trace 1`` (or ``--traced``) adds one traced child per
workload that reports the per-layer metrics.

``setup_s`` and ``peak_rss_mb`` are the median over the repetitions;
``ops_per_s`` divides the work by :func:`best_run_s`, which filters the
host's bursts of contention out of the repetitions' run times.  Medians
and quartiles per repetition are in the table and in ``--out``.
Simulated results and the sha256 of each workload's canonical output
must be identical across all repetitions and the traced run.  Any failed
output check makes the command exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` (per-layer ones with ``--trace 1``), each
as ``{"value": ..., "unit": ...}``, nested by workload when several are
selected.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEEDS, SIZES  # noqa: E402

#: every invocation must end well inside three minutes
TIME_LIMIT_S = 170.0

#: host metrics measured on every untraced repetition
HOST_METRICS = ("setup_s", "ops_per_s", "peak_rss_mb")


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, size: str, traced: bool,
              deadline: float) -> dict:
    """Run one repetition in a fresh process; return its record plus the
    host conditions it ran under."""
    load = os.getloadavg()[0]
    before = cpu_times()
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), size,
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: child passed the time limit") from None
    wall = time.monotonic() - start
    after = cpu_times()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n"
                          + proc.stderr[-2000:])
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    record["loadavg_1m"] = load
    if before and after and after[1] > before[1]:
        record["steal_frac"] = (after[0] - before[0]) / (after[1] - before[1])
    else:
        record["steal_frac"] = None
    if not traced:
        record["ops_per_s"] = completed(record) / record["run_s"]
    return record


def completed(record: dict) -> int:
    return record["ops"] - record["failed"]


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def spread(values: list) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def best_run_s(runs: list) -> float:
    """Run time with the host's bursts of contention filtered out.

    Every repeat of a seed does the same work segment by segment (fleet
    window, chaos episode, paper configuration), and contention only ever
    adds time, so the fastest repeat of each segment, summed, plus the
    fastest remainder outside the segments, estimates the run time on a
    quiet host."""
    columns = zip(*(r["segments"] for r in runs))
    rest = min(r["run_s"] - sum(r["segments"]) for r in runs)
    return sum(min(column) for column in columns) + max(rest, 0.0)


def sim_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%"),
                         ("_samples", "count")):
        if name.endswith(suffix):
            return unit
    return ""


def summarize(workload: str, seed: int, size: str, runs: list,
              traced: dict | None, spec: dict) -> dict:
    """One workload's result: host spreads, simulated results, checks."""
    problems = [f"run {i}: {p}" for i, r in enumerate(runs)
                for p in r["problems"]]
    shas = {r["sha256"] for r in runs}
    sims = [r["sim"] for r in runs]
    if any(s != sims[0] for s in sims):
        problems.append("simulated results differ between repeats")
    if len({len(r["segments"]) for r in runs}) > 1:
        problems.append("segment counts differ between repeats")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    host = {}
    for metric in HOST_METRICS:
        host[metric] = spread([r[metric] for r in runs])
        host[metric]["value"] = host[metric]["median"]
        host[metric]["unit"] = units[metric]
    host["ops_per_s"]["value"] = completed(runs[0]) / best_run_s(runs)
    out = {
        "workload": workload, "seed": seed, "size": size,
        "params": SIZES[workload][size],
        "repeats": len(runs),
        "host": host,
        "sim": sims[0],
        "sha256": sorted(shas)[0],
        "attempted": sum(r["ops"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "runs": [{k: r[k] for k in ("setup_s", "run_s", "ops_per_s",
                                    "peak_rss_mb", "wall_s", "loadavg_1m",
                                    "steal_frac")} for r in runs],
    }
    if traced is not None:
        problems += [f"traced run: {p}" for p in traced["problems"]]
        shas.add(traced["sha256"])
        if any(traced["sim"].get(k) != v for k, v in sims[0].items()):
            problems.append("simulated results differ when traced")
        layer = dict(traced["layer"])
        untraced_s = statistics.median(r["run_s"] for r in runs)
        layer["trace_overhead_pct"] = 100.0 * (traced["run_s"] / untraced_s
                                               - 1.0)
        declared = {m["name"] for m in spec["per_layer"]}
        if set(layer) != declared:
            problems.append(
                f"per-layer metrics missing {sorted(declared - set(layer))} "
                f"extra {sorted(set(layer) - declared)}")
        out["per_layer"] = layer
        out["traced_run"] = {k: traced[k] for k in ("setup_s", "run_s",
                                                    "wall_s", "loadavg_1m",
                                                    "steal_frac")}
        out["attempted"] += traced["ops"]
        out["failed"] += traced["failed"]
    if len(shas) > 1:
        problems.append(f"canonical output differs between runs: "
                        f"{sorted(s[:12] for s in shas)}")
    out["failed_frac"] = out["failed"] / out["attempted"]
    out["problems"] = problems
    return out


def declared_metrics(result: dict, spec: dict, traced: bool) -> dict:
    if traced:
        return {m["name"]: {"value": result["per_layer"][m["name"]],
                            "unit": m["unit"]} for m in spec["per_layer"]}
    return {m["name"]: {"value": result["host"][m["name"]]["value"],
                        "unit": m["unit"]} for m in spec["end_to_end"]}


def print_result(result: dict, spec: dict) -> None:
    print(f"\n== {result['workload']}  seed {result['seed']}  "
          f"{result['repeats']} fresh-process repeats  "
          f"{json.dumps(result['params'])}")
    for name, s in result["host"].items():
        print(f"  {name:<34}{s['value']:>14.6g} {s['unit']:<6} per repeat:"
              f" median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
              f"  n={s['n']}")
    print(f"  {'failed_frac':<34}{result['failed_frac']:>14.6g} {'ratio':<6}"
          f"{result['failed']} of {result['attempted']} over every run")
    print("  simulated (identical across repeats):")
    sim = result["sim"]
    for name, value in sim.items():
        if name.endswith("_samples"):
            continue
        samples = sim.get(name.split("_p")[0] + "_samples")
        n = "" if samples is None else f"n={samples}"
        print(f"  {name:<34}{value:>14.6g} {sim_unit(name):<6}{n}")
    if "per_layer" in result:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("  per layer (traced run):")
        for name, value in sorted(result["per_layer"].items()):
            print(f"  {name:<34}{value:>14.6g} {units.get(name, '')}")
    print(f"  sha256 {result['sha256']}")
    print("  checks: " + ("ok" if not result["problems"] else
                          "FAILED\n    " + "\n    ".join(result["problems"])))


# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", nargs="+",
                        choices=sorted(SIZES), default=None,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: per workload; the "
                             "paper workload takes none)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding rounds while they fit in this "
                             "many seconds per workload")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum fresh-process repeats per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced run per workload and report "
                             "the per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result as JSON to this file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or list(SIZES)
    seeds = {w: DEFAULT_SEEDS[w] if args.seed is None else args.seed
             for w in names}
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    budget = args.seconds * len(names)
    runs: dict = {w: [] for w in names}
    try:
        while True:
            for w in names:
                runs[w].append(run_child(w, seeds[w], args.size, False,
                                         deadline))
            rounds = len(runs[names[0]])
            elapsed = time.monotonic() - start
            # the next round, then the traced children (about two rounds)
            finish = elapsed * (rounds + 1 + 2 * args.trace) / rounds
            if finish > TIME_LIMIT_S - 20.0:
                break
            if rounds >= args.repeats and finish > budget:
                break
        traced = {w: run_child(w, seeds[w], args.size, True, deadline)
                  for w in names} if args.trace else {}
    except ChildFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    results = {w: summarize(w, seeds[w], args.size, runs[w], traced.get(w),
                            spec) for w in names}
    first = runs[names[0]][0]
    meta = {"cores": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": first["numpy"],
            "git_sha": git_sha(), "platform": platform.platform(),
            "elapsed_s": time.monotonic() - start}
    for result in results.values():
        print_result(result, spec)
    print(f"\nhost: {json.dumps(meta)}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"meta": meta, "workloads": results},
                                       indent=1) + "\n")

    correct = not any(r["problems"] for r in results.values())
    metrics = {w: declared_metrics(r, spec, bool(args.trace))
               for w, r in results.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
