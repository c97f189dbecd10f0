"""Ablation A4: direct vs shadow paging (§3.2.2).

"As the page table entries in guest operating systems are directly
installed in hardware, no translation is required during a mode switch,
which could largely reduce the complexity of implementing a
self-virtualization system.  Currently, Mercury utilizes the direct access
mode to simplify the implementation."

This bench measures what that choice bought: mode-switch cost, steady-state
runtime overhead in virtual mode, and the shadow memory tax.
"""

from repro import Machine, Mercury
from repro.core.mercury import PagingMode

PROCESSES = 16


def _build(bench_config, paging):
    machine = Machine(bench_config)
    mc = Mercury(machine, paging=paging)
    k = mc.create_kernel(image_pages=256)
    cpu = machine.boot_cpu
    for _ in range(PROCESSES):
        k.syscall(cpu, "fork")
    return mc


def _virtual_workload_cycles(mc) -> int:
    k = mc.kernel
    cpu = mc.machine.boot_cpu
    t0 = cpu.rdtsc()
    for _ in range(3):
        child = k.spawn_process(cpu, "churn", image_pages=96)
        k.run_and_reap(cpu, child)
    return cpu.rdtsc() - t0


def test_ablation_direct_vs_shadow(bench_config):
    out = {}
    for paging in (PagingMode.DIRECT, PagingMode.SHADOW):
        mc = _build(bench_config, paging)
        attach = mc.attach()
        tax = mc.pager.shadow_frames_in_use() if mc.pager is not None else 0
        runtime = _virtual_workload_cycles(mc)
        detach = mc.detach()
        out[paging.value] = {
            "attach_us": attach.us(), "detach_us": detach.us(),
            "runtime_cycles": runtime, "shadow_frames": tax,
        }
    d, s = out["direct"], out["shadow"]

    print()
    print("Ablation A4: direct vs shadow paging (Section 3.2.2)")
    print()
    print(f"  {'mode':<10}{'attach (µs)':>13}{'detach (µs)':>13}"
          f"{'virt workload (Mcyc)':>22}{'shadow frames':>15}")
    print(f"  {'-'*73}")
    for name, v in out.items():
        print(f"  {name:<10}{v['attach_us']:>13.2f}{v['detach_us']:>13.2f}"
              f"{v['runtime_cycles']/1e6:>22.2f}{v['shadow_frames']:>15}")
    overhead = (s["runtime_cycles"] - d["runtime_cycles"]) \
        / d["runtime_cycles"]
    print(f"\n  shadow runtime overhead in virtual mode: {overhead*100:.1f}%")
    print(f"  shadow attach cost vs direct: "
          f"{s['attach_us']/d['attach_us']:.2f}x")

    # §3.2.2's argument, quantified: shadow needs the translation pass at
    # switch time, taxes memory, and costs more per PT update at runtime
    assert s["attach_us"] > d["attach_us"]
    assert s["shadow_frames"] > 0 and d["shadow_frames"] == 0
    assert overhead > 0.02


def test_shadow_results_identical_to_direct(bench_config):
    """Same workload, both paging modes: identical observable results."""
    results = {}
    for paging in (PagingMode.DIRECT, PagingMode.SHADOW):
        mc = _build(bench_config, paging)
        k = mc.kernel
        cpu = mc.machine.boot_cpu
        mc.attach()
        fd = k.syscall(cpu, "open", "/same", True)
        k.syscall(cpu, "write", fd, "identical", 4096)
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
        k.syscall(cpu, "lseek", fd, 0)
        results[paging] = (k.syscall(cpu, "read", fd, 4096),
                           len(k.procs.live_tasks()))
        mc.detach()
    assert results[PagingMode.DIRECT] == results[PagingMode.SHADOW]
