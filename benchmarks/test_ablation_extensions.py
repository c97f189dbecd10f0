"""Ablation A3: the §8 future-work extensions, quantified.

1. **Hardware-assisted switch** (VT-x VMCS + EPT) vs the paper's software
   switch: the VMCS collapses the piecewise transfer/reload into one
   capture+entry, and the EPT removes the page type/count recompute — the
   dominant attach cost.  Measured head to head at the same process
   population.
2. **Tree rendezvous** vs the flat IPI + shared-variable protocol (§5.4)
   across core counts: the CP's gather work drops from O(n) to O(log n).
"""

from repro import Machine, Mercury
from repro.core.hvm import HvmMercury
from repro.core.smp_tree import use_tree_protocol

PROCESSES = 24


def _software(bench_config):
    machine = Machine(bench_config)
    mc = Mercury(machine)
    k = mc.create_kernel(image_pages=256)
    for _ in range(PROCESSES):
        k.syscall(machine.boot_cpu, "fork")
    return mc


def _hardware(bench_config):
    machine = Machine(bench_config)
    h = HvmMercury(machine)
    k = h.create_kernel(image_pages=256)
    for _ in range(PROCESSES):
        k.syscall(machine.boot_cpu, "fork")
    return h


def test_ablation_hvm_vs_software_switch(bench_config):
    sw = _software(bench_config)
    sw_a, sw_d = sw.attach(), sw.detach()
    hw = _hardware(bench_config)
    hw_a, hw_d = hw.attach(), hw.detach()

    print()
    print("Ablation A3a: software vs hardware-assisted mode switch (Section 8)")
    print()
    print(f"  {'path':<26}{'attach (µs)':>13}{'detach (µs)':>13}")
    print(f"  {'-'*52}")
    print(f"  {'paravirtual (paper)':<26}{sw_a.us():>13.2f}{sw_d.us():>13.2f}")
    print(f"  {'VT-x VMCS + EPT':<26}{hw_a.us():>13.2f}{hw_d.us():>13.2f}")
    speedup = sw_a.cycles / hw_a.cycles
    print(f"\n  attach speedup: {speedup:.1f}x "
          f"(EPT build over {hw_a.ept_frames} frames replaces the "
          f"{sw_a.pt_pages}-PT-page recompute)")

    assert hw_a.cycles < sw_a.cycles          # the §8 prediction
    assert hw_d.cycles < sw_d.cycles
    assert speedup > 2.0


def test_ablation_hvm_runtime_microbenchmarks(bench_config):
    """Runtime (not just switch-time) effect of hardware assistance: with
    EPT, the guest's page-table work runs at native speed; only
    exit-controlled operations (CR3 loads in context switches) pay."""
    from repro.bench.configs import build_config
    from repro.workloads.lmbench import (bench_ctx, bench_fork,
                                         bench_page_fault)

    rows = {}
    for key in ("N-L", "X-0"):
        sut = build_config(key, bench_config, image_pages=256)
        rows[key] = {
            "fork": bench_fork(sut.kernel, sut.cpu, iters=3),
            "ctx": bench_ctx(sut.kernel, sut.cpu, 2, 0, rounds=3),
            "pagefault": bench_page_fault(sut.kernel, sut.cpu, iters=32),
        }
    machine = Machine(bench_config)
    hvm = HvmMercury(machine)
    k = hvm.create_kernel(image_pages=256)
    hvm.attach()
    rows["H-V"] = {
        "fork": bench_fork(k, machine.boot_cpu, iters=3),
        "ctx": bench_ctx(k, machine.boot_cpu, 2, 0, rounds=3),
        "pagefault": bench_page_fault(k, machine.boot_cpu, iters=32),
    }
    hvm.detach()
    print()
    print("Ablation A3c: guest-mode microbenchmarks, paravirtual vs HVM (µs)")
    print()
    print(f"  {'row':<12}{'N-L':>10}{'X-0 (PV)':>12}{'H-V (EPT)':>12}")
    print(f"  {'-'*46}")
    for row in ("fork", "ctx", "pagefault"):
        print(f"  {row:<12}{rows['N-L'][row]:>10.2f}"
              f"{rows['X-0'][row]:>12.2f}{rows['H-V'][row]:>12.2f}")

    # fork: the paravirtual MMU tax disappears under EPT...
    assert rows["H-V"]["fork"] < rows["X-0"]["fork"] * 0.5
    assert rows["H-V"]["fork"] < rows["N-L"]["fork"] * 1.5
    # ...page faults are near-native (no trap bounce, no mmu_update)...
    assert rows["H-V"]["pagefault"] < rows["X-0"]["pagefault"] * 0.6
    # ...but context switches still pay the CR3 vmexit
    assert rows["H-V"]["ctx"] > rows["N-L"]["ctx"]


def test_ablation_flat_vs_tree_rendezvous(bench_config):
    def gather_cycles(ncpus, tree):
        machine = Machine(bench_config.with_cpus(ncpus))
        mc = Mercury(machine)
        k = mc.create_kernel(image_pages=64)
        for _ in range(6):
            k.syscall(machine.boot_cpu, "fork")
        if tree:
            use_tree_protocol(mc)
        rec = mc.attach()
        mc.detach()
        return rec.rendezvous.gather_cycles

    out = {n: (gather_cycles(n, tree=False), gather_cycles(n, tree=True))
           for n in (2, 4, 8, 16, 32)}
    print()
    print("Ablation A3b: flat vs tree rendezvous gather time (Section 8)")
    print()
    print(f"  {'cores':>6}{'flat (µs)':>12}{'tree (µs)':>12}{'ratio':>8}")
    print(f"  {'-'*38}")
    for n, (flat, tree) in out.items():
        print(f"  {n:>6}{flat/3000:>12.3f}{tree/3000:>12.3f}"
              f"{flat/tree:>8.2f}")

    # flat grows linearly; tree logarithmically — the gap must widen
    assert out[32][0] / out[32][1] > out[4][0] / out[4][1]
    assert out[32][1] < out[32][0]
