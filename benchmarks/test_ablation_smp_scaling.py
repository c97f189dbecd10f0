"""Ablation A2 (§5.4 / §8): mode-switch scalability with core count.

The paper's future-work section worries that "the performance scalability
of Mercury will be of great importance in supporting a relatively
large-scale multicore machine" under the IPI + shared-variable protocol.
This bench measures attach latency and rendezvous gather time from 1 to 16
cores and records where the protocol's serial parts start to matter.
"""

from repro import Machine, Mercury

CORE_COUNTS = (1, 2, 4, 8, 16)


def _switch_on(bench_config, ncpus):
    machine = Machine(bench_config.with_cpus(ncpus))
    mercury = Mercury(machine)
    kernel = mercury.create_kernel(image_pages=256)
    cpu = machine.boot_cpu
    for _ in range(12):
        kernel.syscall(cpu, "fork")
    rec = mercury.attach()
    mercury.detach()
    return rec


def test_ablation_smp_scaling(bench_config):
    recs = {n: _switch_on(bench_config, n) for n in CORE_COUNTS}

    print()
    print("Ablation A2: mode-switch scalability with core count (Section 5.4)")
    print()
    print(f"  {'cores':>6}{'attach (µs)':>14}{'gather (µs)':>14}"
          f"{'IPIs':>6}")
    print(f"  {'-'*40}")
    for n, rec in recs.items():
        gather = (rec.rendezvous.gather_cycles / 3000
                  if rec.rendezvous else 0.0)
        ipis = rec.rendezvous.ipis_sent if rec.rendezvous else 0
        print(f"  {n:>6}{rec.us():>14.2f}{gather:>14.3f}{ipis:>6}")

    # gather time grows with cores (serial IPI acks)...
    gathers = [recs[n].rendezvous.gather_cycles for n in CORE_COUNTS[1:]]
    assert gathers == sorted(gathers)
    # ...but the overall switch stays sub-linear: 16 cores costs far less
    # than 8x the 2-core switch, because per-CPU reloads run in parallel
    assert recs[16].cycles < 8 * recs[2].cycles
    # and every configuration still commits sub-millisecond
    for n in CORE_COUNTS:
        assert recs[n].ms() < 1.0


def test_ablation_rendezvous_ipis_match_core_count(bench_config):
    for n in (2, 4):
        rec = _switch_on(bench_config, n)
        assert rec.rendezvous.ipis_sent == n - 1
        assert rec.rendezvous.num_cpus == n
