"""§7.4's mechanism as a curve: attach time vs process population.

The paper explains the 0.22 ms attach as "Mercury has to recalculate the
type and count information for all page frames during a mode switch, which
accounts for the major time".  If that is the mechanism, attach time must
grow linearly in the number of page-table pages — this sweep measures the
curve and fits it.
"""

from repro.bench.runner import switch_stack

POPULATIONS = (1, 8, 16, 32, 64)


def _attach_at(bench_config, nprocs):
    mercury = switch_stack(bench_config, nprocs, True)
    rec_attach = mercury.attach()
    rec_detach = mercury.detach()
    return rec_attach, rec_detach


def test_switch_population_sweep(bench_config):
    recs = {n: _attach_at(bench_config, n) for n in POPULATIONS}

    print()
    print("Section 7.4 mechanism: attach time vs process population")
    print()
    print(f"  {'procs':>6}{'PT pages':>10}{'attach (µs)':>13}"
          f"{'detach (µs)':>13}{'µs/PT page':>12}")
    print(f"  {'-'*54}")
    for n, (a, d) in recs.items():
        per_page = a.us() / a.pt_pages
        print(f"  {n:>6}{a.pt_pages:>10}{a.us():>13.2f}{d.us():>13.2f}"
              f"{per_page:>12.3f}")

    # attach grows monotonically with the page-table population...
    attach_us = [recs[n][0].us() for n in POPULATIONS]
    assert attach_us == sorted(attach_us)
    # ...and linearly: the per-PT-page marginal cost is stable across the
    # sweep (the recompute is the dominant, linear term)
    marginal = [(recs[n][0].us() - recs[1][0].us())
                / max(1, recs[n][0].pt_pages - recs[1][0].pt_pages)
                for n in POPULATIONS[1:]]
    assert max(marginal) < 2.5 * min(marginal), \
        f"attach cost is not linear in PT pages: {marginal}"
    # detach stays comparatively flat (no recompute on the way out)
    detach_us = [recs[n][1].us() for n in POPULATIONS]
    assert detach_us[-1] < attach_us[-1] / 2
