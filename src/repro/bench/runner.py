"""Workload runners over the six configurations.

``run_lmbench_suite`` regenerates Tables 1/2; ``run_app_suite`` regenerates
the application-level serieses of Figs. 3/4 (OSDB-IR, dbench, kernel build,
ping, iperf).  Results are plain dicts keyed ``row -> config -> value`` so
the report layer and the pytest benches can both consume them.
``switch_stack`` and ``mean_switch_times`` are the §7.4 mode-switch
measurement protocol.

Both suites drop each configuration's system under test and collect the
young generations before building the next.  A system is an island of
reference cycles (kernels and subsystems, machines and devices point at
each other), so left alone dead systems pile up until the collector's
next full pass and a suite's peak memory follows its timing.  The young
collection (well under a millisecond) frees a system still young when
dropped — the application suite's, which allocate little on net; one
promoted during its run (lmbench's) waits for a full pass, which would
cost about 2.5 ms per configuration (it walks every tracked object).
"""

from __future__ import annotations

import gc
from typing import Iterable, Optional

from repro.bench.configs import CONFIG_KEYS, SystemUnderTest, build_config
from repro.core.mercury import Mercury
from repro.core.switch import Direction
from repro.hw.machine import Machine
from repro.params import MachineConfig
from repro.workloads.dbench import run_dbench
from repro.workloads.iperf import run_iperf, run_ping
from repro.workloads.kbuild import run_kbuild
from repro.workloads.lmbench import LMBENCH_IMAGE_PAGES, LmbenchResults, run_lmbench
from repro.workloads.osdb import run_osdb_ir


def run_lmbench_suite(num_cpus: int = 1,
                      config: Optional[MachineConfig] = None,
                      keys: Iterable[str] = CONFIG_KEYS
                      ) -> dict[str, dict[str, float]]:
    """lmbench latencies for every configuration.

    Returns ``{row -> {config -> µs}}`` in the shape of Table 1 (UP) or
    Table 2 (SMP, ``num_cpus=2``)."""
    config = (config or MachineConfig()).with_cpus(num_cpus)
    table: dict[str, dict[str, float]] = {}
    for key in keys:
        sut = build_config(key, config, image_pages=LMBENCH_IMAGE_PAGES)
        results = run_lmbench(sut.kernel, sut.cpu)
        for row, value in results.rows.items():
            table.setdefault(row, {})[key] = value
        del sut  # free the system (see the module docstring)
        gc.collect(1)
    return table


def run_app_suite(num_cpus: int = 1,
                  config: Optional[MachineConfig] = None,
                  keys: Iterable[str] = CONFIG_KEYS,
                  scale: float = 1.0) -> dict[str, dict[str, float]]:
    """Application benchmarks for every configuration.

    Returns ``{row -> {config -> score}}``.  Scores follow each suite's
    native unit (OSDB: queries/s; dbench: MB/s; build: seconds — lower is
    better; ping: µs RTT — lower is better; iperf: Mbit/s).
    ``scale`` shrinks workload sizes for quick runs."""
    config = (config or MachineConfig()).with_cpus(num_cpus)
    table: dict[str, dict[str, float]] = {}
    for key in keys:
        sut = build_config(key, config)
        cpu = sut.cpu

        osdb = run_osdb_ir(sut.kernel, cpu,
                           rows=max(256, int(4096 * scale)),
                           queries=max(20, int(200 * scale)))
        table.setdefault("OSDB-IR", {})[key] = osdb.queries_per_second

        dbench = run_dbench(sut.kernel, cpu,
                            clients=max(1, int(4 * scale)),
                            files_per_client=max(2, int(6 * scale)))
        table.setdefault("dbench", {})[key] = dbench.throughput_mb_s

        kbuild = run_kbuild(sut.kernel, cpu,
                            files=max(4, int(24 * scale)))
        table.setdefault("Linux build", {})[key] = kbuild.elapsed_s

        table.setdefault("ping", {})[key] = run_ping(sut.kernel,
                                                     sut.peer_kernel,
                                                     count=3)
        tcp = run_iperf(sut.kernel, sut.peer_kernel, proto="tcp",
                        total_bytes=max(256 * 1024, int(2 * 1024 * 1024 * scale)))
        table.setdefault("iperf-tcp", {})[key] = tcp.mbit_s
        udp = run_iperf(sut.kernel, sut.peer_kernel, proto="udp",
                        total_bytes=max(256 * 1024, int(2 * 1024 * 1024 * scale)))
        table.setdefault("iperf-udp", {})[key] = udp.mbit_s
        del sut, cpu  # free the system (see the module docstring)
        gc.collect(1)
    return table


#: §7.4's process population: an idle 2006-era Linux (init + 41 forks)
SWITCH_PROCESSES = 42


def switch_stack(config: MachineConfig, processes: int,
                 incremental_attach: bool) -> Mercury:
    """The §7.4 measurement stack: a native kernel with a 384-page image
    and ``processes - 1`` idle forks of it.  ``incremental_attach=False``
    recomputes the whole page-info table on every attach, as the paper
    does."""
    mercury = Mercury(Machine(config), incremental_attach=incremental_attach)
    kernel = mercury.create_kernel(image_pages=384)
    cpu = mercury.machine.boot_cpu
    for _ in range(processes - 1):
        kernel.syscall(cpu, "fork")
    return mercury


def mean_switch_times(mercury: Mercury) -> tuple[float, float]:
    """Five attach/detach round trips; returns the mean to-virtual and
    to-native switch times (µs) over every switch the engine recorded."""
    for _ in range(5):
        mercury.attach()
        mercury.detach()
    return (mercury.mean_switch_us(Direction.TO_VIRTUAL),
            mercury.mean_switch_us(Direction.TO_NATIVE))


def relative_to_native(table: dict[str, dict[str, float]]
                       ) -> dict[str, dict[str, float]]:
    """Normalize an app-suite table to the N-L column, as Figs. 3/4 plot
    ('relative performance': 1.0 = native; higher = better; the Linux
    build and ping rows are times, so they invert)."""
    lower = {"Linux build", "ping"}
    out: dict[str, dict[str, float]] = {}
    for row, per_config in table.items():
        base = per_config.get("N-L")
        if not base:
            continue
        out[row] = {}
        for key, value in per_config.items():
            if row in lower:
                out[row][key] = base / value if value else 0.0
            else:
                out[row][key] = value / base
    return out
