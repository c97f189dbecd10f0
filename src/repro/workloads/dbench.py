"""dbench 3.03: the strict-I/O-bound fileserver workload (§7.1).

Each simulated client replays a netbench-style op mix — create, sequential
writes, reads, stat, delete — with a periodic flush, against the guest
filesystem.  The score is throughput in MB/s of simulated time, like
dbench's own output.

This is the benchmark where the paper's Fig. 3 shows the one inversion:
domain0 ~15% *slower* than native but domainU ~5% *faster*, because the
split block model acknowledges writes from the backend cache.  Nothing here
knows about that; the inversion falls out of the driver stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.guestos.fs import BLOCK_SIZE
from repro.sim import run_to_completion

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu


@dataclass
class DbenchResult:
    clients: int
    ops: int
    bytes_moved: int
    elapsed_us: float
    #: split-driver notification accounting (zero on a native block path)
    notifies_sent: int = 0
    notifies_suppressed: int = 0

    @property
    def throughput_mb_s(self) -> float:
        if not self.elapsed_us:
            return 0.0
        return (self.bytes_moved / (1024 * 1024)) / (self.elapsed_us / 1e6)


def dbench_task(kernel: "Kernel", cpu: "Cpu", clients: int = 4,
                files_per_client: int = 6, writes_per_file: int = 8,
                writeback_every: int = 64, writeback_blocks: int = 2
                ) -> Generator[None, None, DbenchResult]:
    """Run the op mix; returns the throughput result.  Yields once per
    file worked (a client "thinks" between files).

    Like real dbench, the fileset lives in the page cache and there are no
    fsyncs; the device sees only the background writeback that pdflush
    would issue (every ``writeback_every`` write ops, ``writeback_blocks``
    dirty blocks go out).  Native/dom0 pay the spindle for those; a domU's
    blkback acknowledges them from its cache — the paper's dbench
    inversion."""
    ops = 0
    write_ops = 0
    bytes_moved = 0
    io = getattr(getattr(kernel.vo, "vmm", None), "io_stats", None)
    sent0 = io.notifies_sent if io else 0
    supp0 = io.notifies_suppressed if io else 0
    t0 = cpu.rdtsc()

    def maybe_writeback() -> None:
        nonlocal write_ops
        write_ops += 1
        if write_ops % writeback_every == 0:
            kernel.fs.writeback(cpu, max_blocks=writeback_blocks)

    for client in range(clients):
        created = []
        for fno in range(files_per_client):
            path = f"/dbench/c{client}/f{fno}"
            fd = kernel.syscall(cpu, "open", path, True)
            created.append((path, fd))
            ops += 1
            # sequential write burst
            for w in range(writes_per_file):
                kernel.syscall(cpu, "write", fd, f"d{client}.{fno}.{w}",
                               BLOCK_SIZE)
                bytes_moved += BLOCK_SIZE
                ops += 1
                maybe_writeback()
            # read some of it back (cache-warm)
            kernel.syscall(cpu, "lseek", fd, 0)
            for _ in range(writes_per_file // 2):
                kernel.syscall(cpu, "read", fd, BLOCK_SIZE)
                bytes_moved += BLOCK_SIZE
                ops += 1
            kernel.syscall(cpu, "stat", path)
            ops += 1
            yield
        # delete half the files, netbench-style churn
        for path, fd in created[::2]:
            kernel.syscall(cpu, "close", fd)
            kernel.syscall(cpu, "unlink", path)
            ops += 2
        for path, fd in created[1::2]:
            kernel.syscall(cpu, "close", fd)
            ops += 1
        yield
    elapsed = cpu.cost.us(cpu.rdtsc() - t0)
    return DbenchResult(
        clients=clients, ops=ops, bytes_moved=bytes_moved,
        elapsed_us=elapsed,
        notifies_sent=(io.notifies_sent - sent0) if io else 0,
        notifies_suppressed=(io.notifies_suppressed - supp0) if io else 0)


def run_dbench(kernel: "Kernel", cpu: "Cpu", clients: int = 4,
               files_per_client: int = 6, writes_per_file: int = 8,
               writeback_every: int = 64,
               writeback_blocks: int = 2) -> DbenchResult:
    """Sequential entry point: drive :func:`dbench_task` to completion."""
    return run_to_completion(dbench_task(
        kernel, cpu, clients=clients, files_per_client=files_per_client,
        writes_per_file=writes_per_file, writeback_every=writeback_every,
        writeback_blocks=writeback_blocks))
