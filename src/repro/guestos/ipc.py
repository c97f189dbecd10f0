"""Pipes and signals — the IPC surface lmbench's benchmarks exercise.

lmbench's context-switch benchmark passes a token through pipes, and its
fault benchmarks install SIGSEGV handlers.  Implementing both for real
keeps the workloads structurally faithful instead of charging synthetic
costs.

Pipes are classic byte channels with bounded capacity: write fills, read
drains, ends close independently, EPIPE/EOF semantics as on Unix.  Fork
shares the pipe (both ends reference the same object); the data lives in
kernel memory.

Signals are the minimal delivery machinery the benchmarks need: per-task
handler tables, synchronous delivery on faults (SIGSEGV), and a kill()
syscall for SIGTERM-style termination.  Unhandled fatal signals terminate
the task.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SyscallError

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.guestos.process import Task
    from repro.hw.cpu import Cpu

#: default pipe capacity, bytes (Linux's classic 64 KiB)
PIPE_CAPACITY = 65536

# signal numbers (the subset the workloads use)
SIGSEGV = 11
SIGTERM = 15
SIGUSR1 = 10

#: cycles to deliver one signal (frame setup + handler dispatch)
CYC_SIGNAL_DELIVERY = 1_400


class Pipe:
    """One pipe: a bounded byte channel with independent end lifetimes."""

    def __init__(self, capacity: int = PIPE_CAPACITY):
        self.capacity = capacity
        self._chunks: deque[object] = deque()
        self._bytes = 0
        self.read_open = True
        self.write_open = True

    def write(self, data: object, nbytes: int) -> int:
        if not self.read_open:
            raise SyscallError("EPIPE", "write to a pipe with no reader")
        if not self.write_open:
            raise SyscallError("EBADF", "write end closed")
        if self._bytes + nbytes > self.capacity:
            raise SyscallError("EAGAIN", "pipe full")
        self._chunks.append((data, nbytes))
        self._bytes += nbytes
        return nbytes

    def read(self) -> tuple[Optional[object], int]:
        """Read one chunk; (None, 0) means EOF (writer gone, drained)."""
        if not self.read_open:
            raise SyscallError("EBADF", "read end closed")
        if not self._chunks:
            if not self.write_open:
                return None, 0          # EOF
            raise SyscallError("EAGAIN", "pipe empty")
        data, nbytes = self._chunks.popleft()
        self._bytes -= nbytes
        return data, nbytes

    @property
    def buffered_bytes(self) -> int:
        return self._bytes


@dataclass
class SignalState:
    """Per-task signal handling state."""

    handlers: dict[int, Callable] = field(default_factory=dict)
    delivered: int = 0
    pending_fatal: Optional[int] = None


class IpcManager:
    """Kernel-side pipe and signal bookkeeping."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel

    # ------------------------------------------------------------------
    # pipes
    # ------------------------------------------------------------------

    def create_pipe(self, cpu: "Cpu", task: "Task") -> tuple[int, int]:
        """pipe(): returns (read fd, write fd)."""
        cpu.charge(cpu.cost.cyc_fs_op_fixed // 2)
        pipe = Pipe()
        rfd = task.next_fd
        wfd = task.next_fd + 1
        task.next_fd += 2
        task.pipe_fds[rfd] = (pipe, "r")
        task.pipe_fds[wfd] = (pipe, "w")
        return rfd, wfd

    def pipe_write(self, cpu: "Cpu", task: "Task", fd: int, data: object,
                   nbytes: int) -> int:
        pipe, end = self._pipe_end(task, fd)
        if end != "w":
            raise SyscallError("EBADF", f"fd {fd} is the read end")
        # the copy into the kernel buffer
        cpu.charge(cpu.cost.cyc_mem_touch_per_kb * max(1, nbytes // 1024))
        return pipe.write(data, nbytes)

    def pipe_read(self, cpu: "Cpu", task: "Task", fd: int) -> object:
        pipe, end = self._pipe_end(task, fd)
        if end != "r":
            raise SyscallError("EBADF", f"fd {fd} is the write end")
        data, nbytes = pipe.read()
        if nbytes:
            cpu.charge(cpu.cost.cyc_mem_touch_per_kb * max(1, nbytes // 1024))
        return data

    def close_pipe_fd(self, task: "Task", fd: int) -> None:
        pipe, end = self._pipe_end(task, fd)
        del task.pipe_fds[fd]
        # an end stays open while any task still holds it
        still_held = any(p is pipe and e == end
                         for t in self.kernel.procs.tasks.values()
                         for p, e in t.pipe_fds.values())
        if not still_held:
            if end == "r":
                pipe.read_open = False
            else:
                pipe.write_open = False

    def _pipe_end(self, task: "Task", fd: int) -> tuple[Pipe, str]:
        try:
            return task.pipe_fds[fd]
        except KeyError:
            raise SyscallError("EBADF", f"fd {fd} is not a pipe") from None

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def register_handler(self, task: "Task", sig: int,
                         handler: Callable) -> None:
        task.signals.handlers[sig] = handler

    def deliver(self, cpu: "Cpu", task: "Task", sig: int,
                info: object = None) -> bool:
        """Deliver ``sig`` to ``task``.  Returns True if a handler ran;
        False means the default (fatal) action applies.  The delivery cost
        (signal frame setup + handler dispatch) is only paid when a
        handler actually runs; the default action is a cheap kernel-side
        decision."""
        task.signals.delivered += 1
        handler = task.signals.handlers.get(sig)
        if handler is not None:
            cpu.charge(CYC_SIGNAL_DELIVERY)
            handler(task, sig, info)
            return True
        task.signals.pending_fatal = sig
        return False

    def kill(self, cpu: "Cpu", sender: "Task", pid: int, sig: int) -> None:
        target = self.kernel.procs.get(pid)
        handled = self.deliver(cpu, target, sig)
        if not handled and sig in (SIGTERM, SIGSEGV):
            # default action: terminate the target
            self.kernel.procs.exit(cpu, target, 128 + sig)
