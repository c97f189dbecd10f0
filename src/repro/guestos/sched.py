"""The kernel CPU scheduler: a round-robin runqueue with O(1) pick.

A context switch is virtualization-sensitive twice over: the CR3 load and
the kernel-stack switch both go through the VO (under Xen they become the
``new_baseptr`` and ``stack_switch`` hypercalls — the source of the 3x
context-switch gap in Table 1).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.guestos.process import Task, TaskState

if TYPE_CHECKING:
    from repro.guestos.kernel import Kernel
    from repro.hw.cpu import Cpu


class Scheduler:
    """Round-robin over READY tasks."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.runqueue: deque[Task] = deque()
        self.current: Optional[Task] = None
        self.switches = 0

    def enqueue(self, task: Task) -> None:
        task.state = TaskState.READY
        if task not in self.runqueue:
            self.runqueue.append(task)

    def dequeue(self, task: Task) -> None:
        if task in self.runqueue:
            self.runqueue.remove(task)
        if self.current is task:
            self.current = None

    def pick_next(self) -> Optional[Task]:
        while self.runqueue:
            task = self.runqueue.popleft()
            if task.state == TaskState.READY:
                return task
        return None

    def context_switch(self, cpu: "Cpu", to_task: Task) -> None:
        """Switch ``cpu`` to ``to_task``: scheduler bookkeeping, kernel
        stack switch, address-space switch."""
        kernel = self.kernel
        cpu.charge(cpu.cost.cyc_sched_pick)
        if kernel.machine.config.num_cpus > 1:
            cpu.charge(cpu.cost.cyc_smp_ctx_extra)
        kernel.smp_lock(cpu)
        prev = self.current
        if prev is not None and prev.state == TaskState.RUNNING:
            prev.state = TaskState.READY
            if prev not in self.runqueue:
                self.runqueue.append(prev)
            # the interrupt frame that suspended `prev` caches the kernel
            # segment selectors (and with them the current privilege level)
            prev.stack_cached_selector_dpl = kernel.vo.data.kernel_segment_dpl
        # the incoming task leaves the runqueue: it is now *running*
        if to_task in self.runqueue:
            self.runqueue.remove(to_task)
        kernel.vo.stack_switch(cpu, to_task)
        kernel.vo.write_cr3(cpu, to_task.aspace.pgd_frame)
        # the incoming task immediately re-touches its resident code/stack
        # pages through the cold TLB
        cpu.charge(cpu.cost.cyc_tlb_refill_per_page
                   * cpu.cost.cyc_ctx_resident_pages)
        to_task.state = TaskState.RUNNING
        self.current = to_task
        self.switches += 1

    def ensure_running(self, cpu: "Cpu", task: Task) -> None:
        """Make ``task`` the current task if it is not already — the
        re-entry path the simulation scheduler uses when it resumes a
        workload whose guest process was switched away between slices.
        Enters the kernel (the resume is user-initiated, like any context
        switch) and pays the full switch cost; a no-op when ``task`` is
        already current or has exited."""
        if task is self.current or task.state == TaskState.ZOMBIE:
            return
        vo = self.kernel.vo
        vo.kernel_entry(cpu)
        try:
            self.context_switch(cpu, task)
        finally:
            vo.kernel_exit(cpu)

    def yield_to_next(self, cpu: "Cpu") -> Optional[Task]:
        """sched_yield: move on to the next READY task (if any)."""
        nxt = self.pick_next()
        if nxt is None or nxt is self.current:
            if nxt is not None:
                nxt.state = TaskState.RUNNING
                self.current = nxt
            return self.current
        self.context_switch(cpu, nxt)
        return nxt
