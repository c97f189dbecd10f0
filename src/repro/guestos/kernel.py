"""The guest kernel: boot, syscall dispatch, interrupts, subsystem glue.

One :class:`Kernel` is one operating-system instance.  It owns the process
table, scheduler, VM subsystem, filesystem, network stack and drivers — and
critically, it reaches *all* virtualization-sensitive state through
``self.vo``, the installed virtualization object.  Mercury relocates the
kernel between execution modes by swapping that object (§4.2) after the
state transfer/reload dance; nothing else in this file is mode-aware.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import GuestOSError, SyscallError
from repro.guestos.fs import FileSystem
from repro.guestos.net import NetworkStack
from repro.guestos.process import ProcessTable, Task
from repro.guestos.sched import Scheduler
from repro.guestos.syscalls import SYSCALL_TABLE
from repro.guestos.vmem import VirtualMemory
from repro.guestos.drivers import NativeBlockDriver, NativeNetDriver
from repro.hw.cpu import SegmentDescriptor
from repro.hw.interrupts import Idt, VEC_DISK, VEC_NET, VEC_TIMER
from repro.params import PAGE_SIZE
from repro.sim.scheduler import preempt_point as sim_preempt_point, quiet_until

if TYPE_CHECKING:
    from repro.core.vobject import VirtualizationObject
    from repro.hw.cpu import Cpu
    from repro.hw.devices import Packet
    from repro.hw.machine import Machine
    from repro.hw.paging import AddressSpace

#: pages in the default process image (text+data+stack of a small binary)
DEFAULT_IMAGE_PAGES = 96


class Kernel:
    """A Linux-like kernel instance."""

    def __init__(self, machine: "Machine", vo: "VirtualizationObject",
                 owner_id: int = 0, name: str = "linux",
                 has_devices: bool = True):
        self.machine = machine
        self.vo = vo
        self.owner_id = owner_id
        self.name = name
        #: False for a domainU kernel: no direct device access; frontends
        #: must be installed via splitio before I/O works
        self.has_devices = has_devices

        from repro.guestos.ipc import IpcManager
        self.procs = ProcessTable(self)
        self.scheduler = Scheduler(self)
        self.vmem = VirtualMemory(self)
        self.fs = FileSystem(self)
        self.net = NetworkStack(self)
        self.ipc = IpcManager(self)
        self.idt = Idt(owner=name)
        #: inbound packet routing overrides (driver domain routes guest
        #: addresses up to netback); addr -> handler(cpu, pkt)
        self.route_table: dict[str, Callable] = {}

        self.block_driver = NativeBlockDriver(self) if has_devices else None
        self.net_driver = NativeNetDriver(self) if has_devices else None
        self._net_addr = machine.nic.addr

        #: every live address space (Mercury's state transfer walks these)
        self.aspaces: list["AddressSpace"] = []
        #: live-update patch points: syscall name -> replacement handler
        #: (takes precedence over SYSCALL_TABLE; see scenarios.liveupdate)
        self.syscall_overrides: dict[str, Callable] = {}
        self.syscalls_served = 0
        self.booted = False

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    @property
    def boot_cpu(self) -> "Cpu":
        return self.machine.cpus[0]

    def boot(self, image_pages: int = DEFAULT_IMAGE_PAGES) -> Task:
        """Bring the kernel up: :meth:`install_tables`, then the init
        process.  Returns init."""
        if self.booted:
            raise GuestOSError("kernel already booted")
        cpu = self.boot_cpu
        self.install_tables(cpu)
        init = self.procs.spawn_initial("init", image_pages)
        self.scheduler.context_switch(cpu, init)
        self.booted = True
        return init

    def install_tables(self, cpu: "Cpu") -> None:
        """The hardware half of bring-up: segment descriptors, the kernel
        DPL (through the VO), the interrupt gates, the IDT and the device
        lines.  :meth:`boot` runs it before spawning init; a kernel
        restored from a checkpoint onto a fresh machine runs it alone."""
        # segments: firmware-style direct install, then mode-appropriate
        # DPL.  A guest booting under a VMM that already runs the machine
        # keeps the live descriptors: they are the host kernel's, and the
        # guest's DPL goes through its VO.
        if not (self.vo.is_virtual and cpu.gdt):
            for c in self.machine.cpus:
                c.gdt = {
                    1: SegmentDescriptor("kernel_cs", 0),
                    2: SegmentDescriptor("kernel_ds", 0),
                    3: SegmentDescriptor("user_cs", 3),
                }
        self.vo.set_segment_dpl(cpu, self.vo.data.kernel_segment_dpl)

        # interrupt handlers
        self.idt.set_gate(VEC_TIMER, self._timer_irq, name="timer")
        if self.has_devices:
            self.idt.set_gate(VEC_DISK, self._disk_irq, name="disk")
            self.idt.set_gate(VEC_NET, self._net_irq, name="net")
        self.vo.load_idt(cpu, self.idt)
        if self.has_devices:
            self.vo.bind_irq(cpu, "timer", 0, VEC_TIMER)
            self.vo.bind_irq(cpu, self.machine.disk.name, 0, VEC_DISK)
            self.vo.bind_irq(cpu, self.machine.nic.name, 0, VEC_NET)

    # ------------------------------------------------------------------
    # syscall entry
    # ------------------------------------------------------------------

    def syscall(self, cpu: "Cpu", name: str, *args, task: Optional[Task] = None):
        """One system call from user space on ``cpu``."""
        handler = self.syscall_overrides.get(name)
        if handler is None:
            try:
                handler = SYSCALL_TABLE[name]
            except KeyError:
                raise SyscallError("ENOSYS", f"no syscall {name!r}") from None
        caller = task or self.scheduler.current
        if caller is None:
            raise GuestOSError("syscall with no current task")
        self.vo.kernel_entry(cpu)
        try:
            result = handler(self, cpu, caller, *args)
        finally:
            self.machine.poll()
            self.vo.kernel_exit(cpu)
        self.syscalls_served += 1
        return result

    # ------------------------------------------------------------------
    # lazy-MMU regions
    # ------------------------------------------------------------------

    @contextmanager
    def lazy_mmu(self, cpu: "Cpu"):
        """Bracket bulk page-table work in a lazy-MMU region (Xen-Linux's
        ``arch_enter_lazy_mmu_mode``): the virtual VO queues PTE updates and
        issues them as batched ``mmu_update`` multicalls; other VOes treat
        the markers as no-ops.  ``self.vo`` is re-read at exit so a mode
        switch mid-region is safe — the old VO's region was drained at
        commit and the new VO sees a balanced (no-op) end."""
        self.vo.lazy_mmu_begin(cpu)
        try:
            yield
        finally:
            self.vo.lazy_mmu_end(cpu)

    def flag_leaf_runs_ahead(self, cpu: "Cpu", aspace: "AddressSpace",
                             n: int, lead_cycles: int) -> bool:
        """The run-ahead rule: may ``n`` flag updates of one leaf of
        ``aspace`` go in one VO call?  Yes when each entry costs a constant
        (:meth:`~repro.core.vobject.VirtualizationObject._flag_update_cycles`)
        and the leaf, plus the ``lead_cycles`` its caller charges before
        the leaf's last preempt point, ends below ``cpu``'s quiet horizon.
        Every preempt point the one call skips would then have serviced
        nothing, so a timer or switch request due later lands at the same
        clock and seq as with one call per entry."""
        per_entry = self.vo._flag_update_cycles(cpu, aspace)
        return (per_entry is not None
                and cpu.clock.cycles + n * per_entry + lead_cycles
                < quiet_until(cpu))

    # ------------------------------------------------------------------
    # user-mode execution models
    # ------------------------------------------------------------------

    def user_compute(self, cpu: "Cpu", us: float) -> None:
        """Pure user computation (direct execution — identical in every
        mode, which is why CPU-bound work shows no virtualization loss)."""
        self.user_compute_cycles(cpu, int(us * cpu.cost.freq_mhz))

    def user_compute_cycles(self, cpu: "Cpu", cycles: int) -> None:
        """Cycle-exact variant; chunked workload tasks use it so a sliced
        compute charges the same total as the unsliced one.  The end of a
        compute burst is an interrupt window: under the simulation
        scheduler, timer deadlines that landed during the burst are
        serviced here — with the VO refcount at zero, so a pending mode
        switch can commit mid-workload, as §4.3 requires."""
        cpu.charge(cycles)
        if self.scheduler.current is not None:
            self.scheduler.current.utime_cycles += cycles
        sim_preempt_point(cpu)

    def touch_pages(self, cpu: "Cpu", task: Task, base: int, npages: int,
                    write: bool = True, stride: int = PAGE_SIZE) -> None:
        """Touch ``npages`` pages from ``base`` (faulting as needed)."""
        for i in range(npages):
            self.vmem.access(cpu, task, base + i * stride, write=write)

    # ------------------------------------------------------------------
    # block / net routing (driver indirection)
    # ------------------------------------------------------------------

    def install_block_driver(self, driver) -> None:
        self.block_driver = driver
        if VEC_DISK not in self.idt.gates:
            self.idt.set_gate(VEC_DISK, self._disk_irq, name="disk")

    def install_net_driver(self, driver, addr: Optional[str] = None) -> None:
        self.net_driver = driver
        if addr is not None:
            self._net_addr = addr

    @property
    def net_addr(self) -> str:
        return self._net_addr

    def block_read(self, cpu: "Cpu", block: int) -> object:
        if self.block_driver is None:
            raise GuestOSError(f"{self.name}: no block driver installed")
        return self.block_driver.read_block(cpu, block)

    def block_write(self, cpu: "Cpu", block: int, data: object) -> None:
        if self.block_driver is None:
            raise GuestOSError(f"{self.name}: no block driver installed")
        self.block_driver.write_block(cpu, block, data)

    def block_write_many(self, cpu: "Cpu",
                         blocks: list[tuple[int, object]]) -> None:
        """Batched writeback through the driver's batch path."""
        if self.block_driver is None:
            raise GuestOSError(f"{self.name}: no block driver installed")
        self.block_driver.write_blocks(cpu, sorted(blocks))

    def block_flush(self, cpu: "Cpu") -> None:
        if self.block_driver is None:
            raise GuestOSError(f"{self.name}: no block driver installed")
        self.block_driver.flush(cpu)

    def net_transmit(self, cpu: "Cpu", pkt: "Packet",
                     more: bool = False) -> None:
        """Hand one frame to the net driver.  ``more`` is the xmit_more
        hint: the stack promises another frame (or an explicit
        :meth:`net_tx_flush`) follows, letting a batching driver defer its
        doorbell."""
        if self.net_driver is None:
            raise GuestOSError(f"{self.name}: no net driver installed")
        self.net_driver.transmit(cpu, pkt, more=more)

    def net_tx_flush(self, cpu: "Cpu") -> None:
        """Flush any frames a batching driver still has queued."""
        if self.net_driver is None:
            return
        flush = getattr(self.net_driver, "tx_flush", None)
        if flush is not None:
            flush(cpu)

    def net_rx(self, cpu: "Cpu", pkt: "Packet") -> None:
        """Inbound frame: route to a guest (driver domain) or demux
        locally."""
        route = self.route_table.get(pkt.dst)
        if route is not None:
            route(cpu, pkt)
        else:
            self.net.rx(cpu, pkt)

    # ------------------------------------------------------------------
    # waiting / event draining
    # ------------------------------------------------------------------

    def wait_for(self, cpu: "Cpu", predicate: Callable[[], bool]) -> None:
        """Idle until ``predicate()`` holds, advancing simulated time to
        pending deadlines and servicing interrupts."""
        clock = self.machine.clock
        for _ in range(1_000_000):
            if predicate():
                return
            deadline = clock.next_deadline()
            if deadline is None:
                self.machine.poll()
                if predicate():
                    return
                raise GuestOSError(
                    f"{self.name}: deadlock — waiting with no pending events")
            if deadline > clock.cycles:
                clock.cycles = deadline
            self.machine.poll()
        raise GuestOSError("wait_for did not converge")

    def drain_events(self, cpu: "Cpu") -> None:
        """Let all currently due events and interrupts run."""
        self.machine.poll()

    # ------------------------------------------------------------------
    # SMP
    # ------------------------------------------------------------------

    def smp_lock(self, cpu: "Cpu") -> None:
        """Kernel lock acquisition cost, charged only on SMP machines (the
        paper: 'due to the introduced locks and possible contentions, most
        of the operations in SMP mode are a bit expensive', §7.2)."""
        if self.machine.config.num_cpus > 1:
            cpu.charge(cpu.cost.cyc_lock)

    # ------------------------------------------------------------------
    # address-space registry (for Mercury's state transfer)
    # ------------------------------------------------------------------

    def register_aspace(self, aspace: "AddressSpace") -> None:
        self.aspaces.append(aspace)

    def unregister_aspace(self, aspace: "AddressSpace") -> None:
        try:
            self.aspaces.remove(aspace)
        except ValueError:
            raise GuestOSError("unregistering unknown address space") from None

    # ------------------------------------------------------------------
    # interrupt handlers
    # ------------------------------------------------------------------

    def start_writeback_daemon(self, interval_ms: float = 30.0,
                               blocks_per_pass: int = 4) -> None:
        """Arm a pdflush-style periodic writeback of dirty cache blocks.

        Runs off the machine clock; each pass pushes up to
        ``blocks_per_pass`` of the oldest dirty blocks to the device."""
        self._writeback_armed = True

        def pass_once() -> None:
            if not getattr(self, "_writeback_armed", False):
                return
            self.fs.writeback(self.boot_cpu, max_blocks=blocks_per_pass)
            self.machine.clock.schedule_us(interval_ms * 1000, pass_once)

        self.machine.clock.schedule_us(interval_ms * 1000, pass_once)

    def stop_writeback_daemon(self) -> None:
        self._writeback_armed = False

    def _timer_irq(self, cpu: "Cpu", vector: int) -> None:
        cpu.charge(200)  # tick bookkeeping

    def _disk_irq(self, cpu: "Cpu", vector: int) -> None:
        if self.block_driver is not None:
            self.block_driver.irq(cpu, vector)

    def _net_irq(self, cpu: "Cpu", vector: int) -> None:
        if self.net_driver is not None:
            self.net_driver.irq(cpu, vector)

    # ------------------------------------------------------------------
    # convenience for workloads
    # ------------------------------------------------------------------

    def switch_to(self, cpu: "Cpu", task: Task) -> None:
        """Perform a context switch from user space: enter the kernel,
        switch, return to user space in the new task."""
        self.vo.kernel_entry(cpu)
        try:
            self.scheduler.context_switch(cpu, task)
        finally:
            self.vo.kernel_exit(cpu)

    def spawn_process(self, cpu: "Cpu", name: str,
                      image_pages: int = DEFAULT_IMAGE_PAGES) -> Task:
        """fork + exec from the current task; returns the child (leaves the
        current task running)."""
        child_pid = self.syscall(cpu, "fork")
        child = self.procs.get(child_pid)
        parent = self.scheduler.current
        self.switch_to(cpu, child)
        self.syscall(cpu, "exec", name, image_pages, task=child)
        self.switch_to(cpu, parent)
        return child

    def run_and_reap(self, cpu: "Cpu", child: Task, exit_code: int = 0) -> int:
        """Switch to ``child``, exit it, switch back, and wait() it."""
        parent = self.scheduler.current
        self.switch_to(cpu, child)
        self.syscall(cpu, "exit", exit_code, task=child)
        self.switch_to(cpu, parent)
        pid, _ = self.syscall(cpu, "wait", task=parent)
        return pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r}, owner={self.owner_id}, vo={self.vo.mode_name})"
