"""The mode-switch engine: commit protocol, retry timer, measurements."""

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core import switch, transfer
from repro.core.accounting import AccountingStrategy
from repro.core.invariants import check_all
from repro.core.mercury import Mode
from repro.core.switch import Direction
from repro.errors import ModeSwitchError, SwitchAborted
from repro.hw.cpu import PrivilegeLevel
from repro.hw.interrupts import VEC_SV_ATTACH
from repro.scenarios.checkpoint import state_digest


def test_attach_then_detach_roundtrip(mercury):
    k = mercury.kernel
    rec_a = mercury.attach()
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    assert k.vo is mercury.virtual_vo
    assert mercury.vmm.active
    rec_d = mercury.detach()
    assert mercury.mode is Mode.NATIVE
    assert k.vo is mercury.native_vo
    assert not mercury.vmm.active
    assert rec_a.direction is Direction.TO_VIRTUAL
    assert rec_d.direction is Direction.TO_NATIVE


def test_switch_is_interrupt_driven(mercury):
    """The request must travel through the dedicated vector, not a direct
    call (§4.1: 'execution mode switches can be done through triggering
    the corresponding interrupt line')."""
    delivered0 = mercury.machine.intc.delivered
    mercury.attach()
    assert mercury.machine.intc.delivered > delivered0


def test_rdtsc_measured_durations(mercury):
    rec = mercury.attach()
    assert rec.end_tsc > rec.start_tsc
    assert rec.us() > 0
    rec2 = mercury.detach()
    # §7.4: attach (page-info recompute) costs more than detach
    assert rec.cycles > rec2.cycles


def test_attach_processes_pt_pages(mercury):
    cpu = mercury.machine.boot_cpu
    for _ in range(3):
        mercury.kernel.syscall(cpu, "fork")
    rec = mercury.attach()
    # init + 3 children, each with >= 1 PT page
    assert rec.pt_pages >= 4


def test_double_attach_rejected(mercury):
    mercury.attach()
    with pytest.raises(ModeSwitchError):
        mercury.attach()


def test_detach_while_native_rejected(mercury):
    with pytest.raises(ModeSwitchError):
        mercury.detach()


def test_busy_vo_defers_switch_until_refcount_zero(mercury):
    """§5.1.1: a switch requested while sensitive code runs must not
    commit; the retry timer lands it once the count drops."""
    k = mercury.kernel
    k.vo.refcount += 1   # hold the gate: a long-running sensitive section
    rec = mercury.attach(wait=False)
    assert rec is None
    assert mercury.mode is Mode.NATIVE
    assert mercury.engine.failed_attempts == 1
    k.vo.refcount -= 1   # section ends
    # the 10 ms retry timer is armed; draining it commits the switch
    mercury._drain_until_committed(0)
    assert mercury.engine.records, "retry never committed"
    assert mercury.mode is Mode.PARTIAL_VIRTUAL  # engine updated the mode
    rec = mercury.engine.records[-1]
    assert rec.retries >= 1


def test_retry_period_is_10ms(mercury):
    k = mercury.kernel
    k.vo.refcount += 1   # hold the gate
    t0 = mercury.machine.clock.cycles
    mercury.attach(wait=False)
    k.vo.refcount -= 1
    mercury._drain_until_committed(0)
    elapsed_ms = (mercury.machine.clock.cycles - t0) / (3000 * 1000)
    assert 9.5 <= elapsed_ms <= 25  # one or two 10 ms periods


def test_switch_survives_workload_before_and_after(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/pre", True)
    k.syscall(cpu, "write", fd, "before", 10)
    mercury.attach()
    # the file is still there; new work proceeds in virtual mode
    assert k.fs.exists("/pre")
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    mercury.detach()
    assert k.fs.exists("/pre")
    k.syscall(cpu, "lseek", fd, 0)
    assert k.syscall(cpu, "read", fd, 10) == ["before"]


def test_segment_dpl_follows_mode(mercury):
    cpu = mercury.machine.boot_cpu
    assert cpu.gdt[1].dpl == 0
    mercury.attach()
    assert cpu.gdt[1].dpl == 1          # de-privileged kernel segments
    assert mercury.kernel.vo.data.kernel_segment_dpl == 1
    mercury.detach()
    assert cpu.gdt[1].dpl == 0


def test_stack_cached_selectors_fixed_up(mercury):
    """§5.1.2: suspended tasks' interrupt frames cache selectors with the
    old privilege level; the switch must rewrite them or the first IRET
    faults."""
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    pid = k.syscall(cpu, "fork")
    child = k.procs.get(pid)
    assert child.stack_cached_selector_dpl == 0
    mercury.attach()
    assert child.stack_cached_selector_dpl == 1
    mercury.detach()
    assert child.stack_cached_selector_dpl == 0


def test_idt_ownership_follows_mode(mercury):
    cpu = mercury.machine.boot_cpu
    assert cpu.idt_base.owner == mercury.kernel.name
    mercury.attach()
    assert cpu.idt_base.owner == "vmm"
    mercury.detach()
    assert cpu.idt_base.owner == mercury.kernel.name


def test_page_tables_pinned_only_in_virtual_mode(mercury):
    init = mercury.kernel.scheduler.current
    pgd = init.aspace.pgd_frame
    assert pgd not in mercury.vmm.page_info.pinned
    mercury.attach()
    assert pgd in mercury.vmm.page_info.pinned
    mercury.detach()
    assert pgd not in mercury.vmm.page_info.pinned


def test_repeated_roundtrips_are_stable(mercury):
    k = mercury.kernel
    cpu = mercury.machine.boot_cpu
    for i in range(5):
        mercury.attach()
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
        mercury.detach()
        pid = k.syscall(cpu, "fork")
        k.run_and_reap(cpu, k.procs.get(pid))
    assert len(mercury.switch_records) == 10


def test_interrupts_reenabled_after_switch(mercury):
    mercury.attach()
    assert mercury.machine.boot_cpu.interrupts_enabled
    mercury.detach()
    assert mercury.machine.boot_cpu.interrupts_enabled


# ---------------------------------------------------------------------------
# the transactional commit: a failed switch is undone by the engine alone
# ---------------------------------------------------------------------------

def _stack(ncpus: int, direction: str) -> Mercury:
    """A booted stack in the mode ``direction`` switches away from."""
    mercury = Mercury(Machine(small_config(num_cpus=ncpus)))
    mercury.create_kernel(image_pages=16)
    if direction == "detach":
        assert mercury.attach() is not None
    return mercury


def _switch(mercury: Mercury, direction: str):
    return mercury.attach() if direction == "attach" else mercury.detach()


TRANSFER_STEPS = {
    "attach": ("transfer_page_tables_to_virtual", "transfer_segments",
               "transfer_irq_bindings_to_virtual"),
    "detach": ("transfer_page_tables_to_native", "transfer_segments",
               "transfer_irq_bindings_to_native"),
}


@pytest.mark.parametrize("ncpus", [1, 2], ids=["up", "smp"])
@pytest.mark.parametrize("direction,step", [
    (direction, step) for direction, steps in TRANSFER_STEPS.items()
    for step in steps])
def test_mid_transfer_failure_rolls_back(direction, step, ncpus,
                                         monkeypatch):
    """A non-transient error escaping a transfer step after it did its
    work: the undo log alone puts the stack back digest-exact, the error
    reaches the caller, and the next switch commits."""
    mercury = _stack(ncpus, direction)
    before = state_digest(mercury)
    mode, vo, active = mercury.mode, mercury.kernel.vo, mercury.vmm.active
    real = getattr(transfer, step)
    wrecked = []

    def wreck(*args, **kwargs):
        real(*args, **kwargs)
        if not wrecked:  # the step's own undo may call it again
            wrecked.append(step)
            raise RuntimeError("simulated transfer wreck")

    monkeypatch.setattr(transfer, step, wreck)
    with pytest.raises(RuntimeError, match="transfer wreck"):
        _switch(mercury, direction)
    monkeypatch.undo()

    assert mercury.mode is mode
    assert mercury.kernel.vo is vo
    assert mercury.vmm.active is active
    assert state_digest(mercury) == before
    assert mercury.engine.switch_rollbacks == 1
    assert _switch(mercury, direction) is not None
    assert mercury.mode is not mode


def test_active_attach_rollback_unpins_the_first_aspace(monkeypatch):
    """ACTIVE accounting: an attach aborted after it pinned the first
    address space unpins exactly those frames, leaves the stack
    digest-exact and lawful, and its retry commits."""
    mercury = Mercury(Machine(small_config()),
                      strategy=AccountingStrategy.ACTIVE)
    kernel = mercury.create_kernel(image_pages=16)
    kernel.syscall(mercury.machine.boot_cpu, "fork")
    first = kernel.aspaces[0]
    before = state_digest(mercury)
    page_info = mercury.vmm.page_info
    unpinned = []
    real_unpin = page_info.unpin_frames

    def unpin(frames):
        unpinned.append(tuple(frames))
        real_unpin(frames)

    monkeypatch.setattr(page_info, "unpin_frames", unpin)
    plan = faults.FaultPlan()
    plan.arm(faults.PT_TRANSFER_ABORT, trigger_at=2, times=1)
    with faults.injected(plan):
        assert mercury.attach(wait=False) is None  # aborted on aspace 2
        assert plan.log == [(faults.PT_TRANSFER_ABORT, None)]
        assert unpinned == [tuple(pt.frame for pt in first.pt_pages())]
        assert mercury.mode is Mode.NATIVE
        assert state_digest(mercury) == before
        assert check_all(mercury) == []
        mercury._drain_until_committed(0)  # the backoff retry commits
    assert mercury.mode is Mode.PARTIAL_VIRTUAL
    assert mercury.engine.records[-1].retries == 1
    assert check_all(mercury) == []


@pytest.mark.parametrize("flavor", ["persistent", "transient"])
@pytest.mark.parametrize("direction", ["attach", "detach"])
@pytest.mark.parametrize("ncpus", [3, 4])
def test_failed_last_secondary_undoes_every_earlier_reload(ncpus, direction,
                                                           flavor,
                                                           monkeypatch):
    """Only a secondary that is not the first one leaves earlier
    secondaries' reloads to undo: with the last CPU failing, every
    earlier secondary is reloaded back once per failed attempt."""
    mercury = _stack(ncpus, direction)
    before = state_digest(mercury)
    start_mode = mercury.mode
    undone = []
    real = switch.reload_secondary_rollback

    def recording(cpu, kernel):
        undone.append(cpu.cpu_id)
        real(cpu, kernel)

    monkeypatch.setattr(switch, "reload_secondary_rollback", recording)
    plan = faults.FaultPlan()
    plan.arm(faults.RELOAD_SECONDARY, cpu_id=ncpus - 1,
             times=None if flavor == "persistent" else 1)
    earlier = list(range(1, ncpus - 1))
    with faults.injected(plan):
        if flavor == "persistent":
            with pytest.raises(SwitchAborted):
                _switch(mercury, direction)
        else:
            assert _switch(mercury, direction) is not None

    if flavor == "persistent":
        attempts = mercury.engine.max_retries + 1
        assert sorted(undone) == sorted(earlier * attempts)
        assert mercury.mode is start_mode
        assert state_digest(mercury) == before
    else:
        assert sorted(undone) == earlier
        assert mercury.mode is not start_mode
