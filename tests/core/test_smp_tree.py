"""The tree rendezvous (a §8 extension): O(log n) IPI fan-out and gather."""

import pytest

from repro import Machine, Mercury, faults, small_config
from repro.core.smp_tree import TreeSmpCoordinator, use_tree_protocol
from repro.errors import SwitchAborted
from repro.scenarios.checkpoint import state_digest


def _smp_mercury(ncpus, tree=False):
    machine = Machine(small_config(num_cpus=ncpus))
    mc = Mercury(machine)
    mc.create_kernel(image_pages=16)
    if tree:
        use_tree_protocol(mc)
    return mc


def test_tree_depth():
    assert TreeSmpCoordinator.tree_depth(1) == 0
    assert TreeSmpCoordinator.tree_depth(2) == 1
    assert TreeSmpCoordinator.tree_depth(4) == 2
    assert TreeSmpCoordinator.tree_depth(16) == 4
    assert TreeSmpCoordinator.tree_depth(15) == 4


def test_tree_switch_reaches_every_cpu():
    mc = _smp_mercury(4, tree=True)
    rec = mc.attach()
    assert rec.rendezvous.num_cpus == 4
    assert rec.rendezvous.ipis_sent == 3   # n-1 notifications, tree-routed
    for cpu in mc.machine.cpus:
        assert cpu.idt_base.owner == "vmm"
        assert cpu.interrupts_enabled
    mc.detach()
    for cpu in mc.machine.cpus:
        assert cpu.idt_base.owner == mc.kernel.name


def test_tree_ipis_reach_the_hardware_counter():
    """Each tree notification counts as a sent IPI, as under the flat
    protocol, with no per-IPI charge: the gather and the end clock keep
    the tree's once-per-level cost."""
    from repro.metrics import MetricsCollector
    mc = _smp_mercury(4, tree=True)
    attach, detach = mc.attach(), mc.detach()
    assert attach.rendezvous.ipis_sent == detach.rendezvous.ipis_sent == 3
    assert mc.machine.intc.sent_ipis == 6
    snap = MetricsCollector(mc.machine, mercury=mc).snapshot()
    assert snap.ipis_sent == 6
    assert attach.rendezvous.gather_cycles == 2420
    assert detach.rendezvous.gather_cycles == 2420
    assert mc.machine.clock.cycles == 233_713


def test_tree_protocol_equivalent_outcome():
    """Flat and tree must produce identical post-switch state."""
    flat = _smp_mercury(4, tree=False)
    tree = _smp_mercury(4, tree=True)
    flat.attach()
    tree.attach()
    for a, b in zip(flat.machine.cpus, tree.machine.cpus):
        assert a.idt_base.owner == b.idt_base.owner == "vmm"
        assert a.gdt[1].dpl == b.gdt[1].dpl == 1


def test_tree_gathers_faster_at_scale():
    """The §8 motivation: O(log n) gather beats O(n) once cores abound."""
    flat = _smp_mercury(16, tree=False)
    tree = _smp_mercury(16, tree=True)
    rec_flat = flat.attach()
    rec_tree = tree.attach()
    assert rec_tree.rendezvous.gather_cycles < \
        rec_flat.rendezvous.gather_cycles


def test_tree_workload_roundtrip():
    mc = _smp_mercury(8, tree=True)
    k = mc.kernel
    cpu = mc.machine.boot_cpu
    fd = k.syscall(cpu, "open", "/tree", True)
    k.syscall(cpu, "write", fd, "x", 10)
    mc.attach()
    pid = k.syscall(cpu, "fork")
    k.run_and_reap(cpu, k.procs.get(pid))
    mc.detach()
    assert k.fs.exists("/tree")


@pytest.mark.parametrize("direction", ["attach", "detach"])
@pytest.mark.parametrize("ncpus", [3, 4])
def test_tree_failed_switch_unmasks_every_cpu(ncpus, direction):
    """A switch the last secondary's reload keeps failing is aborted with
    every CPU responsive again and the stack digest-exact, as under the
    flat protocol: the tree shares its failure path."""
    mc = _smp_mercury(ncpus, tree=True)
    if direction == "detach":
        assert mc.attach() is not None
    before = state_digest(mc)
    plan = faults.FaultPlan()
    plan.arm(faults.RELOAD_SECONDARY, cpu_id=ncpus - 1, times=None)
    with faults.injected(plan), pytest.raises(SwitchAborted):
        mc.attach() if direction == "attach" else mc.detach()
    assert [c.interrupts_enabled for c in mc.machine.cpus] == [True] * ncpus
    assert state_digest(mc) == before
