"""Fuzzing the hypercall interface.

A guest kernel is untrusted input to the VMM: arbitrary (including
nonsensical or hostile) hypercall sequences may be rejected, but must
never corrupt the VMM's page-info invariants or leak access to foreign
frames.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Machine, small_config
from repro.errors import ReproError
from repro.hw.paging import AddressSpace, pte
from repro.vmm.hypervisor import Hypervisor
from repro.vmm.page_info import PageType

OPS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap", "pin", "unpin", "baseptr",
                         "map_foreign", "map_pt_writable", "flush"]),
        st.integers(0, 7),     # which vaddr slot
        st.integers(0, 3),     # which frame from the pool
    ),
    max_size=40)


def _build():
    machine = Machine(small_config())
    vmm = Hypervisor(machine)
    vmm.warm_up()
    dom = vmm.create_domain("fuzz", domain_id=0, is_driver_domain=True)
    vmm.activate()
    aspace = AddressSpace(machine.memory, owner=0)
    dom.register_aspace(aspace)
    mine = [machine.memory.alloc(0) for _ in range(4)]
    foreign = [machine.memory.alloc(9) for _ in range(4)]
    return machine, vmm, dom, aspace, mine, foreign


def _check_invariants(vmm, machine, foreign):
    pi = vmm.page_info
    # counts never negative
    assert min(pi.type_count) >= 0, "negative type count"
    assert min(pi.ref_count) >= 0, "negative ref count"
    # no foreign frame ever became guest-visible through this domain
    for f in foreign:
        assert pi.type[f] == PageType.NONE
        assert pi.type_count[f] == 0
    # pinned frames are typed as page tables
    for frame in pi.pinned:
        assert pi.is_pt_frame(frame), f"pinned frame {frame} not PT-typed"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_fuzz_hypercalls_never_corrupt_page_info(ops):
    machine, vmm, dom, aspace, mine, foreign = _build()
    cpu = machine.boot_cpu
    for op, slot, fidx in ops:
        vaddr = 0x1000_0000 + slot * 4096
        try:
            if op == "map":
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              pte(mine[fidx]))
            elif op == "unmap":
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              None)
            elif op == "pin":
                vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
            elif op == "unpin":
                vmm.hypercall(cpu, dom, "mmuext_op", "unpin_table", aspace)
            elif op == "baseptr":
                vmm.hypercall(cpu, dom, "mmuext_op", "new_baseptr", aspace)
            elif op == "map_foreign":     # hostile: foreign frame
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              pte(foreign[fidx]))
            elif op == "map_pt_writable":  # hostile: own PT, writable
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              pte(aspace.pgd_frame, writable=True))
            elif op == "flush":
                vmm.hypercall(cpu, dom, "mmuext_op", "tlb_flush_local")
        except ReproError:
            pass  # rejection is fine; corruption is not
        _check_invariants(vmm, machine, foreign)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(OPS)
def test_fuzz_then_recompute_is_consistent(ops):
    """After any fuzz sequence, a fresh recompute over the surviving
    structures must succeed (no wedged state)."""
    machine, vmm, dom, aspace, mine, foreign = _build()
    cpu = machine.boot_cpu
    for op, slot, fidx in ops:
        vaddr = 0x1000_0000 + slot * 4096
        try:
            if op == "map":
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              pte(mine[fidx]))
            elif op == "unmap":
                vmm.hypercall(cpu, dom, "update_va_mapping", aspace, vaddr,
                              None)
            elif op == "pin":
                vmm.hypercall(cpu, dom, "mmuext_op", "pin_table", aspace)
            elif op == "unpin":
                vmm.hypercall(cpu, dom, "mmuext_op", "unpin_table", aspace)
        except ReproError:
            pass
    vmm.page_info.recompute(cpu, [aspace], dom.domain_id)
    assert aspace.pgd_frame in vmm.page_info.pinned
