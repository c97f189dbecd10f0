"""Simulated hardware substrate.

This package models the machine the paper ran on (§7.1): x86-style CPUs
with privilege levels and control registers, physical memory with per-frame
metadata, two-level hardware-walked page tables with a TLB, an APIC-style
interrupt controller with IPIs, and block/network/timer devices.

Everything is deterministic and cycle-accounted: each primitive charges
cycles to the issuing CPU through :class:`repro.hw.clock.Clock`, so measured
"times" are reproducible simulation artifacts, not host timings.
"""

from repro.hw.clock import Clock
from repro.hw.cpu import Cpu, PrivilegeLevel
from repro.hw.machine import Machine
from repro.hw.memory import PhysicalMemory
from repro.hw.paging import AddressSpace, PageTablePage, pte, pte_frame

__all__ = [
    "AddressSpace",
    "Clock",
    "Cpu",
    "Machine",
    "PageTablePage",
    "PhysicalMemory",
    "PrivilegeLevel",
    "pte",
    "pte_frame",
]
