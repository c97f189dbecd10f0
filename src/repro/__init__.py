"""Mercury: Combining Performance with Dependability Using Self-Virtualization.

A reproduction of Chen et al. (ICPP 2007 / JCST 2012) as a deterministic,
cycle-accounted full-system simulator:

- :mod:`repro.hw` — simulated x86-style hardware.
- :mod:`repro.guestos` — a Linux-like guest OS.
- :mod:`repro.vmm` — a Xen-like virtual machine monitor.
- :mod:`repro.core` — Mercury itself: virtualization objects, mode
  switching, SMP coordination (the paper's contribution).
- :mod:`repro.scenarios` — the §6 usage scenarios (checkpoint/restart,
  live migration, online maintenance, live update, self-healing, HPC
  cluster availability).
- :mod:`repro.workloads` — lmbench/OSDB/dbench/kbuild/iperf-like workloads.
- :mod:`repro.bench` — the six-configuration harness that regenerates the
  paper's tables and figures.

Quickstart::

    from repro import Machine, Mercury, small_config

    machine = Machine(small_config())
    mercury = Mercury(machine)
    kernel = mercury.create_kernel()
    record = mercury.attach()      # ~0.2 ms: VMM now underneath the OS
    mercury.detach()               # ~0.06 ms: back on bare hardware
"""

from repro.core.accounting import AccountingStrategy
from repro.core.hvm import HvmMercury
from repro.core.invariants import check_all
from repro.core.mercury import Mercury, Mode, PagingMode
from repro.core.switch import Direction, SwitchRecord
from repro.guestos.kernel import Kernel
from repro.hw.machine import Machine
from repro.metrics import MetricsCollector
from repro.params import CostModel, MachineConfig, paper_config, small_config
from repro.vmm.hypervisor import Hypervisor

__version__ = "1.0.0"

__all__ = [
    "AccountingStrategy",
    "CostModel",
    "Direction",
    "Hypervisor",
    "HvmMercury",
    "Kernel",
    "Machine",
    "MachineConfig",
    "Mercury",
    "MetricsCollector",
    "Mode",
    "PagingMode",
    "SwitchRecord",
    "check_all",
    "paper_config",
    "small_config",
    "__version__",
]
