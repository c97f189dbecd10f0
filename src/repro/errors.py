"""Exception hierarchy for the Mercury reproduction.

Every error raised by the simulator derives from :class:`ReproError` so that
callers can catch simulator faults without masking programming errors.  The
hierarchy mirrors the layering of the system: hardware faults, guest-OS
faults, VMM faults and Mercury (self-virtualization) faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# --------------------------------------------------------------------------
# Hardware-level faults
# --------------------------------------------------------------------------

class HardwareError(ReproError):
    """Base class for faults raised by the simulated hardware."""


class GeneralProtectionFault(HardwareError):
    """A privilege violation: executing a privileged operation from an
    insufficiently privileged level, or loading an inconsistent segment
    selector (the fault §5.1.2 of the paper guards against with the
    segment-selector fixup stub)."""


class PageFault(HardwareError):
    """A memory access could not be translated or violated PTE permissions.

    Carries enough information for the guest OS (or the VMM) to service the
    fault: the faulting virtual address, whether the access was a write, and
    whether the fault came from user mode.
    """

    def __init__(self, vaddr: int, write: bool, user: bool, message: str = ""):
        super().__init__(message or f"page fault at {vaddr:#x} (write={write}, user={user})")
        self.vaddr = vaddr
        self.write = write
        self.user = user


class InvalidPhysicalAddress(HardwareError):
    """An access referenced a frame outside installed physical memory."""


class DeviceError(HardwareError):
    """A simulated device rejected or failed an operation."""


# --------------------------------------------------------------------------
# Guest OS faults
# --------------------------------------------------------------------------

class GuestOSError(ReproError):
    """Base class for guest-OS-level errors."""


class NoSuchProcess(GuestOSError):
    """A PID did not name a live task."""


class OutOfMemory(GuestOSError):
    """The kernel could not allocate frames or virtual address space."""


class FileSystemError(GuestOSError):
    """VFS/ext3-like filesystem error (missing file, bad offset, ...)."""


class NetworkError(GuestOSError):
    """Socket/network-stack error."""


class SyscallError(GuestOSError):
    """A system call failed; carries a Unix-style errno name."""

    def __init__(self, errno: str, message: str = ""):
        super().__init__(message or errno)
        self.errno = errno


class SignalDelivered(GuestOSError):
    """A fault was resolved by running a registered signal handler; the
    faulting operation is abandoned (the handler longjmp'd out, as
    lmbench's fault handlers do)."""

    def __init__(self, sig: int, vaddr: int = 0):
        super().__init__(f"signal {sig} handled (fault at {vaddr:#x})")
        self.sig = sig
        self.vaddr = vaddr


# --------------------------------------------------------------------------
# VMM faults
# --------------------------------------------------------------------------

class VMMError(ReproError):
    """Base class for hypervisor-level errors."""


class HypercallError(VMMError):
    """A hypercall was rejected (bad arguments, failed validation)."""


class PageValidationError(VMMError):
    """A page could not be validated/pinned as the requested type, e.g. a
    would-be page-table page containing a writable mapping of another
    page-table page, or a PTE pointing at a foreign domain's frame."""


class DomainError(VMMError):
    """Domain lifecycle error (bad domain id, double-destroy, ...)."""


class GrantError(VMMError):
    """Grant-table error (bad grant reference, revoked grant, ...)."""


class RingError(VMMError):
    """Shared-memory I/O ring protocol violation (overrun, bad index)."""


class VmmCorruption(VMMError):
    """A VMI-style watchdog scan found corrupted VMM/guest structures.

    The verdict names the failed invariant so recovery and tests can key
    off *what* broke, not just that something did; ``detail`` carries the
    human-readable evidence from the scan."""

    def __init__(self, invariant: str, detail: str = ""):
        super().__init__(f"VMM corruption: {invariant}"
                         + (f" ({detail})" if detail else ""))
        self.invariant = invariant
        self.detail = detail


# --------------------------------------------------------------------------
# Mercury (self-virtualization) faults
# --------------------------------------------------------------------------

class MercuryError(ReproError):
    """Base class for self-virtualization errors."""


class ModeSwitchError(MercuryError):
    """A mode switch could not be performed (illegal target mode,
    inconsistent state, ...)."""


class RendezvousTimeout(MercuryError):
    """The SMP rendezvous protocol did not gather all CPUs in time."""


class TransferAborted(MercuryError):
    """A state-transfer function (§5.1.2) aborted partway through; the
    switch engine's undo log rolls the completed steps back."""


class ReloadFailure(MercuryError):
    """A CPU failed to reload its hardware control state (§5.1.3) during a
    switch — the hard case, because the control processor's work has
    already committed when a secondary's reload dies."""


class SwitchAborted(MercuryError):
    """A mode switch exhausted its bounded retry budget and was terminally
    aborted.  The kernel was rolled back to (or never left) its pre-switch
    mode; ``last_error`` carries the final attempt's failure, if any."""

    def __init__(self, direction, retries: int,
                 last_error: "Exception | None" = None):
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"mode switch {getattr(direction, 'value', direction)} aborted "
            f"after {retries} retries{detail}")
        self.direction = direction
        self.retries = retries
        self.last_error = last_error


class ConsistencyViolation(MercuryError):
    """An internal invariant check failed.  This should never escape in a
    correct build; tests assert that specific misuse raises it."""


class RecoveryError(MercuryError):
    """VMM-fault recovery (emergency detach + microreboot + re-attach)
    could not restore a healthy attached state."""


# --------------------------------------------------------------------------
# Scenario-level faults
# --------------------------------------------------------------------------

class ScenarioError(ReproError):
    """Base class for usage-scenario errors (§6)."""


class MigrationError(ScenarioError):
    """Live migration failed or was aborted."""


class CheckpointError(ScenarioError):
    """Checkpoint/restore failure (corrupt image, wrong machine shape)."""


class LiveUpdateError(ScenarioError):
    """A live kernel update could not be applied or rolled back."""


class HealingError(ScenarioError):
    """Self-healing could not repair the detected anomaly."""
