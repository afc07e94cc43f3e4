"""The memory refusals, made before the arrays they count are built."""

import os
import resource

import numpy as np

from .errors import BudgetExceeded


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


_BLAS_BUFFER = 32 << 20  # the address space OpenBLAS maps at its first gemm


def _left_under_rlimit() -> int | None:
    """The soft RLIMIT_AS less the address space mapped so far (/proc/self/statm),
    or None where no such limit is set."""
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft == resource.RLIM_INFINITY or not os.path.exists("/proc/self/statm"):
        return None
    with open("/proc/self/statm", encoding="ascii") as fh:
        return soft - int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")


def refuse_past_room(need: int, what: str) -> None:
    """BudgetExceeded when `need` bytes for `what` exceed physical memory or what
    an RLIMIT_AS leaves (`_left_under_rlimit`); for work that runs no gemm."""
    have, where = _physical_memory_bytes(), "physical memory"
    if (left := _left_under_rlimit()) is not None:
        have, where = min((have, where), (left, "address space left under RLIMIT_AS"))
    if need > have:
        raise BudgetExceeded(f"{what} need about {need} bytes, more than the {have} bytes "
                             f"of {where}")


def refuse_past_memory(need: int, what: str) -> None:
    """`refuse_past_room` for work that runs gemms: what an RLIMIT_AS leaves must
    also hold the buffer OpenBLAS maps at its first gemm.  Where it does, a 2 x 2
    complex gemm maps it (if no gemm has yet) before the check; where it does
    not, no bytes are left for the work."""
    left = _left_under_rlimit()
    if left is not None and left <= _BLAS_BUFFER:
        raise BudgetExceeded(f"{what} need about {need} bytes, more than the 0 bytes of "
                             "address space left under RLIMIT_AS")
    if left is not None:
        np.ones((2, 2), dtype=np.complex128) @ np.ones((2, 2), dtype=np.complex128)
    refuse_past_room(need, what)
