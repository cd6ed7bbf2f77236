"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the same run can take 1.2 s in one minute and 2.0 s in the
next, in phases of tens of seconds. That was measured on a 2-vCPU VM, and
process CPU time swings the same way. A median over one run cannot remove a
phase that lasts the whole run. So ``run.py`` times this kernel right after
each timed piece of work (``run.py`` averages the kernel runs before and
after a run) and reports that work in reference seconds:
``wall_s * REFERENCE_S / kernel_s``. A phase that slows both by the same
factor cancels out, and a change to rollsim moves only the work's time.

The kernel mixes 64-bit words with xors, rotations, additions and masks on
Python ints. That is the kind of work rollsim's Keccak does, so contention
slows the two alike. It uses no rollsim code, so no change to rollsim can
speed it up. Changing it, or ``REFERENCE_S``, changes the unit of every
reported time: do neither.
"""

import time

# About the kernel's wall time on the host where the benchmark was written
# when it is quiet, so reported times read close to wall times there.
REFERENCE_S = 0.15

_M = (1 << 64) - 1
_ROUNDS = 10000


def kernel() -> int:
    a, b, c, d = 0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978, 0x8796A5B4C3D2E1F0
    for i in range(_ROUNDS):
        for _ in range(24):
            a = (a ^ ((b << 13 | b >> 51) & _M)) & _M
            b = (b + (c ^ (~d & a))) & _M
            c = c ^ ((d << 41 | d >> 23) & _M)
            d = (d ^ a ^ i) & _M
    return a ^ b ^ c ^ d


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` in reference seconds, given the kernel time taken beside it."""
    return wall_s * REFERENCE_S / kernel_s
