"""The host-speed kernel that every benchmark timing is scaled by.

Shared hosts change speed, by up to 1.8x within seconds (seen on a 2-core
shared VM with Python 3.11.7), too fast for a factor per pass to follow.  A
small fixed pure-Python kernel that shares no code with charcubic is timed
next to every timing the benchmark takes, and the timing is divided by the
kernel's time over SPEED_NOMINAL_S (its median time when the benchmark was
defined), so that a change in host speed mostly cancels and a change in
charcubic does not.
"""

from fractions import Fraction
from time import perf_counter

SPEED_NOMINAL_S = 0.00176


def speed_kernel():
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    d = {}
    for i in range(4000):
        k = i * 7 % 997
        d[k] = d.get(k, 0) + i
    return s


def speed():
    """Wall time of one run of the speed kernel."""
    t0 = perf_counter()
    speed_kernel()
    return perf_counter() - t0


def factor(*kernel_times):
    """How much slower than nominal the host ran, from the mean of kernel
    times taken around a timing."""
    return sum(kernel_times) / len(kernel_times) / SPEED_NOMINAL_S
