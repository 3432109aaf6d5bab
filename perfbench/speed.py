"""A fixed reference kernel that measures how fast the CPU runs right now.

On a shared host, other tenants slow this process's cores by 1.2-1.7x for
stretches of tens of seconds; ``process_time`` grows by the same factor, so
it is contention on the cores, not descheduling, and no repeat count inside
one benchmark run averages it out.  The benchmark therefore times this kernel
next to every op and rescales the op's time to the speed at which the kernel
takes ``REF_SECONDS``.  The kernel mixes what the package spends its time
on: numpy calls on small stacks, a numpy pass over a 4096-row stack, and
interpreted Python.  It must never change, or the benchmark's numbers stop
being comparable with earlier ones.
"""
from __future__ import annotations

import time

import numpy as np

#: the kernel's time on an uncontended core of the 2-core box the baseline
#: was measured on; rescaled times read as seconds on that core
REF_SECONDS = 1.5e-3

_SMALL = np.random.default_rng(0).standard_normal((30, 8))
_LARGE = np.random.default_rng(1).standard_normal((4096, 8))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(60):
        a = np.abs(_SMALL)
        m = a.max(axis=1)
        m * ((a / m[:, None]) ** 4).sum(axis=1)
    for _ in range(3):
        (np.abs(_LARGE) ** 3.0).sum(axis=1)
    acc = {}
    for i in range(3000):
        acc[i % 17] = acc.get(i % 17, 0.0) + i * 0.5
    return time.perf_counter() - t0


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` taken between two kernel timings, at the reference speed."""
    return seconds * REF_SECONDS / (0.5 * (before + after))
