"""The speed of the core a process runs on, read from a fixed kernel.

Other tenants of a shared host slow every process on it down, by 20-70%,
for seconds to minutes at a time.  ``probe`` times ``kernel``, a fixed
piece of the kind of Python pointedcat runs (Fraction arithmetic, tuple
keys, dict stores, small-int loops), and a time measured among probes is
scaled by ``REFERENCE_MS`` over the probe time around it: it reads as the
time the same work takes on a core where the kernel takes ``REFERENCE_MS``.
Nothing in pointedcat runs in the kernel, so a change to pointedcat moves
scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the kernel's time on a quiet core of a 2-vCPU Intel Xeon VM, so
# scaled times there read about as measured.
REFERENCE_MS = 4.5


def kernel() -> int:
    table = {}
    x = Fraction(1, 3)
    for i in range(700):
        x = x * Fraction(i + 1, 7) + Fraction(1, i + 2)
        x = Fraction(x.numerator % 1000003, x.denominator % 997 + 1)
        table[(i % 97, i % 13)] = x
    total = 0
    for i in range(14000):
        total += (i * i) % 7
    return total + len(table)


def probe() -> float:
    """The kernel's time now, in ms."""
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1000.0


def scale(ms: float, probe_ms: float) -> float:
    """A time measured while ``probe`` read ``probe_ms``, at reference speed."""
    return ms * REFERENCE_MS / probe_ms
