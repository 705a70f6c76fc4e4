"""Machine-speed calibration for the benchmark's wall times.

The shared machines this benchmark runs on change speed by tens of
percent from one minute to the next, so the medians of one invocation
differ from those of the next by as much, whatever the program does.
After every scenario run the benchmark therefore times a fixed,
benchmark-owned kernel of pure-Python work (sorting, float arithmetic
and dict churn, with the garbage collector off so the program's heap
cannot affect it) for at least ``SHARE`` of the run's wall time.  The
invocation's wall times are then scaled by ``(REFERENCE_S / median
kernel seconds) ** EXPONENT``: an invocation that ran while the machine
was slow is scaled down.  One kernel run is noisy; the median of an
invocation's many runs is not.  The kernel shares no code with the
program, so a change to the program cannot move it.

The kernel swings further than the program does: over ten ``fleet``
invocations the raw ``sim_s_per_wall_s`` spread was 12.6%, 14.9% with
the full kernel ratio and 6.3% with its square root, and over five
``paper`` invocations the kernel sped up 1.5x while the program sped up
1.15x.  Hence ``EXPONENT = 0.5``: it removes most of a drift the kernel
tracks, and little damage is done when it over-reacts.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

#: Kernel seconds the scaled times are expressed at: about the kernel's
#: median on a 2-core x86-64 container with CPython 3.11.
REFERENCE_S = 0.017
#: Share of the kernel's log speed ratio applied to the wall times.
EXPONENT = 0.5
#: Kernel time per second of measured wall time, at least.
SHARE = 0.05
#: Kernel runs after each scenario run, at least.
MIN_SAMPLES = 2

_DATA = [random.Random(20081).random() for _ in range(20_000)]


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0.0
        table: dict[int, float] = {}
        for _ in range(6):
            for i, x in enumerate(sorted(_DATA)):
                total += x * 1.0001
                if i % 3 == 0:
                    table[i] = x
            table.clear()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(measured_s: float) -> list[float]:
    """Kernel runs totalling at least ``SHARE`` of ``measured_s``."""
    samples: list[float] = []
    while len(samples) < MIN_SAMPLES or sum(samples) < SHARE * measured_s:
        samples.append(kernel_seconds())
    return samples


def scale(samples: list[float]) -> float:
    """Factor taking an invocation's wall times to the reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** EXPONENT
