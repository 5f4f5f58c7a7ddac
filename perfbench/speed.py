"""Scales measured times to a fixed reference speed of the host.

On a shared virtual machine the same Python code runs at different speeds
from one stretch of seconds to the next: on a 2-vCPU x86-64 guest with
CPython 3.11, an identical loop took 8.3 ms in some stretches and 12 ms in
others, switching every few seconds to a minute. A run that happens to land
in slow stretches then reads up to 45% slower with the same code.

A ``Probe`` times a fixed pure-Python reference kernel between commands,
about every ``EVERY_S`` seconds and never inside a timed command. Each
command's time is multiplied by ``REF_MS`` over the median of the kernel
times measured just before and just after it. The result is the time the
command would take on a host that runs the kernel in ``REF_MS`` ms; a
change to kexnet moves it as it moves wall time, while the host's speed
swings cancel out. The kernel lives in this file, so no change to kexnet
can alter it.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_MS = 1.0  # about the kernel's time on the host above in its fast stretches
EVERY_S = 0.05  # between commands, time the kernel once the last timing is this old
NEIGHBOURS = 4  # kernel timings taken on each side of a command

_TABLE = [(i * 2654435761) % 1000003 for i in range(4096)]


def kernel() -> int:
    """A fixed mix of integer arithmetic, list indexing and dict updates,
    the operations kexnet's own loops are made of. Allocates no objects the
    garbage collector tracks, so collector settings do not change its time."""
    table, counts, acc = _TABLE, {}, 0
    for i in range(5400):
        key = (i * 40503) & 4095
        counts[key] = counts.get(key, 0) + 1
        acc = (acc + table[key] * i) % 1000003
    return acc


def kernel_seconds() -> float:
    """The median of NEIGHBOURS kernel timings taken now."""
    return statistics.median(s for _, s in Probe().samples)


class Probe:
    """Kernel timings interleaved with commands, and the scale of each command."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.commands: list[tuple[float, float]] = []  # (start, end)
        self.sample(NEIGHBOURS)

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times."""
        for _ in range(count):
            kernel()  # so that caches hold the kernel's data, not the last command's
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def tick(self) -> None:
        """Time the kernel if the last timing is EVERY_S old; call between commands."""
        if time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.sample()

    def command(self, start: float, end: float) -> None:
        self.commands.append((start, end))

    def scaled(self, seconds: list[float]) -> list[float]:
        """``seconds[i]`` is the time of the i-th command, scaled by REF_MS
        over the median kernel time on both sides of that command."""
        assert len(seconds) == len(self.commands)
        mids = [mid for mid, _ in self.samples]
        out = []
        for t, (start, end) in zip(seconds, self.commands):
            lo, hi = bisect.bisect_left(mids, start), bisect.bisect_right(mids, end)
            around = self.samples[max(0, lo - NEIGHBOURS):lo] + self.samples[hi:hi + NEIGHBOURS]
            out.append(t * REF_MS / 1000 / statistics.median(s for _, s in around))
        return out
