"""Discrete execution of schedules over repeated passes.

One full schedule pass gives every pair one secure bit; k passes build a
k-bit key per pair. Failures are permanent, take effect at the start of
their (1-based, global) step time, and simply skip the affected exchanges;
nothing is rescheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import FailureScenario, _destroyed, capable_pairs
from .protocols import generate_schedule
from .topology import NetworkTopology


@dataclass(frozen=True)
class SimConfig:
    topology: NetworkTopology
    key_bits: int = 1
    failures: tuple[tuple[int, FailureScenario], ...] = ()

    def __post_init__(self) -> None:
        if self.key_bits < 1:
            raise ValueError("key_bits must be >= 1")
        if any(t < 1 for t, _ in self.failures):
            raise ValueError("failure step_time must be >= 1")
        if list(self.failures) != sorted(self.failures, key=lambda f: f[0]):
            raise ValueError("failures must be sorted by step_time")
        for _, scenario in self.failures:
            _destroyed(self.topology, scenario)


@dataclass(frozen=True)
class SimReport:
    steps_executed: int
    bits_per_pair: dict[tuple[int, int], int]
    host_utilization: dict[int, float]
    lost_pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class UtilizationSummary:
    minimum: float
    mean: float
    maximum: float


def run(config: SimConfig) -> SimReport:
    """Execute key_bits passes of the topology's schedule.

    An exchange succeeds iff its pair is still exchange-capable given the
    failures active at that step. ``lost_pairs`` are pairs that end below
    the requested key length.
    """
    topo = config.topology
    schedule = generate_schedule(topo.kind, topo.n_hosts)
    period = len(schedule.steps)
    horizon = config.key_bits * period
    bits = dict.fromkeys(topo.pairs(), 0)
    active_steps = dict.fromkeys(topo.hosts(), 0)

    # The capable pairs change only when a failure takes effect, so the
    # run splits into failure-free intervals [start, stop) of step times.
    bounds = sorted({1, horizon + 1} | {t for t, _ in config.failures if t <= horizon})
    for start, stop in zip(bounds, bounds[1:]):
        ok, _ = capable_pairs(topo, [f for t, f in config.failures if t <= start])
        for s, step in enumerate(schedule.steps, 1):
            # How many t in [start, stop) have t = s mod period, by ceiling division.
            times = -((start + (s - start) % period - stop) // period)
            if not times:
                continue
            active_hosts: set[int] = set()
            for a, b in step.exchanges:
                p = (a, b) if a < b else (b, a)
                if p in ok:
                    bits[p] += times
                    active_hosts.update(p)
            for h in active_hosts:
                active_steps[h] += times

    utilization = {h: active_steps[h] / horizon for h in topo.hosts()}
    lost = frozenset(p for p, b in bits.items() if b < config.key_bits)
    return SimReport(
        steps_executed=horizon,
        bits_per_pair=bits,
        host_utilization=utilization,
        lost_pairs=lost,
    )


def utilization_profile(report: SimReport) -> UtilizationSummary:
    """Min/mean/max host utilization of a run; the mean is a compensated
    sum (math.fsum), so it does not depend on the Python version."""
    values = list(report.host_utilization.values())
    return UtilizationSummary(
        minimum=min(values),
        mean=math.fsum(values) / len(values),
        maximum=max(values),
    )
