"""Discrete execution of schedules over repeated passes.

One full schedule pass gives every pair one secure bit; k passes build a
k-bit key per pair. Failures are permanent, take effect at the start of
their (1-based, global) step time, and simply skip the affected exchanges;
nothing is rescheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import FailureScenario, _check_scenario, capable_pairs
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
            _check_scenario(self.topology, scenario)


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
    n = topo.n_hosts
    bits: dict[tuple[int, int], int] = {
        (a, b): 0 for a in range(1, n + 1) for b in range(a + 1, n + 1)
    }
    active_steps = {h: 0 for h in topo.hosts()}

    pending = list(config.failures)
    active: list[FailureScenario] = []
    ok, _ = capable_pairs(topo, active)

    t = 0
    for _ in range(config.key_bits):
        for step in schedule.steps:
            t += 1
            changed = False
            while pending and pending[0][0] <= t:
                active.append(pending.pop(0)[1])
                changed = True
            if changed:
                ok, _ = capable_pairs(topo, active)
            active_hosts: set[int] = set()
            for e in step.exchanges:
                p = e.span
                if p in ok:
                    bits[p] += 1
                    active_hosts.update((e.initiator, e.responder))
            for h in active_hosts:
                active_steps[h] += 1

    utilization = {h: active_steps[h] / t for h in topo.hosts()}
    lost = frozenset(p for p, b in bits.items() if b < config.key_bits)
    return SimReport(
        steps_executed=t,
        bits_per_pair=bits,
        host_utilization=utilization,
        lost_pairs=lost,
    )


def utilization_profile(report: SimReport) -> UtilizationSummary:
    """Min/mean/max host utilization of a run."""
    values = list(report.host_utilization.values())
    return UtilizationSummary(
        minimum=min(values),
        mean=sum(values) / len(values),
        maximum=max(values),
    )
