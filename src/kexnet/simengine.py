"""Discrete execution of schedules over repeated passes.

One full schedule pass gives every pair one secure bit; k passes build a
k-bit key per pair. Failures are permanent, take effect at the start of
their (1-based, global) step time, and simply skip the affected exchanges;
nothing is rescheduled.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

from .analysis import FailureScenario, capable_pairs, stops
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
        for _ in stops(self.topology, [f for _, f in self.failures]):
            pass  # stops checks each failure as it reaches it, listing no pair


@dataclass(frozen=True)
class SimReport:
    """The outcome of a run; ``bits_per_pair`` holds every pair in pair order."""

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
    the requested key length. The run walks the schedule once, whatever
    key_bits is, and calls capable_pairs at most once.
    """
    topo = config.topology
    schedule = generate_schedule(topo.kind, topo.n_hosts)
    period, k = len(schedule.steps), config.key_bits
    horizon = k * period
    bits = dict.fromkeys(topo.pairs(), k)

    # Failures only remove capable pairs, so each pair has a stop time: the
    # time of the first failure that stops it. gone[t] holds the pairs that
    # stop at t, and the pairs left in ``capable`` never stop.
    gone: dict[int, set[tuple[int, int]]] = {}
    capable = bits.keys()
    within = [f for t, f in config.failures if t <= horizon]
    if within:
        stopped: set[tuple[int, int]] = set()
        for (t, _), pairs in zip(config.failures, stops(topo, within)):
            gone.setdefault(t, set()).update(set(pairs) - stopped)
            stopped |= gone[t]
        capable, _ = capable_pairs(topo, within)

    # A pair at step s runs at times s, s + period, ..., so with a stop time
    # t = q * period + r + 1 (0 <= r < period) it earns q + 1 bits if s <= r,
    # else q. A host is active at a step as many times as its most-credited
    # exchange there: k times if one of them never stops, else as often as
    # the one that stops last, so the stop times are taken latest first.
    # active[c] lists a host once for each step at which it is active c times.
    active: defaultdict[int, list[int]] = defaultdict(list)
    lost: set[tuple[int, int]] = set()
    for s, step in enumerate(schedule.steps, 1):
        if not gone:
            active[k].extend(set(chain.from_iterable(step.exchanges)))
            continue
        pairs = {(a, b) if a < b else (b, a) for a, b in step.exchanges}
        counted = set(chain.from_iterable(capable & pairs))
        active[k].extend(counted)
        for t in reversed(gone):
            stopped = gone[t] & pairs
            if not stopped:
                continue
            q, r = divmod(t - 1, period)
            credited = q + (s <= r)
            bits.update(dict.fromkeys(stopped, credited))
            if credited < k:
                lost |= stopped
            hosts = set(chain.from_iterable(stopped)) - counted
            active[credited].extend(hosts)
            counted |= hosts

    counts = [(c, Counter(hosts)) for c, hosts in active.items()]
    utilization = {h: sum(c * n[h] for c, n in counts) / horizon for h in topo.hosts()}
    return SimReport(
        steps_executed=horizon,
        bits_per_pair=bits,
        host_utilization=utilization,
        lost_pairs=frozenset(lost),
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
