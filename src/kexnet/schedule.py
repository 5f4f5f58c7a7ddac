"""Schedule data model and per-topology validation.

A schedule is an ordered list of steps; in each step a set of host pairs
exchange one secure bit simultaneously. Validation checks completeness
(every unordered pair exactly once over the whole schedule), per-step
exchanger capacity, and for the linear chain the wire-interval exclusivity
rule: an exchange between hosts i and j occupies the wire span
[min(i,j), max(i,j)], and two exchanges may share at most an endpoint host.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .errors import AmbiguousStepError
from .topology import NetworkTopology, TopologyKind


@dataclass(frozen=True, order=True)
class PairExchange:
    """One secure bit exchange, presented initiator -> responder."""

    initiator: int
    responder: int

    def __post_init__(self) -> None:
        if self.initiator == self.responder:
            raise ValueError(f"host {self.initiator} cannot exchange with itself")

    @property
    def span(self) -> tuple[int, int]:
        """(low, high): the unordered identity of the exchange, and on a
        chain the wire interval it occupies."""
        a, b = self.initiator, self.responder
        return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class SbepStep:
    """One secure bit exchange period: simultaneous, non-conflicting pairs."""

    index: int
    exchanges: tuple[PairExchange, ...]


@dataclass(frozen=True)
class Schedule:
    topology: NetworkTopology
    steps: tuple[SbepStep, ...]

    def all_exchanges(self) -> list[PairExchange]:
        return [e for step in self.steps for e in step.exchanges]


class HostRole(str, Enum):
    INITIATOR = "initiator"
    UTILIZED = "utilized"
    INACTIVE = "inactive"


@dataclass(frozen=True)
class HostState:
    """What one host is doing during one step.

    ``peer`` is the exchange partner for initiator/utilized hosts, None for
    inactive ones.
    """

    role: HostRole
    peer: int | None = None


@dataclass(frozen=True)
class Violation:
    step_index: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default=())


def _step_capacity_violations(step: SbepStep, t: NetworkTopology) -> list[Violation]:
    out = []
    load = Counter()
    for e in step.exchanges:
        load[e.initiator] += 1
        load[e.responder] += 1
    for host in sorted(load):
        if host < 1 or host > t.n_hosts:
            out.append(Violation(step.index, "unknown-host", f"host {host}"))
        elif load[host] > t.exchangers_per_host:
            out.append(
                Violation(
                    step.index,
                    "capacity",
                    f"host {host} in {load[host]} exchanges, "
                    f"capacity {t.exchangers_per_host}",
                )
            )
    return out


def _step_interval_violations(step: SbepStep, t: NetworkTopology) -> list[Violation]:
    # Chain exclusivity: spans may touch at endpoints but not overlap inside.
    out = []
    exchanges = sorted(step.exchanges)
    for i, e in enumerate(exchanges):
        lo1, hi1 = e.span
        for f in exchanges[i + 1 :]:
            lo2, hi2 = f.span
            if not (hi1 <= lo2 or hi2 <= lo1):
                out.append(
                    Violation(
                        step.index,
                        "lch-overlap",
                        f"({e.initiator},{e.responder}) overlaps "
                        f"({f.initiator},{f.responder})",
                    )
                )
    return out


def validate_schedule(s: Schedule) -> ValidationReport:
    """Check completeness and per-step feasibility; never raises.

    Violation kinds: ``missing-pair``, ``duplicate-pair``, ``capacity``,
    ``lch-overlap``, ``unknown-host``. Duplicates are reported once per
    occurrence beyond the first, with the offending step index.
    """
    t = s.topology
    violations: list[Violation] = []
    for step in s.steps:
        violations.extend(_step_capacity_violations(step, t))
        if t.kind is TopologyKind.LCH:
            violations.extend(_step_interval_violations(step, t))

    seen: dict[tuple[int, int], int] = {}
    for step in s.steps:
        for e in step.exchanges:
            p = e.span
            if p in seen:
                violations.append(
                    Violation(
                        step.index,
                        "duplicate-pair",
                        f"({p[0]},{p[1]}) already exchanged in step {seen[p]}",
                    )
                )
            else:
                seen[p] = step.index
    for a in t.hosts():
        for b in range(a + 1, t.n_hosts + 1):
            if (a, b) not in seen:
                violations.append(Violation(None, "missing-pair", f"({a},{b})"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def host_states(step: SbepStep, n: int) -> dict[int, HostState]:
    """Per-host activity map for one step of a capacity-1 schedule.

    Raises AmbiguousStepError if a host takes part in two exchanges, since
    the initiator/utilized/inactive model assumes one exchanger per host.
    """
    states: dict[int, HostState] = {}
    for e in step.exchanges:
        for h in (e.initiator, e.responder):
            if h in states:
                raise AmbiguousStepError(
                    f"host {h} appears in more than one exchange of step {step.index}"
                )
        states[e.initiator] = HostState(HostRole.INITIATOR, e.responder)
        states[e.responder] = HostState(HostRole.UTILIZED, e.initiator)
    for h in range(1, n + 1):
        states.setdefault(h, HostState(HostRole.INACTIVE))
    return dict(sorted(states.items()))


def pair_coverage(s: Schedule) -> dict[tuple[int, int], int]:
    """How many times each (low, high) host pair appears in the schedule."""
    n = s.topology.n_hosts
    counts: dict[tuple[int, int], int] = {
        (a, b): 0 for a in range(1, n + 1) for b in range(a + 1, n + 1)
    }
    for e in s.all_exchanges():
        counts[e.span] = counts.get(e.span, 0) + 1
    return counts
