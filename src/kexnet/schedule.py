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
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, filterfalse, islice
from typing import NamedTuple

from .errors import AmbiguousStepError
from .topology import NetworkTopology, TopologyKind


class SbepStep(NamedTuple):
    """One secure bit exchange period: simultaneous (initiator, responder) pairs."""

    index: int
    exchanges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Schedule:
    topology: NetworkTopology
    steps: tuple[SbepStep, ...]

    @classmethod
    def from_pairs(
        cls, topology: NetworkTopology, steps: Iterable[Iterable[tuple[int, int]]]
    ) -> Schedule:
        """The schedule whose steps, numbered from 1, hold the given
        (initiator, responder) pairs in the order given, as plain tuples.
        Raises ValueError for a pair that is not two hosts, or is a self-pair."""
        built = tuple(tuple(map(tuple, pairs)) for pairs in steps)
        for a, b in chain.from_iterable(built):
            if a == b:
                raise ValueError(f"host {a} cannot exchange with itself")
        return cls(topology, tuple(map(SbepStep, count(1), built)))

    def all_exchanges(self) -> list[tuple[int, int]]:
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


# A report lists at most this many missing pairs, then how many more there are.
MISSING_PAIR_LINES = 100


def _host_order(host) -> tuple:
    # Int hosts in numeric order, then any other value by its repr.
    return (0, host) if type(host) is int else (1, repr(host))


class _Other(str):
    """Stands in for a host that is not an int: a str whose repr is the host's.

    So a value equal to an int (True, 2.0) is counted apart from that int,
    and an unhashable one (a list) can be counted at all.
    """

    __repr__ = str.__str__


def _counted(host):
    return host if type(host) is int else _Other(repr(host))


def _step_capacity_violations(step: SbepStep, t: NetworkTopology) -> list[Violation]:
    # Hosts are checked against 1..n by bounds, not by a set of all n hosts.
    hosts = list(chain.from_iterable(step.exchanges))
    all_ints = set(map(type, hosts)) <= {int}
    if all_ints:
        distinct = set(hosts)
        if len(distinct) == len(hosts) and (
            not hosts or 1 <= min(distinct) and max(distinct) <= t.n_hosts
        ):
            return []
    out = []
    load = Counter(hosts if all_ints else map(_counted, hosts))
    for host in sorted(load, key=_host_order):
        if type(host) is not int or not 1 <= host <= t.n_hosts:
            out.append(Violation(step.index, "unknown-host", f"host {host!r}"))
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
    spans = [(a, b) if a < b else (b, a) for a, b in exchanges]
    for i, (lo1, hi1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            lo2, hi2 = spans[j]
            if not (hi1 <= lo2 or hi2 <= lo1):
                out.append(
                    Violation(
                        step.index,
                        "lch-overlap",
                        "(%s,%s) overlaps (%s,%s)" % (*exchanges[i], *exchanges[j]),
                    )
                )
    return out


def validate_schedule(s: Schedule) -> ValidationReport:
    """Check completeness and per-step feasibility; never raises.

    Violation kinds: ``step-index``, ``missing-pair``, ``duplicate-pair``,
    ``capacity``, ``lch-overlap``, ``unknown-host``. A step whose index is
    not its 1-based position gets one ``step-index`` violation. A host
    that is not an int (``type(h) is int``, as the json parser requires)
    in 1..n is an ``unknown-host``; an exchange holding a host that is not
    an int takes no part in the other checks. Duplicates are reported once
    per occurrence beyond the first, with the offending step index.
    Missing pairs are listed in pair order, at most MISSING_PAIR_LINES of
    them, then one "<count> more pairs missing".
    """
    t = s.topology
    violations: list[Violation] = []
    steps = []
    for position, step in enumerate(s.steps, 1):
        if step.index != position:
            violations.append(
                Violation(step.index, "step-index", f"expected index {position}")
            )
        found = _step_capacity_violations(step, t)
        if found:
            # A host that is not an int is reported above and cannot be
            # ordered against the others: its exchanges take no further part.
            ints = [e for e in step.exchanges if all(type(h) is int for h in e)]
            step = step._replace(exchanges=tuple(ints))
            violations.extend(found)
        if t.kind is TopologyKind.LCH:
            violations.extend(_step_interval_violations(step, t))
        steps.append(step)

    seen: dict[tuple[int, int], int] = {}
    for step in steps:
        for a, b in step.exchanges:
            p = (a, b) if a < b else (b, a)
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
    # With no violation (all hosts in 1..n, no pair twice) and no self-pair,
    # n(n-1)/2 distinct pairs are all the pairs.
    n, hosts = t.n_hosts, t.hosts()
    total = n * (n - 1) // 2
    if violations or len(seen) != total or not seen.keys().isdisjoint(zip(hosts, hosts)):
        # The walk stops one pair past the cap: at most cap + len(seen) pairs.
        unseen = filterfalse(seen.__contains__, t.pairs())
        missing = list(islice(unseen, MISSING_PAIR_LINES + 1))
        for p in missing[:MISSING_PAIR_LINES]:
            violations.append(Violation(None, "missing-pair", "(%s,%s)" % p))
        if len(missing) > MISSING_PAIR_LINES:
            present = sum(1 <= lo < hi <= n for lo, hi in seen)
            more = f"{total - present - MISSING_PAIR_LINES} more pairs missing"
            violations.append(Violation(None, "missing-pair", more))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def host_states(step: SbepStep, n: int) -> dict[int, HostState]:
    """Per-host activity map for one step of a capacity-1 schedule.

    Raises AmbiguousStepError if a host takes part in two exchanges, since
    the initiator/utilized/inactive model assumes one exchanger per host.
    """
    states: dict[int, HostState] = {}
    for a, b in step.exchanges:
        for h in (a, b):
            if h in states:
                raise AmbiguousStepError(
                    f"host {h} appears in more than one exchange of step {step.index}"
                )
        states[a] = HostState(HostRole.INITIATOR, b)
        states[b] = HostState(HostRole.UTILIZED, a)
    for h in range(1, n + 1):
        states.setdefault(h, HostState(HostRole.INACTIVE))
    return dict(sorted(states.items()))


def pair_coverage(s: Schedule) -> dict[tuple[int, int], int]:
    """How many times each (low, high) host pair appears in the schedule."""
    counts = dict.fromkeys(s.topology.pairs(), 0)
    for a, b in s.all_exchanges():
        p = (a, b) if a < b else (b, a)
        counts[p] = counts.get(p, 0) + 1
    return counts
