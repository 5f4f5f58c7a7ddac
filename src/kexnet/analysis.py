"""Regression over the step-count table, topology comparison, and
structural failure analysis.

Failure analysis is purely structural: it answers which host pairs can
still complete an exchange after the damaged components are removed.
Timing of failures mid-run is handled by the simulation engine.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import DegenerateFitError, InvalidScenarioError
from .protocols import generate_schedule, sbep_formula
from .topology import (
    CostProfile,
    NetworkTopology,
    TopologyKind,
    build_topology,
    cost_profile,
)


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares line with coefficient of determination.

    ``degenerate`` marks the zero-total-variance case with nonzero
    residuals, where R^2 has no standard value.
    """

    slope: float
    intercept: float
    r_squared: float
    degenerate: bool = False


def fit_linear(points: list[tuple[float, float]]) -> RegressionFit:
    """Closed-form OLS fit; sums are compensated (math.fsum) so the
    published constants reproduce deterministically."""
    if len(points) < 2:
        raise DegenerateFitError("need at least 2 points")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(points)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateFitError("all x values identical")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    if ss_tot == 0.0:
        if ss_res == 0.0:
            return RegressionFit(slope=slope, intercept=intercept, r_squared=1.0)
        return RegressionFit(
            slope=slope, intercept=intercept, r_squared=0.0, degenerate=True
        )
    return RegressionFit(
        slope=slope, intercept=intercept, r_squared=1.0 - ss_res / ss_tot
    )


def build_sbep_table(n_max: int) -> list[tuple[int, int]]:
    """(n, step count) rows for n = 2..n_max."""
    return [(n, sbep_formula(n)) for n in range(2, n_max + 1)]


# --- failure scenarios -------------------------------------------------------


@dataclass(frozen=True)
class CableFailure:
    """Damaged cable. ``ident`` is the spoke host for STAR, the segment
    index (between hosts k and k+1) for LCH, or the (a, b) host pair for
    the fully connected networks."""

    ident: int | tuple[int, int]


@dataclass(frozen=True)
class KeyExchangerFailure:
    """Damaged exchanger on ``host``; ``slot`` picks one unit (1-based,
    required for FCN_FULL where slots map to peers in ascending order)."""

    host: int
    slot: int | None = None


@dataclass(frozen=True)
class CenterSwitchFailure:
    """Damaged star hub."""


FailureScenario = CableFailure | KeyExchangerFailure | CenterSwitchFailure


@dataclass(frozen=True)
class ConnectivityReport:
    reachable_pairs: frozenset[tuple[int, int]]
    degraded_hosts: frozenset[int]


def _destroyed(t: NetworkTopology, f: FailureScenario) -> tuple[str, object]:
    """The one part of ``t`` that ``f`` destroys: ("center", None),
    ("host", h), ("pair", (lo, hi)), ("segment", k) or ("slot", (h, s)).
    Raises InvalidScenarioError for a component ``t`` does not have."""
    n, kind = t.n_hosts, t.kind
    if isinstance(f, CenterSwitchFailure):
        if kind is not TopologyKind.STAR:
            raise InvalidScenarioError("only the star network has a center switch")
        return "center", None
    if isinstance(f, KeyExchangerFailure):
        if not 1 <= f.host <= n:
            raise InvalidScenarioError(f"no host {f.host} in a {n}-host network")
        if f.slot is not None and not 1 <= f.slot <= t.exchangers_per_host:
            raise InvalidScenarioError(
                f"host {f.host} has {t.exchangers_per_host} exchanger(s), "
                f"no slot {f.slot}"
            )
        if kind is TopologyKind.LCH:
            return "slot", (f.host, f.slot or 1)
        if kind is not TopologyKind.FCN_FULL:
            return "host", f.host
        if f.slot is None:
            raise InvalidScenarioError("FCN_FULL exchanger failure needs a slot")
        # Slots map to the host's peers in ascending order.
        return "pair", tuple(sorted((f.host, f.slot + (f.slot >= f.host))))
    if not isinstance(f, CableFailure):
        raise InvalidScenarioError(f"unknown scenario {f!r}")
    ident = f.ident
    if kind is TopologyKind.STAR:
        if not (isinstance(ident, int) and 1 <= ident <= n):
            raise InvalidScenarioError(f"no star spoke {ident!r}")
        return "host", ident
    if kind is TopologyKind.LCH:
        if not (isinstance(ident, int) and 1 <= ident <= n - 1):
            raise InvalidScenarioError(f"no chain segment {ident!r}")
        return "segment", ident
    if not (
        isinstance(ident, tuple)
        and len(ident) == 2
        and ident[0] != ident[1]
        and all(1 <= h <= n for h in ident)
    ):
        raise InvalidScenarioError(
            f"fully connected cable is a host pair, got {ident!r}"
        )
    return "pair", tuple(sorted(ident))


def capable_pairs(
    t: NetworkTopology, failures: list[FailureScenario]
) -> tuple[frozenset[tuple[int, int]], frozenset[int]]:
    """((low, high) pairs that can still exchange, hosts with degraded capacity).

    A host is dead when it, or the center, or both of its chain slots are
    destroyed; a host that lost one chain slot is degraded.
    """
    lost: defaultdict[str, set] = defaultdict(set)
    for f in failures:
        part, which = _destroyed(t, f)
        lost[part].add(which)
    slot_hosts = [h for h, _ in lost["slot"]]
    dead = lost["host"] | {h for h in slot_hosts if slot_hosts.count(h) == 2}
    if lost["center"]:
        dead = set(t.hosts())
    # The cut segments split the hosts into sides, and a pair keeps its
    # hosts and crosses no cut exactly when both are live hosts of one side.
    bounds = [0, *sorted(lost["segment"]), t.n_hosts]
    sides = (
        [h for h in range(lo + 1, hi + 1) if h not in dead]
        for lo, hi in zip(bounds, bounds[1:])
    )
    ok = frozenset(chain.from_iterable(combinations(g, 2) for g in sides))
    if lost["pair"]:
        ok -= lost["pair"]
    return ok, frozenset(set(slot_hosts) - dead)


def apply_failures(
    t: NetworkTopology, failures: list[FailureScenario]
) -> ConnectivityReport:
    """Connectivity after removing the damaged components."""
    return ConnectivityReport(*capable_pairs(t, failures))


def apply_failure(t: NetworkTopology, f: FailureScenario) -> ConnectivityReport:
    """Single-failure convenience wrapper around :func:`apply_failures`."""
    return apply_failures(t, [f])


# --- topology comparison -----------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    kind: TopologyKind
    costs: CostProfile
    step_count: int
    single_point_of_failure: str


_SPOF = {
    TopologyKind.FCN_FULL: "none (single cable loss affects one pair)",
    TopologyKind.FCN_SINGLE: "none (single cable loss affects one pair)",
    TopologyKind.LCH: "any cable segment splits the network in two",
    TopologyKind.STAR: "center switch disconnects the entire network",
}


def compare_networks(n: int) -> list[ComparisonRow]:
    """Concrete counts, generated step count, and failure summary per kind."""
    rows = []
    for kind in TopologyKind:
        topo = build_topology(kind, n)
        schedule = generate_schedule(kind, n)
        rows.append(
            ComparisonRow(
                kind=kind,
                costs=cost_profile(topo),
                step_count=len(schedule.steps),
                single_point_of_failure=_SPOF[kind],
            )
        )
    return rows
