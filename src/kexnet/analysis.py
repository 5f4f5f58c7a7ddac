"""Regression over the step-count table, topology comparison, and
structural failure analysis.

Failure analysis is purely structural: it answers which host pairs can
still complete an exchange after the damaged components are removed.
Timing of failures mid-run is handled by the simulation engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    isolated_hosts: frozenset[int]
    components: tuple[frozenset[int], ...]
    degraded_hosts: frozenset[int] = field(default=frozenset())


def _check_scenario(t: NetworkTopology, f: FailureScenario) -> None:
    n = t.n_hosts
    if isinstance(f, CenterSwitchFailure):
        if t.kind is not TopologyKind.STAR:
            raise InvalidScenarioError("only the star network has a center switch")
    elif isinstance(f, KeyExchangerFailure):
        if not 1 <= f.host <= n:
            raise InvalidScenarioError(f"no host {f.host} in a {n}-host network")
        if f.slot is not None and not 1 <= f.slot <= t.exchangers_per_host:
            raise InvalidScenarioError(
                f"host {f.host} has {t.exchangers_per_host} exchanger(s), "
                f"no slot {f.slot}"
            )
        if t.kind is TopologyKind.FCN_FULL and f.slot is None:
            raise InvalidScenarioError("FCN_FULL exchanger failure needs a slot")
    elif isinstance(f, CableFailure):
        if t.kind in (TopologyKind.FCN_FULL, TopologyKind.FCN_SINGLE):
            if not (
                isinstance(f.ident, tuple)
                and len(f.ident) == 2
                and 1 <= f.ident[0] <= n
                and 1 <= f.ident[1] <= n
                and f.ident[0] != f.ident[1]
            ):
                raise InvalidScenarioError(
                    f"fully connected cable is a host pair, got {f.ident!r}"
                )
        elif t.kind is TopologyKind.LCH:
            if not (isinstance(f.ident, int) and 1 <= f.ident <= n - 1):
                raise InvalidScenarioError(f"no chain segment {f.ident!r}")
        else:
            if not (isinstance(f.ident, int) and 1 <= f.ident <= n):
                raise InvalidScenarioError(f"no star spoke {f.ident!r}")
    else:
        raise InvalidScenarioError(f"unknown scenario {f!r}")


def capable_pairs(
    t: NetworkTopology, failures: list[FailureScenario]
) -> tuple[frozenset[tuple[int, int]], frozenset[int]]:
    """((low, high) pairs that can still exchange, hosts with degraded capacity)."""
    n = t.n_hosts
    for f in failures:
        _check_scenario(t, f)
    all_pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]

    if t.kind is TopologyKind.STAR:
        if any(isinstance(f, CenterSwitchFailure) for f in failures):
            return frozenset(), frozenset()
        dead = {f.ident for f in failures if isinstance(f, CableFailure)}
        dead |= {f.host for f in failures if isinstance(f, KeyExchangerFailure)}
        ok = {(a, b) for a, b in all_pairs if not (a in dead or b in dead)}
        return frozenset(ok), frozenset()

    if t.kind is TopologyKind.LCH:
        cut = {f.ident for f in failures if isinstance(f, CableFailure)}
        slot_hits: dict[int, set[int]] = {}
        for f in failures:
            if isinstance(f, KeyExchangerFailure):
                slot_hits.setdefault(f.host, set()).add(f.slot or 1)
        dead = {h for h, slots in slot_hits.items() if len(slots) >= 2}
        degraded = {h for h in slot_hits if h not in dead}
        ok = set()
        for lo, hi in all_pairs:
            if lo in dead or hi in dead:
                continue
            if any(lo <= seg < hi for seg in cut):
                continue
            ok.add((lo, hi))
        return frozenset(ok), frozenset(degraded)

    # fully connected variants
    dead_cables = {
        tuple(sorted(f.ident)) for f in failures if isinstance(f, CableFailure)
    }
    ok = {p for p in all_pairs if p not in dead_cables}
    if t.kind is TopologyKind.FCN_SINGLE:
        dead = {f.host for f in failures if isinstance(f, KeyExchangerFailure)}
        ok = {(a, b) for a, b in ok if not (a in dead or b in dead)}
    else:
        for f in failures:
            if isinstance(f, KeyExchangerFailure):
                # Slots map to the host's peers in ascending order.
                peer = f.slot + (f.slot >= f.host)
                ok.discard(tuple(sorted((f.host, peer))))
    return frozenset(ok), frozenset()


def apply_failures(
    t: NetworkTopology, failures: list[FailureScenario]
) -> ConnectivityReport:
    """Connectivity after removing the damaged components.

    Components are the connected components of the still-capable-pair
    graph; isolated hosts are its singleton components.
    """
    ok, degraded = capable_pairs(t, failures)
    adj: dict[int, set[int]] = {h: set() for h in t.hosts()}
    for a, b in ok:
        adj[a].add(b)
        adj[b].add(a)
    components = []
    seen: set[int] = set()
    for h in t.hosts():
        if h in seen:
            continue
        comp = {h}
        frontier = [h]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        components.append(frozenset(comp))
    isolated = frozenset(h for comp in components for h in comp if len(comp) == 1)
    return ConnectivityReport(
        reachable_pairs=ok,
        isolated_hosts=isolated,
        components=tuple(components),
        degraded_hosts=degraded,
    )


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
