"""Regression over the step-count table, topology comparison, and
structural failure analysis.

Failure analysis is purely structural: it answers which host pairs can
still complete an exchange after the damaged components are removed.
Timing of failures mid-run is handled by the simulation engine.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, product

from .errors import DegenerateFitError, InvalidScenarioError
# Not called here: perfbench's tracer wraps kexnet.analysis.generate_schedule by name.
from .protocols import generate_schedule
from .topology import (
    CostProfile,
    NetworkTopology,
    TopologyKind,
    build_topology,
    cost_profile,
    sbep_formula,
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


def _is_id(x, top: int) -> bool:
    # Ids are ints (type(x) is int, so not True or 2.0) in 1..top.
    return type(x) is int and 1 <= x <= top


def _host_pairs(n: int, h: int) -> Iterator[tuple[int, int]]:
    return chain(product(range(1, h), (h,)), product((h,), range(h + 1, n + 1)))


def stops(t: NetworkTopology, failures: Iterable[FailureScenario]) -> Iterator[Iterable]:
    """For each failure in turn, the (low, high) pairs it stops, lazily: all of
    them for the center; a host's for its spoke or only exchanger; those across
    a chain segment; one for a fully connected cable or fcn-full slot; and for
    a chain slot none, or the host's once its other slot is lost too. Raises
    InvalidScenarioError on reaching a failure of a component t does not have."""
    n, g, cap = t.n_hosts, t.geometry, t.exchangers_per_host
    lost_slots: set[tuple[int, int]] = set()
    for f in failures:
        if isinstance(f, CenterSwitchFailure):
            if not g.center_switch:
                raise InvalidScenarioError("only the star network has a center switch")
            yield t.pairs()
        elif isinstance(f, KeyExchangerFailure):
            h, slot = f.host, f.slot
            if not _is_id(h, n):
                raise InvalidScenarioError(f"no host {h} in a {n}-host network")
            if slot is not None and not _is_id(slot, cap):
                raise InvalidScenarioError(f"host {h} has {cap} exchanger(s), no slot {slot}")
            if g.exchanger_per_peer:
                if slot is None:
                    raise InvalidScenarioError("FCN_FULL exchanger failure needs a slot")
                # Slots map to the host's peers in ascending order.
                yield (tuple(sorted((h, slot + (slot >= h)))),)
            else:
                lost_slots.add((h, slot or 1))
                dead = all((h, s) in lost_slots for s in range(1, cap + 1))
                yield _host_pairs(n, h) if dead else ()
        elif not isinstance(f, CableFailure):
            raise InvalidScenarioError(f"unknown scenario {f!r}")
        elif g.cable == "spoke":
            if not _is_id(f.ident, n):
                raise InvalidScenarioError(f"no star spoke {f.ident!r}")
            yield _host_pairs(n, f.ident)
        elif g.cable == "segment":
            if not _is_id(f.ident, n - 1):
                raise InvalidScenarioError(f"no chain segment {f.ident!r}")
            yield product(range(1, f.ident + 1), range(f.ident + 1, n + 1))
        elif isinstance(f.ident, tuple) and len(f.ident) == 2 and (
            all(_is_id(h, n) for h in f.ident) and f.ident[0] != f.ident[1]
        ):
            yield (tuple(sorted(f.ident)),)
        else:
            raise InvalidScenarioError(
                f"fully connected cable is a host pair, got {f.ident!r}"
            )


def capable_pairs(
    t: NetworkTopology, failures: list[FailureScenario]
) -> tuple[frozenset[tuple[int, int]], frozenset[int]]:
    """((low, high) pairs that can still exchange, hosts with degraded capacity):
    the pairs no failure stops, and the hosts that lost some, not all, of the
    exchangers their peers share (a chain host, one slot of two). A center
    failure stops every pair, which are then not listed."""
    stopped = list(stops(t, failures))  # checks every failure
    center = any(isinstance(f, CenterSwitchFailure) for f in failures)
    ok = frozenset() if center else frozenset(t.pairs()).difference(*stopped)
    slots = {(f.host, f.slot or 1) for f in failures if isinstance(f, KeyExchangerFailure)}
    hosts = [] if t.geometry.exchanger_per_peer else [h for h, _ in slots]
    return ok, frozenset(h for h in hosts if hosts.count(h) < t.exchangers_per_host)


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


def compare_networks(n: int) -> list[ComparisonRow]:
    """Concrete counts, step count, and failure summary per kind, all read
    from its geometry record: no schedule is built, so the cost is O(1) in n.
    ``protocols.generate_schedule`` checks every schedule against the same
    step count."""
    rows = []
    for kind in TopologyKind:
        topo = build_topology(kind, n)
        g = topo.geometry
        spof = g.single_point_of_failure
        rows.append(ComparisonRow(kind, cost_profile(topo), g.steps(n), spof))
    return rows
