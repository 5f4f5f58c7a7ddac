"""Network geometries, hardware inventories, and asymptotic cost classes.

Hosts are numbered 1..N. The four supported geometries differ in how many
key exchangers each host carries and whether a center switch is present:

* FCN_FULL   -- fully connected, N-1 exchangers per host
* FCN_SINGLE -- fully connected, 1 exchanger per host
* LCH        -- linear chain (bus), 2 exchangers per host
* STAR       -- hub and spoke, 1 exchanger per host plus a center switch

Each kind's facts are one record in ``GEOMETRIES``; its generator is in
``protocols``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, repeat
from typing import NamedTuple

from .errors import InvalidSizeError


class TopologyKind(str, Enum):
    FCN_FULL = "fcn-full"
    FCN_SINGLE = "fcn1"
    LCH = "lch"
    STAR = "star"


class ComplexityClass(str, Enum):
    O1 = "O(1)"
    ON = "O(N)"
    ON2 = "O(N^2)"


class CostMetric(str, Enum):
    CABLE = "cable"
    KE = "ke"
    TIME = "time"


def sbep_formula(n: int) -> int:
    """Number of SBEP steps the star protocol needs for n hosts."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    quarter = -(-n // 4)  # ceil(n / 4) in ints: a float loses n past 2**53
    if n <= 8:
        return n + quarter - (2 if n % 2 == 0 else 1)
    return n + quarter - (1 if n % 2 == 0 else 0)


class Geometry(NamedTuple):
    """Every fact of one kind of network but its generator."""

    exchangers: Callable[[int], int]  # per host, of the host count n
    cables: Callable[[int], int]  # of n
    steps: Callable[[int], int]  # SBEP steps of n hosts, which generate_schedule checks
    center_switch: bool
    classes: tuple[ComplexityClass, ...]  # growth of cable, ke and time
    single_point_of_failure: str
    cable: str  # it joins a host to the center ("spoke"), k to k+1 ("segment") or a "pair"
    exchanger_per_peer: bool  # each serves one peer (slot order), else all serve every peer
    part: str  # what an exchange holds for its step: the rule of parts_held
    ceiling: int  # the largest n the oracle searches
    bound: str  # what the oracle's refusal past the ceiling says to use


_O1, _ON, _ON2 = ComplexityClass
_MATCHING = "chromatic_index_lower_bound / overhead_table"
_ONE_PAIR = "none (single cable loss affects one pair)"

GEOMETRIES: dict[TopologyKind, Geometry] = {
    TopologyKind.FCN_FULL: Geometry(
        exchangers=lambda n: n - 1, cables=lambda n: n * (n - 1) // 2, steps=lambda n: 1,
        center_switch=False, classes=(_ON2, _ON2, _O1),
        single_point_of_failure=_ONE_PAIR, cable="pair",
        exchanger_per_peer=True, part="cable", ceiling=20, bound=_MATCHING,
    ),
    TopologyKind.FCN_SINGLE: Geometry(
        exchangers=lambda n: 1, cables=lambda n: n * (n - 1) // 2,
        steps=lambda n: n - 1 + n % 2, center_switch=False, classes=(_ON2, _ON, _ON),
        single_point_of_failure=_ONE_PAIR, cable="pair",
        exchanger_per_peer=False, part="hosts", ceiling=20, bound=_MATCHING,
    ),
    TopologyKind.LCH: Geometry(
        exchangers=lambda n: 2, cables=lambda n: n - 1, steps=lambda n: n * n // 4,
        center_switch=False, classes=(_ON, _ON, _ON2),
        single_point_of_failure="any cable segment splits the network in two",
        cable="segment", exchanger_per_peer=False, part="segments",
        ceiling=108, bound="chain_cut_lower_bound",
    ),
    TopologyKind.STAR: Geometry(
        exchangers=lambda n: 1, cables=lambda n: n, steps=sbep_formula,
        center_switch=True, classes=(_ON, _ON, _ON),
        single_point_of_failure="center switch disconnects the entire network",
        cable="spoke", exchanger_per_peer=False, part="hosts", ceiling=20, bound=_MATCHING,
    ),
}


@dataclass(frozen=True)
class NetworkTopology:
    """A concrete network: geometry kind plus host count, from which the
    exchangers per host and the center switch follow. Use
    :func:`build_topology` to construct."""

    kind: TopologyKind
    n_hosts: int

    @property
    def geometry(self) -> Geometry:
        return GEOMETRIES[self.kind]

    @property
    def exchangers_per_host(self) -> int:
        return self.geometry.exchangers(self.n_hosts)

    @property
    def has_center_switch(self) -> bool:
        return self.geometry.center_switch

    def hosts(self) -> range:
        """1-based host indices."""
        return range(1, self.n_hosts + 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Every unordered host pair as (low, high), in ascending order.

        Lazy: it holds the n hosts, never all the pairs."""
        return combinations(self.hosts(), 2)

    def pairs_by_host(self) -> Iterator[tuple[int, int]]:
        """The pairs of pairs(), in the same order, holding one host's
        partners at a time rather than all n hosts: for a walk that may stop
        after a few pairs of a large network."""
        n = self.n_hosts
        return chain.from_iterable(zip(repeat(a), range(a + 1, n + 1)) for a in self.hosts())


@dataclass(frozen=True)
class CostProfile:
    """Concrete hardware counts and asymptotic classes for one topology."""

    cable_count: int
    exchanger_count: int
    center_switch_count: int
    class_cable: ComplexityClass
    class_ke: ComplexityClass
    class_time: ComplexityClass


def build_topology(kind: TopologyKind, n: int) -> NetworkTopology:
    """Build a topology of ``kind`` with ``n`` hosts.

    Raises InvalidSizeError for n < 2.
    """
    if n < 2:
        raise InvalidSizeError(f"a network needs at least 2 hosts, got {n}")
    return NetworkTopology(kind, n)


def cost_profile(t: NetworkTopology) -> CostProfile:
    """Cable, exchanger, and center-switch counts with their growth classes."""
    g, n = t.geometry, t.n_hosts
    return CostProfile(g.cables(n), n * g.exchangers(n), int(g.center_switch), *g.classes)


def complexity_class(kind: TopologyKind, metric: CostMetric | str) -> ComplexityClass:
    """Asymptotic class of a cost metric for a topology kind."""
    return dict(zip(CostMetric, GEOMETRIES[kind].classes))[CostMetric(metric)]


def parts_held(kind: TopologyKind, lo: int, hi: int) -> int:
    """The parts an exchange between hosts lo < hi holds for its step, which
    no other exchange of the step may hold, as bits: the chain segments it
    crosses (bit k joins hosts k and k+1), its own fcn-full cable (numbered
    by high host, then low), or its two hosts."""
    part = GEOMETRIES[kind].part
    if part == "segments":
        return (1 << hi) - (1 << lo)
    if part == "cable":
        return 1 << (hi - 1) * (hi - 2) // 2 + lo - 1
    return 1 << lo | 1 << hi
