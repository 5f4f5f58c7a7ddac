"""Network geometries, hardware inventories, and asymptotic cost classes.

Hosts are numbered 1..N. The four supported geometries differ in how many
key exchangers each host carries and whether a center switch is present:

* FCN_FULL   -- fully connected, N-1 exchangers per host
* FCN_SINGLE -- fully connected, 1 exchanger per host
* LCH        -- linear chain (bus), 2 exchangers per host
* STAR       -- hub and spoke, 1 exchanger per host plus a center switch
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain, combinations, compress, count, islice, repeat
from operator import add, eq, ne, or_

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


# Asymptotic growth of cable count, exchanger count, and full-exchange time.
_COMPLEXITY: dict[TopologyKind, dict[CostMetric, ComplexityClass]] = {
    TopologyKind.FCN_FULL: {
        CostMetric.CABLE: ComplexityClass.ON2,
        CostMetric.KE: ComplexityClass.ON2,
        CostMetric.TIME: ComplexityClass.O1,
    },
    TopologyKind.FCN_SINGLE: {
        CostMetric.CABLE: ComplexityClass.ON2,
        CostMetric.KE: ComplexityClass.ON,
        CostMetric.TIME: ComplexityClass.ON,
    },
    TopologyKind.LCH: {
        CostMetric.CABLE: ComplexityClass.ON,
        CostMetric.KE: ComplexityClass.ON,
        CostMetric.TIME: ComplexityClass.ON2,
    },
    TopologyKind.STAR: {
        CostMetric.CABLE: ComplexityClass.ON,
        CostMetric.KE: ComplexityClass.ON,
        CostMetric.TIME: ComplexityClass.ON,
    },
}


@dataclass(frozen=True)
class NetworkTopology:
    """A concrete network: geometry kind plus host count, from which the
    exchangers per host and the center switch follow. Use
    :func:`build_topology` to construct."""

    kind: TopologyKind
    n_hosts: int

    @property
    def exchangers_per_host(self) -> int:
        if self.kind is TopologyKind.FCN_FULL:
            return self.n_hosts - 1
        return 2 if self.kind is TopologyKind.LCH else 1

    @property
    def has_center_switch(self) -> bool:
        return self.kind is TopologyKind.STAR

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
    """Cable, exchanger, and center-switch counts with their growth classes.

    Both fully connected variants need N(N-1)/2 cables; the chain needs one
    cable per segment and the star one spoke per host (the center switch is
    counted separately).
    """
    n = t.n_hosts
    if t.kind in (TopologyKind.FCN_FULL, TopologyKind.FCN_SINGLE):
        cables = n * (n - 1) // 2
    else:
        cables = n - 1 if t.kind is TopologyKind.LCH else n
    return CostProfile(
        cable_count=cables,
        exchanger_count=n * t.exchangers_per_host,
        center_switch_count=int(t.has_center_switch),
        class_cable=complexity_class(t.kind, CostMetric.CABLE),
        class_ke=complexity_class(t.kind, CostMetric.KE),
        class_time=complexity_class(t.kind, CostMetric.TIME),
    )


def complexity_class(kind: TopologyKind, metric: CostMetric | str) -> ComplexityClass:
    """Asymptotic class of a cost metric for a topology kind."""
    return _COMPLEXITY[kind][CostMetric(metric)]


def parts_held(kind: TopologyKind, lo: int, hi: int) -> int:
    """The parts an exchange between hosts lo < hi holds for its step, which
    no other exchange of the step may hold, as bits: the chain segments it
    crosses (bit k joins hosts k and k+1), its own fcn-full cable (numbered
    by high host, then low), or its two hosts."""
    if kind is TopologyKind.LCH:
        return (1 << hi) - (1 << lo)
    if kind is TopologyKind.FCN_FULL:
        return 1 << (hi - 1) * (hi - 2) // 2 + lo - 1
    return 1 << lo | 1 << hi


def part_held_twice(
    kind: TopologyKind, spans: list, lows: list[int], highs: list[int], sizes: list[int]
) -> set[int]:
    """The positions (from 0) of the steps that hold a part twice or have a
    self-pair, each step a run of ``sizes[p]`` spans (lo, hi), lo <= hi, of
    hosts 1..n, all steps in turn, given with their lows and highs. Each
    test is a pass over every span, or one C call per step: a set of a
    step's hosts or pairs stands in for host or cable bits, which for a
    cable lie up to n^2/2 places up, and a chain step's parts_held masks are
    disjoint when their sum is their union."""
    if kind is TopologyKind.LCH:
        masks = list(map(parts_held, repeat(kind), lows, highs))
        union = map(reduce, repeat(or_), _runs(masks, sizes), repeat(0))
        twice = map(ne, map(sum, _runs(masks, sizes)), union)
    elif kind is TopologyKind.FCN_FULL:
        twice = map(ne, map(len, map(set, _runs(spans, sizes))), sizes)
    else:  # one host twice, as in a self-pair
        hosts = map(chain, _runs(lows, sizes), _runs(highs, sizes))
        return set(compress(count(), map(ne, map(len, map(set, hosts)), map(add, sizes, sizes))))
    out = set(compress(count(), twice))
    if not all(map(ne, lows, highs)):
        steps = chain.from_iterable(map(repeat, count(), sizes))
        out.update(compress(steps, map(eq, lows, highs)))
    return out


def _runs(items: list, sizes: list[int]) -> Iterator:
    """The items in consecutive runs of the given sizes, each to be read
    through before the next."""
    return map(islice, repeat(iter(items)), sizes)
