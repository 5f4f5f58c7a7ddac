"""Schedule generators for the four topologies.

The star generator works by neighbor distance: for distance d, the
exchanges (x, x+d mod N), initiator first, form gcd(N, d) disjoint
cycles, each a slice of one list of the hosts repeated. Each cycle is
split into two alternating matchings plus, for most distances, one
leftover "residual" edge per cycle. A matching is its sorted initiators:
every other host of the path the residual edge leaves. The largest
residual distances are paired into groups whose residual edges share one
step, enough to reach the closed-form count, and the schedule is built in
step order one group at a time, with no recursion. All generators are
deterministic.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter

from .errors import InvalidSizeError, ModelInconsistencyError, ProtocolConstructionError
from .schedule import Schedule
from .topology import GEOMETRIES, TopologyKind, build_topology, sbep_formula


def _raw_count(n: int, d: int) -> int:
    # Steps a single distance class takes before any cross-distance merging.
    if n % 2 == 0 and d == n // 2:
        return 1
    if d == 1 and n % 2 == 0:
        return 2
    return 3


def raw_distance_steps(n: int) -> list[tuple[int, int]]:
    """(distance, pre-merge step count) for every distance class of n hosts."""
    if n < 3:
        raise InvalidSizeError(f"distance classes need at least 3 hosts, got {n}")
    return [(d, _raw_count(n, d)) for d in range(1, n // 2 + 1)]


def merge_budget(n: int) -> int:
    """How many residual-step merges bring the raw total down to the formula."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    if n == 2:
        return 0
    budget = sum(c for _, c in raw_distance_steps(n)) - sbep_formula(n)
    if budget < 0:
        raise ModelInconsistencyError(
            f"raw distance rule undershoots the step formula at n={n}"
        )
    return budget


def _cycles(ring: list[int], n: int, d: int) -> list[list[int]]:
    """Each cycle of the +d step on hosts 1..n as its hosts h in traversal
    order, listed twice, so that edge k is (h[k], h[k+1]) and every run of
    edges is a slice. With m = n/gcd(n, d), cycle s = 1..gcd(n, d) is
    ``ring[s-1 : s-1 + d*m : d]``; ``ring`` is hosts 1..n, n//2 + 1 times over.
    """
    m = n // math.gcd(n, d)
    return [ring[s : s + d * m : d] * 2 for s in range(n // m)]


def _choose_disjoint_residuals(
    cycles: dict[int, list[list[int]]],
) -> dict[tuple[int, int], int] | None:
    """Pick one residual edge per cycle of every distance in ``cycles``, all
    host-disjoint.

    ``cycles`` maps each distance d to ``_cycles(ring, n, d)``. Depth-first
    over the cycles, shortest first, then by distance and cycle index;
    within a cycle the edge initiated by its largest host is tried first,
    so the unmerged canonical choice is kept whenever possible. Cycle s of
    the g = gcd(n, d) cycles holds the hosts congruent to s mod g, so its
    largest host is n-g+s. That host starts edge k of the cycle for
    k*(d/g) = m-1 (mod m), m = n/g: one anchor k for every cycle of the
    distance. A slot's edges are read off its host list when the search
    enters it. A stack of untried-edge iterators, not recursion, holds the
    search path, so any depth works. Returns {(d, cycle_index): k} or None.
    """
    slots = []
    for d, per_distance in cycles.items():
        g, m = len(per_distance), len(per_distance[0]) // 2
        anchor = (m - 1) * pow(d // g, -1, m) % m
        slots += [(m, d, ci, anchor) for ci in range(g)]
    slots.sort()

    def edge_order(slot):
        m, d, ci, k = slot
        h = cycles[d][ci]
        return zip(range(k, k + m), h[k : k + m], h[k + 1 : k + m + 1])

    picks: list[tuple[int, tuple[int, int]]] = []  # (index, edge) per slot entered
    used: set[int] = set()
    stack = [edge_order(slots[0])]
    while stack:
        for k, a, b in stack[-1]:
            if a not in used and b not in used:
                break
        else:  # no edge fits: retreat and free the previous slot's edge
            stack.pop()
            if picks:
                used.difference_update(picks.pop()[1])
            continue
        picks.append((k, (a, b)))
        used.update((a, b))
        if len(picks) == len(slots):
            return {(d, ci): k % m for (m, d, ci, _), (k, _) in zip(slots, picks)}
        stack.append(edge_order(slots[len(picks)]))
    return None


def _matching(ring: list[int], n: int, d: int, runs) -> list[tuple[int, int]]:
    """The exchanges (x, x+d mod n) of the initiators in ``runs`` (lists of
    hosts), in host order; ``ring[d-1+x]`` is host x+d mod n."""
    initiators = sorted(chain.from_iterable(runs))
    return list(zip(initiators, map(ring[d - 1 : d + n].__getitem__, initiators)))


def generate_star(n: int) -> Schedule:
    """Star-protocol schedule in sbep_formula(n) steps, built group by group.

    For even n, distance 1 gives two phases first and the opposite-host
    step comes last. Each residual group gives its first distance's two
    phases, the group's residual step and, for a merged pair, the second
    distance's two phases. The step count is not checked here, as for
    every generator: ``generate_schedule`` checks it.
    """
    topo = build_topology(TopologyKind.STAR, n)
    residual_distances = [d for d in range(1, n // 2 + 1) if _raw_count(n, d) == 3]
    unmerged = len(residual_distances) - 2 * merge_budget(n)
    if unmerged < 0:
        raise ProtocolConstructionError(f"not enough residual steps to merge at n={n}")
    # Merge partners are paired off from the largest distances downward.
    groups = [[d] for d in residual_distances[:unmerged]] + [
        residual_distances[i : i + 2]
        for i in range(unmerged, len(residual_distances), 2)
    ]

    ring = list(range(1, n + 1)) * (n // 2 + 1)
    steps: list[list[tuple[int, int]]] = []
    if n % 2 == 0 and n > 2:
        steps += [_matching(ring, n, 1, [ring[k:n:2]]) for k in (0, 1)]
    for group in groups:
        cycles = {d: _cycles(ring, n, d) for d in group}
        chosen = _choose_disjoint_residuals(cycles)
        if chosen is None:
            raise ProtocolConstructionError(
                f"no host-disjoint residual assignment for distances {group} at n={n}"
            )
        residual, phases = [], []
        for d, per_distance in cycles.items():
            m = len(per_distance[0]) // 2
            picks = [(h, chosen[d, ci]) for ci, h in enumerate(per_distance)]
            residual += [(h[r], h[r + 1]) for h, r in picks]
            for k in (1, 2):  # the path after residual edge r starts at h[r+1]
                phases.append(_matching(ring, n, d, [h[r + k : r + m : 2] for h, r in picks]))
        steps += phases[:2] + [sorted(residual)] + phases[2:]
    if n % 2 == 0:
        steps.append([(i, i + n // 2) for i in range(1, n // 2 + 1)])
    return Schedule.from_pairs(topo, steps)


def generate_fcn_full(n: int) -> Schedule:
    """All pairs in a single step; capacity N-1 makes every pair concurrent."""
    topo = build_topology(TopologyKind.FCN_FULL, n)
    return Schedule.from_pairs(topo, [topo.pairs()])


def generate_fcn_single(n: int) -> Schedule:
    """Round-robin by the circle method: n-1 steps for even n, n for odd n.

    Host n stays fixed while 1..n-1 rotate; for odd n a phantom seat makes
    one host sit out each round.
    """
    topo = build_topology(TopologyKind.FCN_SINGLE, n)
    m = n + n % 2  # seat m is a phantom when n is odd
    half, first = m // 2, n % 2
    seats = list(range(1, m + 1))
    steps = []
    for _ in range(m - 1):
        # Seat k faces seat m-1-k; seat 0 sits out when the fixed seat is a phantom.
        facing = zip(seats[first:half], seats[m - 1 - first : half - 1 : -1])
        pairs = [(x, y) if x < y else (y, x) for x, y in facing]
        steps.append(sorted(pairs, key=itemgetter(0)))
        seats[:-1] = seats[-2:-1] + seats[:-2]
    return Schedule.from_pairs(topo, steps)


def generate_lch(n: int) -> Schedule:
    """Chain schedule in n*n // 4 steps, built level by level.

    Level a, for a = 1..n//2, is the interval [a, b] with b = n+1-a. It
    gives the step (a, b) and, for each host c with a < c < b, the step
    (a, c), (c, b); both fill the level's segments end to end. Every pair
    lies in exactly one level, a = min(lo, n+1-hi), and level a holds
    n+1-2a steps. The steps are ordered by their longest exchange: longer
    span first, then lower low end. This is the schedule of the greedy
    that packs each step longest span first, then lowest low end, into
    interior-disjoint intervals. Its n*n // 4 steps meet the cut lower
    bound (``oracle.chain_cut_lower_bound``), so it is optimal.
    """
    topo = build_topology(TopologyKind.LCH, n)
    steps = []
    for a in range(1, n // 2 + 1):
        b = n + 1 - a
        steps.append([(a, b)])
        steps += [[(a, c), (c, b)] for c in range(a + 1, b)]
    steps.sort(key=lambda pairs: min((lo - hi, lo) for lo, hi in pairs))
    return Schedule.from_pairs(topo, steps)


_GENERATORS = {
    TopologyKind.STAR: generate_star,
    TopologyKind.FCN_FULL: generate_fcn_full,
    TopologyKind.FCN_SINGLE: generate_fcn_single,
    TopologyKind.LCH: generate_lch,
}


def generate_schedule(kind: TopologyKind, n: int) -> Schedule:
    """Dispatch to the generator for ``kind``. Raises ProtocolConstructionError
    unless the schedule has the ``steps(n)`` steps of the kind's geometry
    record, the count that ``compare`` prints."""
    schedule = _GENERATORS[kind](n)
    expected = GEOMETRIES[kind].steps(n)
    if len(schedule.steps) != expected:
        raise ProtocolConstructionError(
            f"{kind.value} construction produced {len(schedule.steps)} steps at n={n}, "
            f"expected {expected}"
        )
    return schedule
