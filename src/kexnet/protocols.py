"""Schedule generators for the four topologies and the SBEP count formula.

The star generator works distance class by distance class: for neighbor
distance d, the exchanges {i, i+d mod N} form gcd(N, d) disjoint cycles.
Each cycle is split into two alternating matchings plus, for most
distances, one leftover "residual" edge per cycle; residual steps from
different distances are then merged pairwise (when their hosts are
disjoint) until the total step count matches the closed-form formula.
All generators are deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import InvalidSizeError, ModelInconsistencyError, ProtocolConstructionError
from .schedule import Schedule
from .topology import TopologyKind, build_topology


def sbep_formula(n: int) -> int:
    """Number of SBEP steps the star protocol needs for n hosts."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    quarter = math.ceil(n / 4)
    if n <= 8:
        return n + quarter - (2 if n % 2 == 0 else 1)
    return n + quarter - (1 if n % 2 == 0 else 0)


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


def _cycles(n: int, d: int) -> list[list[tuple[int, int]]]:
    """Edges (v, v+d mod n) of each cycle of the +d step on hosts 1..n.

    Cycle s starts at host s, for s = 1..gcd(n, d), and lists its edges
    in traversal order.
    """
    g = math.gcd(n, d)
    cycles = []
    for s in range(1, g + 1):
        hosts = [(s - 1 + k * d) % n + 1 for k in range(n // g)]
        cycles.append([(v, (v - 1 + d) % n + 1) for v in hosts])
    return cycles


def _choose_disjoint_residuals(
    cycles: dict[int, list[list[tuple[int, int]]]], group: list[int]
) -> dict[tuple[int, int], int] | None:
    """Pick one residual edge per cycle of each distance in ``group``, all
    host-disjoint.

    Backtracking over cycles; within a cycle the edge initiated by its
    largest host is tried first so the unmerged canonical choice is kept
    whenever possible. Returns {(distance, cycle_index): edge_index} or None.
    """
    slots = []
    for d in group:
        for ci, edges in enumerate(cycles[d]):
            length = len(edges)
            anchor = max(range(length), key=lambda k: edges[k][0])
            order = [(anchor + k) % length for k in range(length)]
            slots.append((length, d, ci, order))
    # most-constrained cycles first keeps the backtracking shallow
    slots.sort(key=lambda slot: slot[:3])

    chosen: dict[tuple[int, int], int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == len(slots):
            return True
        _, d, ci, order = slots[i]
        for k in order:
            a, b = cycles[d][ci][k]
            if a in used or b in used:
                continue
            chosen[d, ci] = k
            used.update((a, b))
            if backtrack(i + 1):
                return True
            used.difference_update((a, b))
        return False

    return chosen if backtrack(0) else None


def generate_star(n: int) -> Schedule:
    """Star-protocol schedule: ascending distance, two phases plus residual,
    residual steps merged across distances down to sbep_formula(n) steps.
    """
    topo = build_topology(TopologyKind.STAR, n)
    counts = {d: _raw_count(n, d) for d in range(1, n // 2 + 1)}
    cycles = {d: _cycles(n, d) for d, c in counts.items() if c > 1}

    residual_distances = [d for d, c in counts.items() if c == 3]
    unmerged = len(residual_distances) - 2 * merge_budget(n)
    if unmerged < 0:
        raise ProtocolConstructionError(f"not enough residual steps to merge at n={n}")
    # Merge partners are paired off from the largest distances downward.
    groups = [[d] for d in residual_distances[:unmerged]] + [
        residual_distances[i : i + 2]
        for i in range(unmerged, len(residual_distances), 2)
    ]
    residuals: dict[tuple[int, int], int] = {}
    lead: dict[int, int] = {}  # distance -> the first distance of its group
    for group in groups:
        chosen = _choose_disjoint_residuals(cycles, group)
        if chosen is None:
            raise ProtocolConstructionError(
                f"no host-disjoint residual assignment for distances {group} at n={n}"
            )
        residuals.update(chosen)
        lead.update((d, group[0]) for d in group)

    steps: list[list[tuple[int, int]]] = []
    residual_slot: dict[int, int] = {}
    for d, count in counts.items():
        if count == 1:
            steps.append([(i, i + n // 2) for i in range(1, n // 2 + 1)])
            continue
        phase_a, phase_b, residual = [], [], []
        for ci, edges in enumerate(cycles[d]):
            if count == 3:
                r = residuals[d, ci]
                residual.append(edges[r])
                edges = edges[r + 1 :] + edges[:r]
            phase_a += edges[0::2]
            phase_b += edges[1::2]
        steps += [sorted(phase_a), sorted(phase_b)]
        if count == 3:
            if lead[d] == d:
                residual_slot[d] = len(steps)
                steps.append(sorted(residual))
            else:
                slot = residual_slot[lead[d]]
                steps[slot] = sorted(steps[slot] + residual)

    if len(steps) != sbep_formula(n):
        raise ProtocolConstructionError(
            f"star construction produced {len(steps)} steps at n={n}, "
            f"expected {sbep_formula(n)}",
            achieved_steps=len(steps),
        )
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
    m = n if n % 2 == 0 else n + 1  # seat m is a phantom when n is odd
    ring = list(range(1, m))
    steps = []
    for _ in range(m - 1):
        pairs = []
        if m == n:
            pairs.append((min(ring[0], m), max(ring[0], m)))
        for k in range(1, m // 2):
            x, y = ring[k], ring[m - 1 - k]
            pairs.append((min(x, y), max(x, y)))
        steps.append(sorted(pairs))
        ring = ring[-1:] + ring[:-1]
    return Schedule.from_pairs(topo, steps)


def _pack_chain_step(lows: list[list[int]], n: int) -> list[tuple[int, int]]:
    """Pack one chain step, longest span first, then by low end; packed
    pairs are removed from ``lows``.

    ``lows[span]`` holds the ascending low ends of the waiting pairs of
    that span, for every span up to the longest one still waiting. Segment
    k lies between hosts k and k+1. An exchange holds only the segments it
    crosses, so it splits the run of free segments it lies in into two,
    and no pair fits in both: what one run takes never changes what fits
    in the other. So each run takes the longest waiting span that fits
    inside it, at its lowest low end, and the two runs left beside that
    exchange are packed the same way; this is the step-wide greedy, run by
    run.
    """
    packed, runs = [], [(1, n - 1)]
    while runs:
        a, b = runs.pop()
        for span in range(min(b - a + 1, len(lows) - 1), 0, -1):
            los = lows[span]
            i = bisect_left(los, a)
            if i < len(los) and los[i] + span - 1 <= b:
                lo = los.pop(i)
                packed.append((lo, lo + span))
                runs += [(a, lo - 1), (lo + span, b)]
                break
    return packed


def generate_lch(n: int) -> Schedule:
    """Chain schedule by greedy longest-span-first packing.

    Each step packs remaining pairs, longest wire span first, subject to
    interior-disjoint intervals. The result has n*n // 4 steps, which is
    the cut lower bound (``oracle.chain_cut_lower_bound``), so it is optimal.
    """
    topo = build_topology(TopologyKind.LCH, n)
    # No pair has span 0, so trimming empty tails leaves no list at the end.
    lows = [[]] + [list(range(1, n - span + 1)) for span in range(1, n)]
    steps = []
    while lows:
        steps.append(sorted(_pack_chain_step(lows, n)))
        while lows and not lows[-1]:
            lows.pop()
    return Schedule.from_pairs(topo, steps)


_GENERATORS = {
    TopologyKind.STAR: generate_star,
    TopologyKind.FCN_FULL: generate_fcn_full,
    TopologyKind.FCN_SINGLE: generate_fcn_single,
    TopologyKind.LCH: generate_lch,
}


def generate_schedule(kind: TopologyKind, n: int) -> Schedule:
    """Dispatch to the generator for ``kind``."""
    return _GENERATORS[kind](n)
