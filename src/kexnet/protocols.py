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
from bisect import bisect_left, bisect_right

from .errors import InvalidSizeError, ModelInconsistencyError, ProtocolConstructionError
from .schedule import PairExchange, SbepStep, Schedule
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


def _cycles(n: int, d: int) -> list[list[int]]:
    """Vertex cycles of the +d step on hosts 1..n, traversal order."""
    out = []
    seen: set[int] = set()
    for start in range(1, math.gcd(n, d) + 1):
        if start in seen:
            continue
        cycle = []
        v = start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = (v - 1 + d) % n + 1
        out.append(cycle)
    return out


def _cycle_edges(cycle: list[int], n: int, d: int) -> list[PairExchange]:
    return [PairExchange(v, (v - 1 + d) % n + 1) for v in cycle]


def _choose_disjoint_residuals(
    n: int, distances: list[int]
) -> dict[tuple[int, int], PairExchange] | None:
    """Pick one residual edge per cycle of each distance, all host-disjoint.

    Backtracking over cycles; within a cycle the edge initiated by its
    largest host is tried first so the unmerged canonical choice is kept
    whenever possible. Returns {(distance, cycle_index): edge} or None.
    """
    slots: list[tuple[int, int, list[PairExchange]]] = []
    for d in distances:
        for ci, cycle in enumerate(_cycles(n, d)):
            edges = _cycle_edges(cycle, n, d)
            anchor = cycle.index(max(cycle))
            ordered = [edges[(anchor + k) % len(edges)] for k in range(len(edges))]
            slots.append((d, ci, ordered))
    # most-constrained cycles first keeps the backtracking shallow
    slots.sort(key=lambda s: (len(s[2]), s[0], s[1]))

    chosen: dict[tuple[int, int], PairExchange] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == len(slots):
            return True
        d, ci, ordered = slots[i]
        for e in ordered:
            if e.initiator in used or e.responder in used:
                continue
            chosen[(d, ci)] = e
            used.update((e.initiator, e.responder))
            if backtrack(i + 1):
                return True
            used.difference_update((e.initiator, e.responder))
            del chosen[(d, ci)]
        return False

    return chosen if backtrack(0) else None


def _decompose_distance(
    n: int, d: int, residuals: dict[int, PairExchange] | None
) -> tuple[list[PairExchange], list[PairExchange], list[PairExchange]]:
    """Split one distance class into matchings A, B and a residual edge set.

    ``residuals`` maps cycle index to the edge held out of that cycle; None
    means no residual (the class fits in two alternating matchings).
    """
    phase_a: list[PairExchange] = []
    phase_b: list[PairExchange] = []
    residual: list[PairExchange] = []
    for ci, cycle in enumerate(_cycles(n, d)):
        edges = _cycle_edges(cycle, n, d)
        length = len(edges)
        if residuals is None:
            path = edges
        else:
            r = edges.index(residuals[ci])
            residual.append(edges[r])
            path = [edges[(r + 1 + k) % length] for k in range(length - 1)]
        for k, e in enumerate(path):
            (phase_a if k % 2 == 0 else phase_b).append(e)
    return phase_a, phase_b, residual


def generate_star(n: int) -> Schedule:
    """Star-protocol schedule: ascending distance, two phases plus residual,
    residual steps merged across distances down to sbep_formula(n) steps.
    """
    topo = build_topology(TopologyKind.STAR, n)
    if n == 2:
        return Schedule(topo, (SbepStep(1, (PairExchange(1, 2),)),))

    budget = merge_budget(n)
    residual_distances = [d for d, c in raw_distance_steps(n) if c == 3]
    # Merge partners are paired off from the largest distances downward.
    merged_with: dict[int, int] = {}  # low distance -> high distance
    merged_into: dict[int, int] = {}  # high distance -> low distance
    i = len(residual_distances)
    for _ in range(budget):
        if i < 2:
            raise ProtocolConstructionError(
                f"not enough residual steps to merge at n={n}"
            )
        lo, hi = residual_distances[i - 2], residual_distances[i - 1]
        merged_with[lo] = hi
        merged_into[hi] = lo
        i -= 2

    # Residual edge per cycle, per distance.
    residual_edges: dict[int, dict[int, PairExchange]] = {}
    for d in residual_distances:
        if d in merged_into:
            continue  # chosen together with its low partner
        group = [d, merged_with[d]] if d in merged_with else [d]
        chosen = _choose_disjoint_residuals(n, group)
        if chosen is None:
            raise ProtocolConstructionError(
                f"no host-disjoint residual assignment for distances {group} at n={n}"
            )
        for (dd, ci), e in chosen.items():
            residual_edges.setdefault(dd, {})[ci] = e

    steps: list[tuple[PairExchange, ...]] = []
    residual_slot: dict[int, int] = {}
    for d in range(1, n // 2 + 1):
        count = _raw_count(n, d)
        if count == 1:
            half = sorted(PairExchange(i, i + n // 2) for i in range(1, n // 2 + 1))
            steps.append(tuple(half))
            continue
        holdout = residual_edges.get(d) if count == 3 else None
        phase_a, phase_b, residual = _decompose_distance(n, d, holdout)
        steps.append(tuple(sorted(phase_a)))
        steps.append(tuple(sorted(phase_b)))
        if count == 3:
            if d in merged_into:
                slot = residual_slot[merged_into[d]]
                steps[slot] = tuple(sorted(steps[slot] + tuple(residual)))
            else:
                residual_slot[d] = len(steps)
                steps.append(tuple(sorted(residual)))

    if len(steps) != sbep_formula(n):
        raise ProtocolConstructionError(
            f"star construction produced {len(steps)} steps at n={n}, "
            f"expected {sbep_formula(n)}",
            achieved_steps=len(steps),
        )
    return Schedule(
        topo, tuple(SbepStep(i + 1, ex) for i, ex in enumerate(steps))
    )


def generate_fcn_full(n: int) -> Schedule:
    """All pairs in a single step; capacity N-1 makes every pair concurrent."""
    topo = build_topology(TopologyKind.FCN_FULL, n)
    exchanges = tuple(
        PairExchange(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
    )
    return Schedule(topo, (SbepStep(1, exchanges),))


def generate_fcn_single(n: int) -> Schedule:
    """Round-robin by the circle method: n-1 steps for even n, n for odd n.

    Host n stays fixed while 1..n-1 rotate; for odd n a phantom seat makes
    one host sit out each round.
    """
    topo = build_topology(TopologyKind.FCN_SINGLE, n)
    if n == 2:
        return Schedule(topo, (SbepStep(1, (PairExchange(1, 2),)),))
    m = n if n % 2 == 0 else n + 1  # seat m is a phantom when n is odd
    ring = list(range(1, m))
    steps = []
    for r in range(m - 1):
        pairs = []
        if m == n:
            pairs.append((min(ring[0], m), max(ring[0], m)))
        for k in range(1, m // 2):
            x, y = ring[k], ring[m - 1 - k]
            pairs.append((min(x, y), max(x, y)))
        exchanges = tuple(PairExchange(a, b) for a, b in sorted(pairs))
        steps.append(SbepStep(r + 1, exchanges))
        ring = ring[-1:] + ring[:-1]
    return Schedule(topo, tuple(steps))


def _pack_chain_step(
    lows: list[tuple[int, list[int]]], full: int
) -> list[tuple[int, int]]:
    """Pack one chain step, longest span first, then by low end; packed
    pairs are removed from ``lows``.

    ``lows`` pairs each span length (longest first) with the ascending low
    ends of the pairs still waiting. Bit k of ``used`` is the segment
    between hosts k and k+1, so a candidate fits iff its window of bits
    misses ``used``. Every candidate whose window reaches into an occupied
    run is skipped with one bisect, and the step ends once ``used == full``.
    """
    used = 0
    packed = []
    for span, los in lows:
        ones = (1 << span) - 1
        i = 0
        while i < len(los):
            lo = los[i]
            blocked = used & (ones << lo)
            if blocked:
                # A window starting at or below ``top`` still covers it, and
                # one starting higher in the same occupied run starts on a
                # used segment: skip to the first low end above that run.
                top = blocked.bit_length() - 1
                above = used >> (top + 1)
                run_top = top + (above ^ (above + 1)).bit_length() - 1
                i = bisect_right(los, run_top, i)
                continue
            used |= ones << lo
            packed.append((lo, lo + span))
            del los[i]
            if used == full:
                return packed
            i = bisect_left(los, lo + span, i)
    return packed


def generate_lch(n: int) -> Schedule:
    """Chain schedule by greedy longest-span-first packing.

    Each step packs remaining pairs, longest wire span first, subject to
    interior-disjoint intervals. The result has n*n // 4 steps, which is
    the cut lower bound (``oracle.chain_cut_lower_bound``), so it is optimal.
    """
    topo = build_topology(TopologyKind.LCH, n)
    lows = [(span, list(range(1, n - span + 1))) for span in range(n - 1, 0, -1)]
    full = ((1 << (n - 1)) - 1) << 1
    steps = []
    while lows:
        packed = _pack_chain_step(lows, full)
        lows = [(span, los) for span, los in lows if los]
        exchanges = tuple(PairExchange(a, b) for a, b in sorted(packed))
        steps.append(SbepStep(len(steps) + 1, exchanges))
    return Schedule(topo, tuple(steps))


_GENERATORS = {
    TopologyKind.STAR: generate_star,
    TopologyKind.FCN_FULL: generate_fcn_full,
    TopologyKind.FCN_SINGLE: generate_fcn_single,
    TopologyKind.LCH: generate_lch,
}


def generate_schedule(kind: TopologyKind, n: int) -> Schedule:
    """Dispatch to the generator for ``kind``."""
    return _GENERATORS[kind](n)
