"""Exact minimum step counts by exhaustive search, plus counting bounds.

The search is iterative deepening on the step count, starting from a
counting lower bound: the matching bound for capacity-1 hosts, the cut
bound floor(n^2/4) for the chain.
Within a step, candidate exchanges are branched in canonical pair order
and the globally smallest uncovered pair is forced into the current step,
which breaks step-permutation symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidSizeError, SearchTooLargeError
from .protocols import sbep_formula
from .schedule import PairExchange, SbepStep, Schedule
from .topology import TopologyKind, build_topology

EXHAUSTIVE_CEILING = 8
LCH_CEILING = 8


@dataclass(frozen=True)
class OracleResult:
    n: int
    constraint_model: TopologyKind
    min_steps: int
    witness: Schedule


def chromatic_index_lower_bound(n: int) -> int:
    """Minimum matchings covering all pairs of n hosts under capacity 1:
    n-1 for even n, n for odd n."""
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    return n - 1 if n % 2 == 0 else n


def chain_cut_lower_bound(n: int) -> int:
    """Minimum steps of any chain schedule for n hosts: floor(n^2 / 4).

    Segment k (between hosts k and k+1) lies inside the spans of k(n-k)
    pairs, and a step can use a segment for at most one exchange; the
    middle segment gives the bound.
    """
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    return n * n // 4


def _compatible_matching(step: list[tuple[int, int]], cand: tuple[int, int]) -> bool:
    a, b = cand
    return all(a != x and a != y and b != x and b != y for x, y in step)


def _compatible_interval(step: list[tuple[int, int]], cand: tuple[int, int]) -> bool:
    lo, hi = cand
    return all(hi <= x or lo >= y for x, y in step)


def _chain_steps_needed(n: int, remaining: list[tuple[int, int]]) -> int:
    """Most remaining pairs crossing one chain segment: each step carries at
    most one exchange over a segment, so no fewer steps can cover them."""
    load = [0] * n
    for lo, hi in remaining:
        for seg in range(lo, hi):
            load[seg] += 1
    return max(load)


def _search_min_cover(pairs, compatible, start, steps_needed):
    """Smallest number of steps covering ``pairs``; returns (count, steps).

    The search deepens from ``start``, a proven lower bound on the count.
    ``steps_needed(remaining)`` is a lower bound on the steps any cover of
    ``remaining`` takes; a node whose bound exceeds its steps left is cut.
    Both bounds are sound, so the first witness found is the one a search
    from depth 1 without cuts would find.
    """

    def extend(step, cand, remaining, steps_left, acc):
        if not cand:
            rest = [p for p in remaining if p not in step]
            return cover(rest, steps_left - 1, acc + [sorted(step)])
        head, tail = cand[0], cand[1:]
        if compatible(step, head):
            step.append(head)
            found = extend(step, tail, remaining, steps_left, acc)
            step.pop()
            if found is not None:
                return found
        return extend(step, tail, remaining, steps_left, acc)

    def cover(remaining, steps_left, acc):
        if not remaining:
            return acc
        if steps_needed(remaining) > steps_left:
            return None
        # WLOG the smallest remaining pair opens the current step.
        first, rest = remaining[0], remaining[1:]
        return extend([first], tuple(rest), remaining, steps_left, acc)

    depth = start
    while True:
        found = cover(list(pairs), depth, [])
        if found is not None:
            return depth, found
        depth += 1


def min_steps_bruteforce(kind: TopologyKind, n: int) -> OracleResult:
    """Exact minimum SBEP count for ``kind`` with a witness schedule.

    Exhaustive up to n=8 for every model; larger sizes raise
    SearchTooLargeError and should use the bound operations instead.
    """
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    if kind is TopologyKind.LCH:
        ceiling, instead = LCH_CEILING, "chain_cut_lower_bound"
    else:
        ceiling, instead = EXHAUSTIVE_CEILING, "chromatic_index_lower_bound / overhead_table"
    if n > ceiling:
        raise SearchTooLargeError(
            f"exhaustive search capped at n={ceiling} for {kind.value}; "
            f"use {instead} instead"
        )
    topo = build_topology(kind, n)
    pairs = sorted(combinations(range(1, n + 1), 2))

    if kind is TopologyKind.FCN_FULL:
        count, steps = 1, [pairs]
    elif kind is TopologyKind.LCH:
        count, steps = _search_min_cover(
            pairs,
            _compatible_interval,
            start=chain_cut_lower_bound(n),
            steps_needed=lambda rest: _chain_steps_needed(n, rest),
        )
    else:
        count, steps = _search_min_cover(
            pairs,
            _compatible_matching,
            start=chromatic_index_lower_bound(n),
            steps_needed=lambda rest: math.ceil(len(rest) / (n // 2)),
        )

    witness = Schedule(
        topo,
        tuple(
            SbepStep(i + 1, tuple(PairExchange(a, b) for a, b in step))
            for i, step in enumerate(steps)
        ),
    )
    return OracleResult(n=n, constraint_model=kind, min_steps=count, witness=witness)


def overhead_table(n_range) -> list[tuple[int, int, int, int]]:
    """(n, protocol steps, matching lower bound, overhead) per n in range."""
    rows = []
    for n in n_range:
        if not 2 <= n <= 50:
            raise InvalidSizeError(f"overhead table covers n in [2, 50], got {n}")
        steps = sbep_formula(n)
        bound = chromatic_index_lower_bound(n)
        rows.append((n, steps, bound, steps - bound))
    return rows
