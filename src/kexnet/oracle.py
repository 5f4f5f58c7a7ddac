"""Exact minimum step counts by exhaustive search, plus counting bounds.

Every model is the one rule of ``topology.parts_held``: each exchange holds
parts for its whole step (its two hosts under capacity 1, the segments it
crosses on the chain, its own cable in fcn-full) and the exchanges of a
step hold disjoint parts. The search deepens on the step count from
max(load of the busiest part, ceil(pairs / per_step)), per_step being the
parts over the fewest parts an exchange holds; it starts at n-1 or n for a
matching, floor(n^2/4) for the chain and 1 for fcn-full. Steps are branched
include-before-exclude in pair order, the smallest uncovered pair opening
each, on an explicit stack without recursion. Ceilings of n=20 (n=108 for
the chain) keep a call near 1 s."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .errors import InvalidSizeError, SearchTooLargeError
from .schedule import Schedule
from .topology import GEOMETRIES, TopologyKind, build_topology, parts_held, sbep_formula


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


def _steps(left: list[int], masks: list[int]):
    """Each step that ``left[0]`` opens, with the parts it holds, branching
    the rest of ``left`` include-before-exclude: take every later exchange
    whose parts are free, then drop the last one taken and fill after it."""
    chosen, held, pos = [0], masks[left[0]], 1
    while True:
        for k in range(pos, len(left)):
            if not held & masks[left[k]]:
                chosen.append(k)
                held |= masks[left[k]]
        yield [left[k] for k in chosen], held
        if len(chosen) == 1:
            return
        k = chosen.pop()
        held ^= masks[left[k]]
        pos = k + 1


def _cover(masks, load, per_step, depth):
    """First cover of every exchange in at most ``depth`` steps, or None.

    Each frame is an open step: the exchanges left before it, its step
    generator, and how many of them hold each part. A node is cut when the
    exchanges left need more steps than remain, as no part serves two
    exchanges of a step and no step holds over ``per_step`` exchanges.
    """
    left = list(range(len(masks)))
    frames, taken = [(left, _steps(left, masks), load)], []
    while frames:
        left, steps, load = frames[-1]
        del taken[len(frames) - 1 :]
        step = next(steps, None)
        if step is None:
            frames.pop()
            continue
        chosen, held = step
        taken.append(chosen)
        in_step = set(chosen)
        rest = [i for i in left if i not in in_step]
        if not rest:
            return taken
        load = [count - (held >> p & 1) for p, count in enumerate(load)]
        if max(max(load), -(-len(rest) // per_step)) <= depth - len(taken):
            frames.append((rest, _steps(rest, masks), load))
    return None


def _min_cover(masks: list[int]) -> tuple[int, list[list[int]]]:
    """Fewest steps covering every exchange, where exchange i holds the parts
    set in ``masks[i]`` and the exchanges of a step hold disjoint parts, with
    each step as exchange indices. The search deepens from ``_cover``'s bound
    on all exchanges; both bounds are sound, so the first witness is the one
    a search from depth 1 without cuts would find."""
    load = [sum(m >> p & 1 for m in masks) for p in range(reduce(or_, masks).bit_length())]
    per_step = sum(map(bool, load)) // min(m.bit_count() for m in masks)
    depth = max(max(load), -(-len(masks) // per_step))
    while (steps := _cover(masks, load, per_step, depth)) is None:
        depth += 1
    return depth, steps


def min_steps_bruteforce(kind: TopologyKind, n: int) -> OracleResult:
    """Exact minimum SBEP count for ``kind`` with a witness schedule: the
    fewest steps in which every pair exchanges once, the exchanges of one
    step holding disjoint parts (see ``topology.parts_held``).

    Exhaustive up to the kind's ``Geometry.ceiling``; larger sizes raise
    SearchTooLargeError, naming the bound operations to use instead.
    """
    if n < 2:
        raise InvalidSizeError(f"need at least 2 hosts, got {n}")
    g = GEOMETRIES[kind]
    if n > g.ceiling:
        raise SearchTooLargeError(
            f"exhaustive search capped at n={g.ceiling} for {kind.value}; "
            f"use {g.bound} instead"
        )
    topo = build_topology(kind, n)
    pairs = list(topo.pairs())
    count, steps = _min_cover([parts_held(kind, lo, hi) for lo, hi in pairs])
    witness = Schedule.from_pairs(topo, [[pairs[i] for i in step] for step in steps])
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
