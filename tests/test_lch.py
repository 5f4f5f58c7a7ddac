"""Chain (LCH) schedules: the level construction against the two greedy
packers it replaced, the frozen schedule digests and CLI outputs, and the
cut lower bound."""

import hashlib
import pathlib
from bisect import bisect_left
from itertools import accumulate, chain

import pytest
from hypothesis import given, settings, strategies as st

from kexnet.cli import main
from kexnet.errors import InvalidSizeError
from kexnet.oracle import chain_cut_lower_bound, min_steps_bruteforce
from kexnet.protocols import generate_lch
from kexnet.schedule import SbepStep, Schedule, validate_schedule
from kexnet.serialize import schedule_to_text
from kexnet.topology import TopologyKind, build_topology

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _reference_lch(n: int) -> Schedule:
    """The original O(n^5) longest-span-first greedy, kept as the reference.

    Each step packs remaining pairs, longest wire span first, subject to
    interior-disjoint intervals.
    """
    topo = build_topology(TopologyKind.LCH, n)
    remaining = sorted(
        ((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)),
        key=lambda p: (-(p[1] - p[0]), p[0]),
    )
    steps = []
    while remaining:
        packed: list[tuple[int, int]] = []
        for lo, hi in remaining:
            if all(hi <= a or lo >= b for a, b in packed):
                packed.append((lo, hi))
        remaining = [p for p in remaining if p not in packed]
        exchanges = tuple(sorted(packed))
        steps.append(SbepStep(len(steps) + 1, exchanges))
    return Schedule(topo, tuple(steps))


@pytest.mark.parametrize("n", range(2, 41))
def test_matches_reference_greedy(n):
    assert generate_lch(n) == _reference_lch(n)


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


def _packed_lch(n: int) -> Schedule:
    """The O(n^3) run-by-run packer, kept as the reference for sizes the
    plain greedy is too slow for."""
    topo = build_topology(TopologyKind.LCH, n)
    # No pair has span 0, so trimming empty tails leaves no list at the end.
    lows = [[]] + [list(range(1, n - span + 1)) for span in range(1, n)]
    steps = []
    while lows:
        steps.append(sorted(_pack_chain_step(lows, n)))
        while lows and not lows[-1]:
            lows.pop()
    return Schedule.from_pairs(topo, steps)


@pytest.mark.parametrize("n", range(2, 129))
def test_matches_run_by_run_packer(n):
    assert generate_lch(n) == _packed_lch(n)


# One line per size: n and the sha256 of the text schedule, for the sizes the
# reference greedy is too slow to check in the suite.
DIGESTS = [
    line.split() for line in (GOLDEN / "lch_sha256.txt").read_text().splitlines()
]


@pytest.mark.parametrize("n,digest", DIGESTS)
def test_matches_frozen_digest(n, digest):
    text = schedule_to_text(generate_lch(int(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["schedule", "--topology", "lch", "--n", "9"], "schedule_lch9.txt"),
        (["schedule", "--topology", "lch", "--n", "16"], "schedule_lch16.txt"),
        (["oracle", "--topology", "lch", "--n", "6"], "oracle_lch6.txt"),
    ],
)
def test_cli_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@given(n=st.integers(min_value=2, max_value=500))
def test_cut_bound_is_the_busiest_segment(n):
    assert chain_cut_lower_bound(n) == max(k * (n - k) for k in range(1, n))


def test_cut_bound_rejects_tiny():
    with pytest.raises(InvalidSizeError):
        chain_cut_lower_bound(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_cut_bound_is_the_oracle_minimum(n):
    assert min_steps_bruteforce(TopologyKind.LCH, n).min_steps == chain_cut_lower_bound(n)


def _check_meets_cut_bound(n):
    schedule = generate_lch(n)
    assert len(schedule.steps) == chain_cut_lower_bound(n) == n * n // 4
    # Each step fills one level [a, n+1-a] end to end: its exchanges, in
    # order, start at a, meet at their ends and stop at n+1-a.
    for step in schedule.steps:
        ends = [h for e in step.exchanges for h in sorted(e)]
        a = ends[0]
        assert a <= n // 2 and ends[-1] == n + 1 - a
        assert ends[1:-1:2] == ends[2:-1:2]
    # Crossings per segment by a difference array: +1 at lo, -1 at hi.
    deltas = [0] * (n + 1)
    for e in chain.from_iterable(step.exchanges for step in schedule.steps):
        lo, hi = sorted(e)
        deltas[lo] += 1
        deltas[hi] -= 1
    crossings = list(accumulate(deltas[1:n]))
    assert crossings == [k * (n - k) for k in range(1, n)]
    assert validate_schedule(schedule).ok


@pytest.mark.parametrize("n", range(2, 81))
def test_schedule_meets_cut_bound(n):
    _check_meets_cut_bound(n)


@settings(deadline=None, max_examples=10)
@given(n=st.integers(min_value=81, max_value=300))
def test_large_schedule_meets_cut_bound(n):
    _check_meets_cut_bound(n)
