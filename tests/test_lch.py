"""Chain (LCH) schedules: the indexed generator against the plain greedy it
replaced, the frozen schedule digests and CLI outputs, and the cut lower
bound."""

import hashlib
import pathlib

import pytest
from hypothesis import given, strategies as st

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


@pytest.mark.parametrize("n", range(2, 81))
def test_schedule_meets_cut_bound(n):
    schedule = generate_lch(n)
    assert len(schedule.steps) == chain_cut_lower_bound(n) == n * n // 4
    crossings = [0] * n
    for e in schedule.all_exchanges():
        lo, hi = sorted(e)
        for seg in range(lo, hi):
            crossings[seg] += 1
    assert crossings[1:] == [k * (n - k) for k in range(1, n)]
    assert validate_schedule(schedule).ok
