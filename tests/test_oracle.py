import math
import pathlib

import pytest

from kexnet import oracle
from kexnet.cli import main
from kexnet.errors import InvalidSizeError, SearchTooLargeError
from kexnet.oracle import (
    OracleResult,
    chain_cut_lower_bound,
    chromatic_index_lower_bound,
    min_steps_bruteforce,
    overhead_table,
)
from kexnet.schedule import Schedule, validate_schedule
from kexnet.topology import TopologyKind, build_topology, parts_held

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _compatible_matching(step, cand):
    a, b = cand
    return all(a != x and a != y and b != x and b != y for x, y in step)


def _compatible_interval(step, cand):
    lo, hi = cand
    return all(hi <= x or lo >= y for x, y in step)


def _chain_steps_needed(n, remaining):
    load = [0] * n
    for lo, hi in remaining:
        for seg in range(lo, hi):
            load[seg] += 1
    return max(load)


def _search_min_cover(pairs, compatible, start, steps_needed):
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
        first, rest = remaining[0], remaining[1:]
        return extend([first], tuple(rest), remaining, steps_left, acc)

    depth = start
    while True:
        found = cover(list(pairs), depth, [])
        if found is not None:
            return depth, found
        depth += 1


def _reference_min_cover(kind, n):
    """The recursive search with one compatibility test per model, kept as
    the reference: matchings for star and fcn1, interior-disjoint intervals
    for the chain, and one step for fcn-full."""
    topo = build_topology(kind, n)
    pairs = list(topo.pairs())
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
    witness = Schedule.from_pairs(topo, steps)
    return OracleResult(n=n, constraint_model=kind, min_steps=count, witness=witness)


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", range(2, 9))
def test_matches_reference_search(kind, n):
    assert min_steps_bruteforce(kind, n) == _reference_min_cover(kind, n)


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_cli_matches_golden(kind, capsys):
    out = []
    for n in range(2, 9):
        assert main(["oracle", "--topology", kind.value, "--n", str(n)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == (GOLDEN / f"oracle_{kind.value}_2_8.txt").read_text()


def test_star_4():
    assert min_steps_bruteforce(TopologyKind.STAR, 4).min_steps == 3


def test_star_5_below_protocol():
    # the protocol takes 6 steps at n=5; the true minimum is 5
    assert min_steps_bruteforce(TopologyKind.STAR, 5).min_steps == 5


@pytest.mark.parametrize("n", range(2, 9))
def test_fcn_full_always_one(n):
    assert min_steps_bruteforce(TopologyKind.FCN_FULL, n).min_steps == 1


@pytest.mark.parametrize("n", range(2, 9))
def test_matching_bound_is_tight(n):
    result = min_steps_bruteforce(TopologyKind.STAR, n)
    assert result.min_steps == chromatic_index_lower_bound(n)


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", range(2, 7))
def test_witnesses_validate(kind, n):
    result = min_steps_bruteforce(kind, n)
    assert validate_schedule(result.witness).ok
    assert len(result.witness.steps) == result.min_steps


def test_search_ceiling(capsys):
    assert min_steps_bruteforce(TopologyKind.LCH, 7).min_steps == 12
    result = min_steps_bruteforce(TopologyKind.LCH, 8)
    assert result.min_steps == 16
    assert validate_schedule(result.witness).ok
    assert len(result.witness.steps) == 16
    for kind, n in [("star", 21), ("fcn1", 21), ("fcn-full", 21), ("lch", 109)]:
        with pytest.raises(SearchTooLargeError):
            min_steps_bruteforce(TopologyKind(kind), n)
        assert main(["oracle", "--topology", kind, "--n", str(n)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("kexnet: exhaustive search capped at n=")
        assert len(err.splitlines()) == 1


MATCHING_BOUND = "chromatic_index_lower_bound / overhead_table"


@pytest.mark.parametrize(
    "kind,n,instead",
    [
        ("star", 21, MATCHING_BOUND),
        ("fcn1", 21, MATCHING_BOUND),
        ("fcn-full", 21, MATCHING_BOUND),
        ("lch", 109, "chain_cut_lower_bound"),
    ],
)
def test_search_ceiling_message(kind, n, instead):
    # One past each kind's ceiling, the refusal names the ceiling, the kind
    # and the bound to use instead, word for word.
    with pytest.raises(SearchTooLargeError) as refused:
        min_steps_bruteforce(TopologyKind(kind), n)
    assert str(refused.value) == (
        f"exhaustive search capped at n={n - 1} for {kind}; use {instead} instead"
    )


def test_search_runs_at_fcn_full_ceiling():
    # Each fcn-full pair has its own cable, so all 190 pairs share one step.
    result = min_steps_bruteforce(TopologyKind.FCN_FULL, 20)
    assert result.min_steps == 1
    assert validate_schedule(result.witness).ok


class _Started(Exception):
    pass


def _start_depth(kind, n, monkeypatch):
    """The step count the search tries first on every pair of ``kind``."""

    def first_depth(masks, load, per_step, depth):
        raise _Started(depth)

    monkeypatch.setattr(oracle, "_cover", first_depth)
    pairs = build_topology(kind, n).pairs()
    with pytest.raises(_Started) as started:
        oracle._min_cover([parts_held(kind, lo, hi) for lo, hi in pairs])
    return started.value.args[0]


@pytest.mark.parametrize("n", range(2, 41))
def test_start_depth_is_the_model_bound(n, monkeypatch):
    expected = {
        TopologyKind.STAR: chromatic_index_lower_bound(n),
        TopologyKind.FCN_SINGLE: chromatic_index_lower_bound(n),
        TopologyKind.LCH: chain_cut_lower_bound(n),
        TopologyKind.FCN_FULL: 1,
    }
    for kind, bound in expected.items():
        assert _start_depth(kind, n, monkeypatch) == bound


@pytest.mark.parametrize("kind,n,steps", [(TopologyKind.STAR, 9, 9), (TopologyKind.LCH, 14, 49)])
def test_witness_above_n8(kind, n, steps):
    result = min_steps_bruteforce(kind, n)
    assert result.min_steps == len(result.witness.steps) == steps
    assert validate_schedule(result.witness).ok


# Outer 5-cycle, spokes, inner pentagram: 3-regular on 10 vertices with
# chromatic index 4, so the start bound of 3 (the busiest vertex, and 15
# edges at 5 a step) fails and the search has to deepen.
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
)


def test_petersen_deepens_past_a_failed_bound(monkeypatch):
    tried = []
    cover = oracle._cover

    def recording_cover(masks, load, per_step, depth):
        found = cover(masks, load, per_step, depth)
        tried.append((depth, found is not None))
        return found

    monkeypatch.setattr(oracle, "_cover", recording_cover)
    masks = [parts_held(TopologyKind.STAR, *sorted(pair)) for pair in PETERSEN]
    depth, steps = oracle._min_cover(masks)
    assert depth == len(steps) == 4
    assert tried == [(3, False), (4, True)]
    for step in steps:
        hosts = [h for i in step for h in PETERSEN[i]]
        assert len(hosts) == len(set(hosts))
    assert sorted(i for step in steps for i in step) == list(range(len(PETERSEN)))


def test_bound_examples():
    assert chromatic_index_lower_bound(6) == 5
    assert chromatic_index_lower_bound(7) == 7
    assert chromatic_index_lower_bound(2) == 1
    with pytest.raises(InvalidSizeError):
        chromatic_index_lower_bound(1)


def test_overhead_examples():
    table = dict((row[0], row) for row in overhead_table(range(2, 11)))
    assert table[5] == (5, 6, 5, 1)
    assert table[2] == (2, 1, 1, 0)
    assert table[9] == (9, 12, 9, 3)


def test_overhead_nonnegative():
    for _, steps, bound, overhead in overhead_table(range(2, 51)):
        assert overhead == steps - bound >= 0


def test_overhead_range_checked():
    with pytest.raises(InvalidSizeError):
        overhead_table(range(2, 60))


def test_result_deterministic():
    a = min_steps_bruteforce(TopologyKind.STAR, 6)
    b = min_steps_bruteforce(TopologyKind.STAR, 6)
    assert a == b
