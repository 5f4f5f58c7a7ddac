import hashlib
import math
import pathlib
from fractions import Fraction
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import kexnet
from kexnet import protocols, topology
from kexnet.cli import main
from kexnet.errors import InvalidSizeError, ProtocolConstructionError
from kexnet.oracle import chromatic_index_lower_bound, min_steps_bruteforce
from kexnet.protocols import (
    generate_fcn_full,
    generate_fcn_single,
    generate_lch,
    generate_star,
    merge_budget,
    raw_distance_steps,
    sbep_formula,
)
from kexnet.schedule import SbepStep, Schedule, validate_schedule
from kexnet.serialize import schedule_to_text
from kexnet.topology import GEOMETRIES, TopologyKind, build_topology

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Published step counts for star networks of 2..20 hosts.
STEP_TABLE = {
    2: 1, 3: 3, 4: 3, 5: 6, 6: 6, 7: 8, 8: 8, 9: 12, 10: 12,
    11: 14, 12: 14, 13: 17, 14: 17, 15: 19, 16: 19, 17: 22,
    18: 22, 19: 24, 20: 24,
}


@pytest.mark.parametrize("n,expected", sorted(STEP_TABLE.items()))
def test_formula_matches_table(n, expected):
    assert sbep_formula(n) == expected


def test_formula_rejects_tiny():
    with pytest.raises(InvalidSizeError):
        sbep_formula(1)


@pytest.mark.parametrize("n", range(5, 50, 2))
def test_formula_odd_even_parity(n):
    assert sbep_formula(n) == sbep_formula(n + 1)


def test_star_reproduces_worked_example():
    steps = [list(step.exchanges) for step in generate_star(5).steps]
    assert steps == [
        [(1, 2), (3, 4)],
        [(2, 3), (4, 5)],
        [(5, 1)],
        [(1, 3), (2, 4)],
        [(3, 5), (4, 1)],
        [(5, 2)],
    ]


def test_star_smallest():
    s = generate_star(2)
    assert len(s.steps) == 1
    assert list(s.steps[0].exchanges) == [(1, 2)]


def circ_distance(n, a, b):
    return min((a - b) % n, (b - a) % n)


def test_star_7_has_one_merged_residual():
    s = generate_star(7)
    assert len(s.steps) == 8
    mixed = [
        step
        for step in s.steps
        if len({circ_distance(7, a, b) for a, b in step.exchanges}) > 1
    ]
    assert len(mixed) == 1
    assert len({circ_distance(7, a, b) for a, b in mixed[0].exchanges}) == 2


def test_star_12():
    s = generate_star(12)
    assert len(s.steps) == 14
    assert validate_schedule(s).ok


@pytest.mark.parametrize("n", range(2, 51))
def test_star_valid_and_counted(n):
    s = generate_star(n)
    assert validate_schedule(s).ok
    assert len(s.steps) == sbep_formula(n)


def test_fcn_full():
    s = generate_fcn_full(3)
    assert list(s.steps[0].exchanges) == [
        (1, 2), (1, 3), (2, 3)
    ]
    s6 = generate_fcn_full(6)
    assert len(s6.steps) == 1
    assert len(s6.steps[0].exchanges) == 15
    assert len(generate_fcn_full(2).steps) == 1


@pytest.mark.parametrize("n,steps", [(2, 1), (4, 3), (5, 5)])
def test_fcn_single_counts(n, steps):
    s = generate_fcn_single(n)
    assert len(s.steps) == steps
    assert validate_schedule(s).ok


@pytest.mark.parametrize("n", range(2, 31))
def test_fcn_single_matches_chromatic_bound(n):
    assert len(generate_fcn_single(n).steps) == chromatic_index_lower_bound(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_fcn_single_meets_oracle_minimum(n):
    minimum = min_steps_bruteforce(TopologyKind.FCN_SINGLE, n).min_steps
    assert len(generate_fcn_single(n).steps) == minimum


def test_lch_small():
    assert len(generate_lch(2).steps) == 1
    assert len(generate_lch(3).steps) == 2


def test_lch_8_bounds():
    count = len(generate_lch(8).steps)
    lower = math.ceil(math.comb(9, 3) / 7)
    assert lower <= count <= 28


def test_lch_quadratic_growth():
    from kexnet.analysis import fit_linear

    ns = [8, 16, 32, 64]
    counts = [len(generate_lch(n).steps) for n in ns]
    fit = fit_linear([(math.log(n), math.log(c)) for n, c in zip(ns, counts)])
    assert 1.7 <= fit.slope <= 2.3


def test_raw_distance_steps_examples():
    assert raw_distance_steps(5) == [(1, 3), (2, 3)]
    assert raw_distance_steps(4) == [(1, 2), (2, 1)]
    assert raw_distance_steps(8) == [(1, 2), (2, 3), (3, 3), (4, 1)]


def test_merge_budget_examples():
    assert merge_budget(7) == 1
    assert merge_budget(5) == 0
    assert merge_budget(19) == 3


@pytest.mark.parametrize("n", range(2, 51))
def test_merge_budget_nonnegative(n):
    assert merge_budget(n) >= 0


@given(n=st.integers(min_value=2, max_value=50))
def test_star_never_beats_chromatic_bound(n):
    overhead = len(generate_star(n).steps) - len(generate_fcn_single(n).steps)
    assert overhead >= 0


@pytest.mark.parametrize(
    "gen", [generate_star, generate_fcn_full, generate_fcn_single, generate_lch]
)
@pytest.mark.parametrize("n", [2, 7, 20])
def test_generators_deterministic(gen, n):
    assert gen(n) == gen(n) == gen(n)


# --- the original star generator, kept as the reference ---------------------


def _reference_cycles(n: int, d: int) -> list[list[int]]:
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


def _reference_cycle_edges(cycle: list[int], n: int, d: int) -> list[tuple[int, int]]:
    return [(v, (v - 1 + d) % n + 1) for v in cycle]


def _reference_choose_disjoint_residuals(n, distances):
    """One residual edge per cycle of each distance, all host-disjoint, by
    backtracking; the edge initiated by a cycle's largest host comes first.
    Returns {(distance, cycle_index): edge} or None."""
    slots = []
    for d in distances:
        for ci, cycle in enumerate(_reference_cycles(n, d)):
            edges = _reference_cycle_edges(cycle, n, d)
            anchor = cycle.index(max(cycle))
            ordered = [edges[(anchor + k) % len(edges)] for k in range(len(edges))]
            slots.append((d, ci, ordered))
    slots.sort(key=lambda s: (len(s[2]), s[0], s[1]))

    chosen = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == len(slots):
            return True
        d, ci, ordered = slots[i]
        for e in ordered:
            if e[0] in used or e[1] in used:
                continue
            chosen[(d, ci)] = e
            used.update(e)
            if backtrack(i + 1):
                return True
            used.difference_update(e)
            del chosen[(d, ci)]
        return False

    return chosen if backtrack(0) else None


def _reference_decompose_distance(n, d, residuals):
    """Matchings A, B and the residual edges of one distance class;
    ``residuals`` maps cycle index to its held-out edge, or is None."""
    phase_a, phase_b, residual = [], [], []
    for ci, cycle in enumerate(_reference_cycles(n, d)):
        edges = _reference_cycle_edges(cycle, n, d)
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


def _reference_star(n: int) -> Schedule:
    """The original star generator: every distance's cycles built twice and
    every step sorted as (initiator, responder) pairs."""
    topo = build_topology(TopologyKind.STAR, n)
    if n == 2:
        return Schedule(topo, (SbepStep(1, ((1, 2),)),))

    raw = dict(raw_distance_steps(n))
    budget = merge_budget(n)
    residual_distances = [d for d, c in raw.items() if c == 3]
    merged_with: dict[int, int] = {}
    merged_into: dict[int, int] = {}
    i = len(residual_distances)
    for _ in range(budget):
        if i < 2:
            raise ProtocolConstructionError(f"not enough residual steps at n={n}")
        lo, hi = residual_distances[i - 2], residual_distances[i - 1]
        merged_with[lo] = hi
        merged_into[hi] = lo
        i -= 2

    residual_edges: dict[int, dict[int, tuple[int, int]]] = {}
    for d in residual_distances:
        if d in merged_into:
            continue
        group = [d, merged_with[d]] if d in merged_with else [d]
        chosen = _reference_choose_disjoint_residuals(n, group)
        if chosen is None:
            raise ProtocolConstructionError(f"no residual assignment at n={n}")
        for (dd, ci), e in chosen.items():
            residual_edges.setdefault(dd, {})[ci] = e

    steps: list[tuple[tuple[int, int], ...]] = []
    residual_slot: dict[int, int] = {}
    for d in range(1, n // 2 + 1):
        count = raw[d]
        if count == 1:
            half = sorted((i, i + n // 2) for i in range(1, n // 2 + 1))
            steps.append(tuple(half))
            continue
        holdout = residual_edges.get(d) if count == 3 else None
        phase_a, phase_b, residual = _reference_decompose_distance(n, d, holdout)
        steps.append(tuple(sorted(phase_a)))
        steps.append(tuple(sorted(phase_b)))
        if count == 3:
            if d in merged_into:
                slot = residual_slot[merged_into[d]]
                steps[slot] = tuple(sorted(steps[slot] + tuple(residual)))
            else:
                residual_slot[d] = len(steps)
                steps.append(tuple(sorted(residual)))

    assert len(steps) == sbep_formula(n)
    return Schedule(topo, tuple(SbepStep(i + 1, ex) for i, ex in enumerate(steps)))


@pytest.mark.parametrize("n", range(2, 81))
def test_star_matches_reference(n):
    assert generate_star(n) == _reference_star(n)


# --- the edge-list star generator, kept as the reference ---------------------


def _edge_list_cycles(n: int, d: int) -> list[list[tuple[int, int]]]:
    """Edges (v, v+d mod n) of each cycle of the +d step on hosts 1..n;
    cycle s starts at host s, for s = 1..gcd(n, d), in traversal order."""
    g = math.gcd(n, d)
    cycles = []
    for s in range(1, g + 1):
        hosts = [(s - 1 + k * d) % n + 1 for k in range(n // g)]
        cycles.append(list(zip(hosts, hosts[1:] + hosts[:1])))
    return cycles


def _edge_list_residuals(cycles):
    """One residual edge per cycle of every distance in ``cycles`` (d to its
    edge lists), all host-disjoint, by the same depth-first search as
    generate_star: cycles shortest first, each from the edge its largest
    host initiates. Returns {(distance, cycle_index): edge_index} or None."""
    slots = []
    for d, per_distance in cycles.items():
        g, m = len(per_distance), len(per_distance[0])
        anchor = (m - 1) * pow(d // g, -1, m) % m
        slots += [(m, d, ci, anchor) for ci in range(g)]
    slots.sort()

    def edge_order(slot):
        _, d, ci, k = slot
        edges = cycles[d][ci]
        return chain(enumerate(edges[k:], k), enumerate(edges[:k]))

    picks = []
    used: set[int] = set()
    stack = [edge_order(slots[0])]
    while stack:
        for k, (a, b) in stack[-1]:
            if a not in used and b not in used:
                break
        else:
            stack.pop()
            if picks:
                used.difference_update(picks.pop()[1])
            continue
        picks.append((k, (a, b)))
        used.update((a, b))
        if len(picks) == len(slots):
            return {(d, ci): k for (_, d, ci, _), (k, _) in zip(slots, picks)}
        stack.append(edge_order(slots[len(picks)]))
    return None


def _edge_list_phases(paths):
    """The alternating matchings of edge paths: even positions, then odd."""
    phases = (chain.from_iterable(p[k::2] for p in paths) for k in (0, 1))
    return [sorted(phase, key=itemgetter(0)) for phase in phases]


def _edge_list_star(n: int) -> Schedule:
    """The star generator that held every cycle as a list of edge tuples,
    built by a Python loop over its hosts."""
    topo = build_topology(TopologyKind.STAR, n)
    raw = raw_distance_steps(n) if n > 2 else []
    residual_distances = [d for d, c in raw if c == 3]
    unmerged = len(residual_distances) - 2 * merge_budget(n)
    groups = [[d] for d in residual_distances[:unmerged]] + [
        residual_distances[i : i + 2]
        for i in range(unmerged, len(residual_distances), 2)
    ]
    steps = []
    if n % 2 == 0 and n > 2:
        steps += _edge_list_phases(_edge_list_cycles(n, 1))
    for group in groups:
        cycles = {d: _edge_list_cycles(n, d) for d in group}
        chosen = _edge_list_residuals(cycles)
        residual, phases = [], []
        for d, per_distance in cycles.items():
            paths = []
            for ci, edges in enumerate(per_distance):
                r = chosen[d, ci]
                residual.append(edges[r])
                paths.append(edges[r + 1 :] + edges[:r])
            phases += _edge_list_phases(paths)
        steps += phases[:2] + [sorted(residual)] + phases[2:]
    if n % 2 == 0:
        steps.append([(i, i + n // 2) for i in range(1, n // 2 + 1)])
    return Schedule.from_pairs(topo, steps)


@pytest.mark.parametrize("n", range(2, 131))
def test_star_matches_edge_list_star(n):
    assert generate_star(n) == _edge_list_star(n)


@settings(deadline=None, max_examples=8)
@given(n=st.integers(min_value=2, max_value=420))
def test_star_matches_edge_list_star_up_to_420(n):
    assert generate_star(n) == _edge_list_star(n)


# One line per size: n and the sha256 of the text schedule, for sizes past
# the reference comparison. Many of them make the residual search retreat.
STAR_DIGESTS = [
    line.split() for line in (GOLDEN / "star_sha256.txt").read_text().splitlines()
]


@pytest.mark.parametrize("n,digest", STAR_DIGESTS)
def test_star_matches_frozen_digest(n, digest):
    text = schedule_to_text(generate_star(int(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _ring(n):
    """Hosts 1..n repeated n//2 + 1 times, as generate_star builds them."""
    return list(range(1, n + 1)) * (n // 2 + 1)


def test_residual_search_deeper_than_recursion_limit():
    # One group of 1,000 cycles of 3 hosts: cycle ci holds hosts ci+1,
    # ci+1001 and ci+2001, and keeps the edge its largest host initiates.
    cycles = protocols._cycles(_ring(3000), 3000, 1000)
    assert cycles == [[ci + 1, ci + 1001, ci + 2001] * 2 for ci in range(1000)]
    chosen = protocols._choose_disjoint_residuals({1000: cycles})
    assert sorted(chosen) == [(1000, ci) for ci in range(1000)]
    edges = [(cycles[ci][k], cycles[ci][k + 1]) for (_, ci), k in sorted(chosen.items())]
    assert edges == [(ci + 2001, ci + 1) for ci in range(1000)]


@pytest.mark.parametrize("n", range(3, 61))
def test_anchor_starts_at_largest_host(n):
    ring = _ring(n)
    for d in range(1, n // 2 + 1):
        cycles = protocols._cycles(ring, n, d)
        assert cycles == [c * 2 for c in _reference_cycles(n, d)]
        for h, c in zip(cycles, _reference_cycles(n, d)):
            edges = list(zip(h, h[1 : len(c) + 1]))
            assert edges == _reference_cycle_edges(c, n, d)
        g, m = math.gcd(n, d), n // math.gcd(n, d)
        k = (m - 1) * pow(d // g, -1, m) % m
        for s, h in enumerate(cycles, 1):
            assert h[k] == max(h) == n - g + s
        # One distance's cycles share no host, so each keeps its anchor edge.
        chosen = protocols._choose_disjoint_residuals({d: cycles})
        assert chosen == {(d, ci): k for ci in range(g)}


def _reference_fcn_single(n):
    """The circle method with min/max per pair and a full sort per round."""
    topo = build_topology(TopologyKind.FCN_SINGLE, n)
    m = n if n % 2 == 0 else n + 1
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


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=2, max_value=400))
def test_fcn_single_matches_reference(n):
    assert generate_fcn_single(n) == _reference_fcn_single(n)


@pytest.mark.parametrize("n", [5, 16, 40])
def test_star_builds_cycles_once_per_distance(n, monkeypatch):
    calls = []
    cycles = protocols._cycles

    def counting(ring, n, d):
        calls.append(d)
        return cycles(ring, n, d)

    monkeypatch.setattr(protocols, "_cycles", counting)
    generate_star(n)
    assert sorted(calls) == sorted(set(calls))
    # Only the residual distances have cycles: distance 1 of an even n is
    # the ring itself, and the opposite-host step needs none.
    assert sorted(calls) == [d for d, c in raw_distance_steps(n) if c == 3]


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["schedule", "--topology", "star", "--n", str(n)], f"schedule_star{n}.txt")
        for n in (9, 16, 17, 40)
    ]
    + [
        (["schedule", "--topology", "fcn1", "--n", str(n)], f"schedule_fcn1_{n}.txt")
        for n in (9, 10)
    ]
    + [
        (
            ["schedule", "--topology", "star", "--n", "6", "--format", "json"],
            "schedule_star6.json",
        )
    ],
)
def test_cli_schedule_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


# The largest n each kind's generator is checked at; the chain's schedule
# grows as n^2/4 steps.
STEP_SIZES = {kind: 200 for kind in TopologyKind} | {TopologyKind.LCH: 128}


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_geometry_steps_is_the_generated_length(kind):
    # Each generator itself, not generate_schedule, which makes this check.
    generate, steps = protocols._GENERATORS[kind], GEOMETRIES[kind].steps
    for n in range(2, STEP_SIZES[kind] + 1):
        assert steps(n) == len(generate(n).steps), n
    if kind in (TopologyKind.STAR, TopologyKind.FCN_SINGLE):
        assert steps(400) == len(generate(400).steps)


@pytest.mark.parametrize("n", [2**53 + 1, 10**17 + 1, 10**17 + 2, 4 * 10**20 + 3])
def test_sbep_formula_exact_past_float_precision(n):
    # compare reads the formula at any n, also where a float cannot hold n.
    assert sbep_formula(n) == n + math.ceil(Fraction(n, 4)) - (1 - n % 2)


def test_sbep_formula_is_one_object():
    assert kexnet.sbep_formula is protocols.sbep_formula is topology.sbep_formula
    assert GEOMETRIES[TopologyKind.STAR].steps is sbep_formula


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_generate_schedule_refuses_a_dropped_step(kind, monkeypatch):
    generate = protocols._GENERATORS[kind]

    def dropping(n):
        s = generate(n)
        return Schedule(s.topology, s.steps[:-1])

    monkeypatch.setitem(protocols._GENERATORS, kind, dropping)
    expected = GEOMETRIES[kind].steps(7)
    message = f"{kind.value} construction produced {expected - 1} steps at n=7, expected {expected}"
    with pytest.raises(ProtocolConstructionError, match=message):
        protocols.generate_schedule(kind, 7)
