import itertools
from bisect import bisect_left
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kexnet import analysis, protocols
from kexnet.analysis import (
    CableFailure,
    CenterSwitchFailure,
    KeyExchangerFailure,
    FailureScenario,
    apply_failure,
    apply_failures,
    build_sbep_table,
    capable_pairs,
    compare_networks,
    fit_linear,
    stops,
)
from kexnet.errors import DegenerateFitError, InvalidScenarioError
from kexnet.simengine import SimConfig
from kexnet.topology import TopologyKind, build_topology

FIG_SLOPE = 1.3192982456
FIG_INTERCEPT = -1.301754386
FIG_R2 = 0.988989157


def test_fit_reproduces_published_constants():
    points = [(float(n), float(s)) for n, s in build_sbep_table(20)]
    fit = fit_linear(points)
    assert fit.slope == pytest.approx(FIG_SLOPE, abs=1e-6)
    assert fit.intercept == pytest.approx(FIG_INTERCEPT, abs=1e-6)
    assert fit.r_squared == pytest.approx(FIG_R2, abs=1e-6)


def test_fit_exact_line():
    fit = fit_linear([(0.0, 0.0), (1.0, 1.0)])
    assert (fit.slope, fit.intercept, fit.r_squared) == (1.0, 0.0, 1.0)


def test_fit_recovers_any_line_exactly():
    points = [(x, 2.5 * x - 7.25) for x in range(-3, 9)]
    fit = fit_linear(points)
    assert fit.slope == pytest.approx(2.5, rel=1e-12)
    assert fit.intercept == pytest.approx(-7.25, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_constant_y():
    fit = fit_linear([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
    assert (fit.slope, fit.intercept) == (0.0, 2.0)
    assert fit.r_squared == 1.0
    assert not fit.degenerate


def test_fit_degenerate_x():
    with pytest.raises(DegenerateFitError):
        fit_linear([(1.0, 2.0), (1.0, 3.0)])


def test_sbep_table():
    assert build_sbep_table(2) == [(2, 1)]
    assert build_sbep_table(4) == [(2, 1), (3, 3), (4, 3)]
    assert len(build_sbep_table(20)) == 19


# --- failure analysis --------------------------------------------------------


def all_pairs(n):
    return {tuple(sorted(p)) for p in itertools.combinations(range(1, n + 1), 2)}


def test_star_center_switch():
    t = build_topology(TopologyKind.STAR, 5)
    report = apply_failure(t, CenterSwitchFailure())
    assert report.reachable_pairs == frozenset()


def test_lch_segment_split():
    t = build_topology(TopologyKind.LCH, 5)
    report = apply_failure(t, CableFailure(2))
    assert report.reachable_pairs == {(1, 2), (3, 4), (3, 5), (4, 5)}
    assert len(all_pairs(5) - report.reachable_pairs) == 6


def test_chain_cut_sides_are_cliques():
    # A cut chain leaves two segments; every pair within a side still talks.
    n = 6
    t = build_topology(TopologyKind.LCH, n)
    for k in range(1, n):
        left = itertools.combinations(range(1, k + 1), 2)
        right = itertools.combinations(range(k + 1, n + 1), 2)
        assert apply_failure(t, CableFailure(k)).reachable_pairs == {*left, *right}


def test_fcn_cable():
    t = build_topology(TopologyKind.FCN_FULL, 4)
    report = apply_failure(t, CableFailure((1, 2)))
    assert all_pairs(4) - report.reachable_pairs == {(1, 2)}
    assert len(report.reachable_pairs) == 5


def test_fcn_full_exchanger_slot():
    t = build_topology(TopologyKind.FCN_FULL, 4)
    # slot 2 of host 1 is its link to peer 3
    report = apply_failure(t, KeyExchangerFailure(1, 2))
    assert all_pairs(4) - report.reachable_pairs == {(1, 3)}


def test_lch_exchanger_degraded_only():
    t = build_topology(TopologyKind.LCH, 5)
    report = apply_failure(t, KeyExchangerFailure(3, 1))
    assert report.reachable_pairs == frozenset(all_pairs(5))
    assert report.degraded_hosts == frozenset({3})


def test_invalid_scenarios():
    star = build_topology(TopologyKind.STAR, 4)
    lch = build_topology(TopologyKind.LCH, 4)
    with pytest.raises(InvalidScenarioError):
        apply_failure(lch, CenterSwitchFailure())
    with pytest.raises(InvalidScenarioError):
        apply_failure(star, CableFailure(9))
    with pytest.raises(InvalidScenarioError):
        apply_failure(lch, CableFailure(4))  # only 3 segments
    with pytest.raises(InvalidScenarioError):
        apply_failure(star, KeyExchangerFailure(2, 2))  # one exchanger per host


def is_id(x, top):
    """Host, slot and segment ids are ints in 1..top: not True, not 2.0."""
    return type(x) is int and 1 <= x <= top


def expected_scenario_error(t, f):
    """The message InvalidScenarioError carries for ``f`` in ``t``, or None
    when ``t`` has the component."""
    n, kind = t.n_hosts, t.kind
    fully_connected = kind in (TopologyKind.FCN_FULL, TopologyKind.FCN_SINGLE)
    if isinstance(f, CenterSwitchFailure):
        if kind is not TopologyKind.STAR:
            return "only the star network has a center switch"
    elif isinstance(f, KeyExchangerFailure):
        if not is_id(f.host, n):
            return f"no host {f.host} in a {n}-host network"
        if f.slot is not None and not is_id(f.slot, t.exchangers_per_host):
            return (
                f"host {f.host} has {t.exchangers_per_host} exchanger(s), "
                f"no slot {f.slot}"
            )
        if kind is TopologyKind.FCN_FULL and f.slot is None:
            return "FCN_FULL exchanger failure needs a slot"
    elif fully_connected:
        ident = f.ident
        if not (isinstance(ident, tuple) and ident[0] != ident[1]
                and all(is_id(h, n) for h in ident)):
            return f"fully connected cable is a host pair, got {ident!r}"
    elif kind is TopologyKind.LCH:
        if not is_id(f.ident, n - 1):
            return f"no chain segment {f.ident!r}"
    elif not is_id(f.ident, n):
        return f"no star spoke {f.ident!r}"
    return None


def scenario_grid(t):
    n = t.n_hosts
    yield CenterSwitchFailure()
    for ident in range(-1, n + 2):
        yield CableFailure(ident)
    for a in range(0, n + 2):
        for b in range(0, n + 2):
            yield CableFailure((a, b))
    for h in range(0, n + 2):
        for s in (None, *range(0, t.exchangers_per_host + 2)):
            yield KeyExchangerFailure(h, s)
    # Ids that are not ints, each in the place of a valid one.
    yield from map(KeyExchangerFailure, (2.5, True, 2.0))
    yield from (KeyExchangerFailure(2, s) for s in (1.5, True, 1.0))
    yield from map(CableFailure, (True, 2.0, (2.0, 3), (True, 3), (1, 3.0)))


# Components of a 5-host network: the fully connected ones have 20 ordered
# cable pairs, fcn-full 5 x 4 exchanger slots and fcn1 5 x (None, 1); the
# chain has 4 segments and 5 x (None, 1, 2) slots; the star has the center,
# 5 spokes and 5 x (None, 1) slots.
ACCEPTED_AT_5 = {
    TopologyKind.FCN_FULL: 40,
    TopologyKind.FCN_SINGLE: 30,
    TopologyKind.LCH: 19,
    TopologyKind.STAR: 16,
}


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_scenario_grid(kind):
    t = build_topology(kind, 5)
    accepted = 0
    for f in scenario_grid(t):
        expected = expected_scenario_error(t, f)
        for check in (
            lambda: apply_failure(t, f),
            lambda: SimConfig(topology=t, failures=((1, f),)),
        ):
            if expected is None:
                check()
                continue
            with pytest.raises(InvalidScenarioError) as info:
                check()
            assert str(info.value) == expected, f
        accepted += expected is None
    assert accepted == ACCEPTED_AT_5[kind]


def single_failures(t):
    n = t.n_hosts
    if t.kind is TopologyKind.STAR:
        yield CenterSwitchFailure()
        for h in range(1, n + 1):
            yield CableFailure(h)
            yield KeyExchangerFailure(h, 1)
    elif t.kind is TopologyKind.LCH:
        for k in range(1, n):
            yield CableFailure(k)
        for h in range(1, n + 1):
            for s in (1, 2):
                yield KeyExchangerFailure(h, s)
    else:
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                yield CableFailure((a, b))
        slots = t.exchangers_per_host
        for h in range(1, n + 1):
            for s in range(1, slots + 1):
                yield KeyExchangerFailure(h, s)


@pytest.mark.parametrize("n", range(2, 11))
def test_single_failure_loss_counts(n):
    star = build_topology(TopologyKind.STAR, n)
    assert apply_failure(star, CenterSwitchFailure()).reachable_pairs == frozenset()
    for h in range(1, n + 1):
        for f in (CableFailure(h), KeyExchangerFailure(h, 1)):
            lost = all_pairs(n) - apply_failure(star, f).reachable_pairs
            assert len(lost) == n - 1
            assert all(h in p for p in lost)

    lch = build_topology(TopologyKind.LCH, n)
    for k in range(1, n):
        lost = all_pairs(n) - apply_failure(lch, CableFailure(k)).reachable_pairs
        assert len(lost) == k * (n - k)

    for kind in (TopologyKind.FCN_FULL, TopologyKind.FCN_SINGLE):
        t = build_topology(kind, n)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                lost = all_pairs(n) - apply_failure(t, CableFailure((a, b))).reachable_pairs
                assert lost == {(a, b)}


# Independent resource-based reachability model: an exchange needs every
# physical resource on its path; a failure destroys exactly one resource.
def surviving_pairs_resource_model(t, failures):
    n = t.n_hosts

    def destroyed(f):
        if isinstance(f, CenterSwitchFailure):
            return {("center",)}
        if isinstance(f, CableFailure):
            if t.kind is TopologyKind.STAR:
                return {("spoke", f.ident)}
            if t.kind is TopologyKind.LCH:
                return {("seg", f.ident)}
            return {("cable", frozenset(f.ident))}
        if t.kind is TopologyKind.FCN_FULL:
            peers = [h for h in range(1, n + 1) if h != f.host]
            return {("ke", f.host, peers[f.slot - 1])}
        return {("ke", f.host, f.slot or 1)}

    dead = set()
    for f in failures:
        dead |= destroyed(f)

    def needed(a, b):
        if t.kind is TopologyKind.STAR:
            return [
                [("center",)], [("spoke", a)], [("spoke", b)],
                [("ke", a, 1)], [("ke", b, 1)],
            ]
        if t.kind is TopologyKind.LCH:
            return (
                [[("seg", k)] for k in range(a, b)]
                + [[("ke", a, 1), ("ke", a, 2)], [("ke", b, 1), ("ke", b, 2)]]
            )
        if t.kind is TopologyKind.FCN_FULL:
            return [[("cable", frozenset((a, b)))], [("ke", a, b)], [("ke", b, a)]]
        return [[("cable", frozenset((a, b)))], [("ke", a, 1)], [("ke", b, 1)]]

    ok = set()
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            # each requirement is a list of alternatives; one must survive
            if all(any(r not in dead for r in alts) for alts in needed(a, b)):
                ok.add((a, b))
    return ok


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", range(2, 7))
def test_reachability_matches_resource_model(kind, n):
    t = build_topology(kind, n)
    failures = list(single_failures(t))
    for f in failures:
        report = apply_failure(t, f)
        assert report.reachable_pairs == surviving_pairs_resource_model(t, [f]), f
    for f1, f2 in itertools.combinations(failures, 2):
        report = apply_failures(t, [f1, f2])
        assert report.reachable_pairs == surviving_pairs_resource_model(t, [f1, f2])


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", [3, 5, 8])
def test_failure_monotonicity(kind, n):
    t = build_topology(kind, n)
    failures = list(single_failures(t))
    for f1 in failures:
        base = apply_failures(t, [f1]).reachable_pairs
        for f2 in failures:
            both = apply_failures(t, [f1, f2]).reachable_pairs
            assert both <= base


def test_compare_networks():
    rows = {row.kind: row for row in compare_networks(10)}
    assert rows[TopologyKind.STAR].step_count == 12
    assert rows[TopologyKind.FCN_FULL].step_count == 1
    assert rows[TopologyKind.FCN_FULL].costs.cable_count == 45
    assert rows[TopologyKind.FCN_SINGLE].step_count == 9


def test_compare_networks_builds_no_schedule(monkeypatch):
    # The rows are those with each step count taken from its generated
    # schedule, with no generator reachable.
    sizes = range(2, 41)
    expected = {}
    for n in sizes:
        rows = compare_networks(n)
        for row in rows:
            assert row.step_count == len(protocols.generate_schedule(row.kind, n).steps)
        expected[n] = rows

    def refuse(kind, n):
        raise AssertionError(f"compare_networks generated {kind.value} at n={n}")

    monkeypatch.setattr(protocols, "generate_schedule", refuse)
    monkeypatch.setattr(analysis, "generate_schedule", refuse)
    assert {n: compare_networks(n) for n in sizes} == expected


# --- the part vocabulary as the reference for stops --------------------------


def _destroyed(t, f: FailureScenario) -> tuple[str, object]:
    """The one part of ``t`` that ``f`` destroys: ("center", None),
    ("host", h), ("pair", (lo, hi)), ("segment", k) or ("slot", (h, s)).
    Raises InvalidScenarioError for a component ``t`` does not have."""
    n, kind = t.n_hosts, t.kind
    if isinstance(f, CenterSwitchFailure):
        if kind is not TopologyKind.STAR:
            raise InvalidScenarioError("only the star network has a center switch")
        return "center", None
    if isinstance(f, KeyExchangerFailure):
        if not 1 <= f.host <= n:
            raise InvalidScenarioError(f"no host {f.host} in a {n}-host network")
        if f.slot is not None and not 1 <= f.slot <= t.exchangers_per_host:
            raise InvalidScenarioError(
                f"host {f.host} has {t.exchangers_per_host} exchanger(s), "
                f"no slot {f.slot}"
            )
        if kind is TopologyKind.LCH:
            return "slot", (f.host, f.slot or 1)
        if kind is not TopologyKind.FCN_FULL:
            return "host", f.host
        if f.slot is None:
            raise InvalidScenarioError("FCN_FULL exchanger failure needs a slot")
        # Slots map to the host's peers in ascending order.
        return "pair", tuple(sorted((f.host, f.slot + (f.slot >= f.host))))
    if not isinstance(f, CableFailure):
        raise InvalidScenarioError(f"unknown scenario {f!r}")
    ident = f.ident
    if kind is TopologyKind.STAR:
        if not (isinstance(ident, int) and 1 <= ident <= n):
            raise InvalidScenarioError(f"no star spoke {ident!r}")
        return "host", ident
    if kind is TopologyKind.LCH:
        if not (isinstance(ident, int) and 1 <= ident <= n - 1):
            raise InvalidScenarioError(f"no chain segment {ident!r}")
        return "segment", ident
    if not (
        isinstance(ident, tuple)
        and len(ident) == 2
        and ident[0] != ident[1]
        and all(1 <= h <= n for h in ident)
    ):
        raise InvalidScenarioError(
            f"fully connected cable is a host pair, got {ident!r}"
        )
    return "pair", tuple(sorted(ident))


def _reference_capable_pairs(t, failures):
    """capable_pairs from the destroyed parts, as a test of every pair: both
    ends on one side of the cuts, where a dead host is a side of its own."""
    lost = defaultdict(set)
    for f in failures:
        part, which = _destroyed(t, f)
        lost[part].add(which)
    slot_hosts = [h for h, _ in lost["slot"]]
    dead = lost["host"] | {h for h in slot_hosts if slot_hosts.count(h) == 2}
    if lost["center"]:
        dead = set(t.hosts())
    cuts = sorted(lost["segment"])
    side = [-h if h in dead else bisect_left(cuts, h) for h in range(t.n_hosts + 1)]
    ok = frozenset(p for p in t.pairs() if side[p[0]] == side[p[1]]) - lost["pair"]
    return ok, frozenset(set(slot_hosts) - dead)


def valid_failures(t):
    """Every failure scenario the topology has a component for."""
    slots = range(1, t.exchangers_per_host + 1)
    yield from (KeyExchangerFailure(h, s) for h in t.hosts() for s in slots)
    if t.kind is not TopologyKind.FCN_FULL:
        yield from (KeyExchangerFailure(h) for h in t.hosts())
    if t.kind is TopologyKind.STAR:
        yield CenterSwitchFailure()
        yield from map(CableFailure, t.hosts())
    elif t.kind is TopologyKind.LCH:
        yield from map(CableFailure, range(1, t.n_hosts))
    else:
        yield from map(CableFailure, itertools.permutations(t.hosts(), 2))


@st.composite
def failure_sets(draw):
    t = build_topology(draw(st.sampled_from(list(TopologyKind))), draw(st.integers(2, 30)))
    scenarios = list(valid_failures(t))
    return t, draw(st.lists(st.sampled_from(scenarios), max_size=6))


@settings(max_examples=300, deadline=None)
@given(failure_sets())
def test_capable_pairs_matches_pair_walk(case):
    # After each prefix of the failures, capable_pairs is the reference, and
    # the last failure stops, beyond what the ones before it stopped, exactly
    # the pairs the reference loses with it.
    t, failures = case
    stopped, before = set(), frozenset(t.pairs())
    assert capable_pairs(t, []) == _reference_capable_pairs(t, [])
    for i, pairs in enumerate(map(set, stops(t, failures)), 1):
        expected = _reference_capable_pairs(t, failures[:i])
        assert capable_pairs(t, failures[:i]) == expected
        assert pairs - stopped == before - expected[0]
        stopped |= pairs
        before = expected[0]


def test_center_failure_stops_every_pair_and_the_rest_are_checked():
    # No pair is listed once the center is gone, yet each failure beside it
    # still goes through stops and is checked, before or after it.
    t = build_topology(TopologyKind.STAR, 600)
    failures = [CableFailure(3), CenterSwitchFailure(), KeyExchangerFailure(9)]
    assert capable_pairs(t, failures) == (frozenset(), frozenset())
    assert capable_pairs(t, failures) == _reference_capable_pairs(t, failures)
    for bad in (CableFailure(601), KeyExchangerFailure(2.5), CableFailure((1, 2))):
        for order in ([CenterSwitchFailure(), bad], [bad, CenterSwitchFailure()]):
            with pytest.raises(InvalidScenarioError):
                capable_pairs(t, order)


def _stop_count(t, f):
    """How many pairs ``f`` stops as the first failure of ``t``."""
    n = t.n_hosts
    if isinstance(f, CenterSwitchFailure):
        return n * (n - 1) // 2
    if isinstance(f, CableFailure):
        if t.kind is TopologyKind.LCH:
            return f.ident * (n - f.ident)
        return n - 1 if t.kind is TopologyKind.STAR else 1
    if t.kind is TopologyKind.LCH:
        return 0
    return 1 if t.kind is TopologyKind.FCN_FULL else n - 1


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", [2, 5, 17])
def test_stop_counts(kind, n):
    t = build_topology(kind, n)
    for f in valid_failures(t):
        pairs = list(next(stops(t, [f])))
        assert len(pairs) == len(set(pairs)) == _stop_count(t, f), f
        assert all(1 <= lo < hi <= n for lo, hi in pairs)
    if kind is TopologyKind.LCH:
        # A chain host's second slot stops its n - 1 pairs, whichever goes first.
        for h in t.hosts():
            for first, second in [(1, 2), (2, None)]:
                ke = [KeyExchangerFailure(h, first), KeyExchangerFailure(h, second)]
                assert [len(list(p)) for p in stops(t, ke)] == [0, n - 1]
