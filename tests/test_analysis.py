import itertools

import pytest

from kexnet.analysis import (
    CableFailure,
    CenterSwitchFailure,
    KeyExchangerFailure,
    apply_failure,
    apply_failures,
    build_sbep_table,
    compare_networks,
    fit_linear,
)
from kexnet.errors import DegenerateFitError, InvalidScenarioError
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
    assert report.isolated_hosts == frozenset(range(1, 6))


def test_lch_segment_split():
    t = build_topology(TopologyKind.LCH, 5)
    report = apply_failure(t, CableFailure(2))
    assert set(report.components) == {frozenset({1, 2}), frozenset({3, 4, 5})}
    assert len(all_pairs(5) - report.reachable_pairs) == 6


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


def test_components_consistent_with_pairs():
    t = build_topology(TopologyKind.LCH, 6)
    report = apply_failure(t, CableFailure(3))
    for p in report.reachable_pairs:
        assert any(set(p) <= comp for comp in report.components)


def test_compare_networks():
    rows = {row.kind: row for row in compare_networks(10)}
    assert rows[TopologyKind.STAR].step_count == 12
    assert rows[TopologyKind.FCN_FULL].step_count == 1
    assert rows[TopologyKind.FCN_FULL].costs.cable_count == 45
    assert rows[TopologyKind.FCN_SINGLE].step_count == 9
