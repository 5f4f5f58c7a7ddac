from fractions import Fraction

import pytest

from kexnet.errors import InvalidSizeError
from kexnet.topology import (
    ComplexityClass,
    CostMetric,
    TopologyKind,
    build_topology,
    complexity_class,
    cost_profile,
)


def test_build_star():
    t = build_topology(TopologyKind.STAR, 5)
    assert t.exchangers_per_host == 1
    assert t.has_center_switch


def test_build_smallest_fcn_full():
    t = build_topology(TopologyKind.FCN_FULL, 2)
    assert t.exchangers_per_host == 1
    assert not t.has_center_switch


def test_build_lch():
    assert build_topology(TopologyKind.LCH, 10).exchangers_per_host == 2


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_too_small(kind):
    with pytest.raises(InvalidSizeError):
        build_topology(kind, 1)


def test_cost_fcn_full():
    c = cost_profile(build_topology(TopologyKind.FCN_FULL, 5))
    assert c.cable_count == 10
    assert c.exchanger_count == 20
    assert c.center_switch_count == 0


def test_cost_star():
    c = cost_profile(build_topology(TopologyKind.STAR, 5))
    assert (c.cable_count, c.exchanger_count, c.center_switch_count) == (5, 5, 1)


def test_cost_lch_smallest():
    c = cost_profile(build_topology(TopologyKind.LCH, 2))
    assert (c.cable_count, c.exchanger_count) == (1, 4)


COMPLEXITY_TABLE = {
    TopologyKind.FCN_FULL: ("O(N^2)", "O(N^2)", "O(1)"),
    TopologyKind.FCN_SINGLE: ("O(N^2)", "O(N)", "O(N)"),
    TopologyKind.LCH: ("O(N)", "O(N)", "O(N^2)"),
    TopologyKind.STAR: ("O(N)", "O(N)", "O(N)"),
}


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_complexity_classes(kind):
    cable, ke, time = COMPLEXITY_TABLE[kind]
    assert complexity_class(kind, CostMetric.CABLE).value == cable
    assert complexity_class(kind, "ke").value == ke
    assert complexity_class(kind, CostMetric.TIME).value == time


def test_complexity_examples():
    assert complexity_class(TopologyKind.FCN_FULL, "time") is ComplexityClass.O1
    assert complexity_class(TopologyKind.LCH, "time") is ComplexityClass.ON2
    assert complexity_class(TopologyKind.STAR, "cable") is ComplexityClass.ON


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", list(range(2, 129)))
def test_counts_match_closed_forms(kind, n):
    c = cost_profile(build_topology(kind, n))
    expected_cables = {
        TopologyKind.FCN_FULL: n * (n - 1) // 2,
        TopologyKind.FCN_SINGLE: n * (n - 1) // 2,
        TopologyKind.LCH: n - 1,
        TopologyKind.STAR: n,
    }[kind]
    expected_kes = {
        TopologyKind.FCN_FULL: n * (n - 1),
        TopologyKind.FCN_SINGLE: n,
        TopologyKind.LCH: 2 * n,
        TopologyKind.STAR: n,
    }[kind]
    assert c.cable_count == expected_cables >= 0
    assert c.exchanger_count == expected_kes >= 0


# What one more host costs: a spoke and an exchanger for the star, a
# segment and its two exchangers for the chain, a cable to every host for
# the fully connected nets.
MARGINAL_COST = {
    TopologyKind.FCN_FULL: lambda n: (n, 2 * n),
    TopologyKind.FCN_SINGLE: lambda n: (n, 1),
    TopologyKind.LCH: lambda n: (1, 2),
    TopologyKind.STAR: lambda n: (1, 1),
}


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", [2, 3, 17, 64])
def test_one_more_host_marginal_cost(kind, n):
    before = cost_profile(build_topology(kind, n))
    after = cost_profile(build_topology(kind, n + 1))
    assert (
        after.cable_count - before.cable_count,
        after.exchanger_count - before.exchanger_count,
    ) == MARGINAL_COST[kind](n)
    assert after.center_switch_count == before.center_switch_count
    assert (after.class_cable, after.class_ke, after.class_time) == (
        before.class_cable, before.class_ke, before.class_time
    )


def test_pairs_of_one_more_host():
    for n in range(2, 21):
        old = list(build_topology(TopologyKind.STAR, n).pairs())
        new = list(build_topology(TopologyKind.STAR, n + 1).pairs())
        assert new == sorted(new) and len(new) == len(set(new)) == n * (n + 1) // 2
        assert set(new) - set(old) == {(a, n + 1) for a in range(1, n + 1)}


def test_pairs_by_host_are_pairs():
    for n in range(2, 21):
        t = build_topology(TopologyKind.STAR, n)
        assert list(t.pairs_by_host()) == list(t.pairs())


@pytest.mark.parametrize("n", [64, 128])
def test_asymptotic_sanity(n):
    # exact arithmetic: FCN cables / N^2 -> 1/2, STAR cables / N -> 1
    fcn = cost_profile(build_topology(TopologyKind.FCN_FULL, n)).cable_count
    assert Fraction(fcn, n * n) == Fraction(n - 1, 2 * n)
    assert abs(Fraction(fcn, n * n) - Fraction(1, 2)) <= Fraction(1, n)
    star = cost_profile(build_topology(TopologyKind.STAR, n)).cable_count
    assert Fraction(star, n) == 1
