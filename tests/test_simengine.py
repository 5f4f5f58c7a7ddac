import itertools

import pytest

from kexnet.analysis import CableFailure, CenterSwitchFailure
from kexnet.errors import InvalidScenarioError
from kexnet.simengine import SimConfig, run, utilization_profile
from kexnet.topology import TopologyKind, build_topology


def star(n):
    return build_topology(TopologyKind.STAR, n)


def all_pairs(n):
    return {tuple(sorted(p)) for p in itertools.combinations(range(1, n + 1), 2)}


def test_single_pass_star5():
    report = run(SimConfig(topology=star(5), key_bits=1))
    assert report.steps_executed == 6
    assert set(report.bits_per_pair.values()) == {1}
    assert len(report.bits_per_pair) == 10
    assert report.lost_pairs == frozenset()


def test_three_passes_star5():
    report = run(SimConfig(topology=star(5), key_bits=3))
    assert report.steps_executed == 18
    assert set(report.bits_per_pair.values()) == {3}


def test_center_failure_at_step_4():
    config = SimConfig(
        topology=star(5), key_bits=1, failures=((4, CenterSwitchFailure()),)
    )
    report = run(config)
    done = {p for p, b in report.bits_per_pair.items() if b == 1}
    # pairs completed in the first three steps of the worked example
    assert done == {
        tuple(sorted(p)) for p in [(1, 2), (3, 4), (2, 3), (4, 5), (5, 1)]
    }
    assert len(report.lost_pairs) == 5


def test_failure_at_first_step_loses_everything():
    config = SimConfig(
        topology=star(5), key_bits=1, failures=((1, CenterSwitchFailure()),)
    )
    report = run(config)
    assert set(report.bits_per_pair.values()) == {0}
    assert report.lost_pairs == frozenset(all_pairs(5))


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (8, 3)])
def test_no_failure_conservation(kind, n, k):
    report = run(SimConfig(topology=build_topology(kind, n), key_bits=k))
    assert sum(report.bits_per_pair.values()) == k * n * (n - 1) // 2
    assert report.lost_pairs == frozenset()


def test_failure_monotonicity():
    t = build_topology(TopologyKind.LCH, 5)
    base = run(SimConfig(topology=t, key_bits=2))
    failed = run(
        SimConfig(topology=t, key_bits=2, failures=((3, CableFailure(2)),))
    )
    for p in base.bits_per_pair:
        assert failed.bits_per_pair[p] <= base.bits_per_pair[p]


def test_determinism():
    config = SimConfig(
        topology=star(7), key_bits=2, failures=((5, CenterSwitchFailure()),)
    )
    assert run(config) == run(config)


def test_utilization_worked_example():
    report = run(SimConfig(topology=star(5), key_bits=1))
    assert all(u == pytest.approx(4 / 6) for u in report.host_utilization.values())
    summary = utilization_profile(report)
    assert summary.minimum == summary.maximum == pytest.approx(4 / 6)


def test_utilization_fcn_full():
    report = run(SimConfig(topology=build_topology(TopologyKind.FCN_FULL, 6)))
    assert set(report.host_utilization.values()) == {1.0}


def test_utilization_star2():
    report = run(SimConfig(topology=star(2)))
    assert set(report.host_utilization.values()) == {1.0}


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(topology=star(3), key_bits=0)
    with pytest.raises(ValueError):
        SimConfig(topology=star(3), failures=((0, CenterSwitchFailure()),))
    with pytest.raises(ValueError):
        SimConfig(
            topology=star(3),
            failures=((5, CenterSwitchFailure()), (2, CenterSwitchFailure())),
        )
    # scenarios are checked when the config is built, not when they activate
    with pytest.raises(InvalidScenarioError):
        SimConfig(topology=star(3), failures=((1000, CableFailure(99)),))
