import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kexnet.analysis import (
    CableFailure,
    CenterSwitchFailure,
    FailureScenario,
    KeyExchangerFailure,
)
from kexnet.errors import InvalidScenarioError
from kexnet.protocols import generate_schedule
from kexnet.simengine import SimConfig, SimReport, run, utilization_profile
from kexnet.topology import TopologyKind, build_topology
from test_analysis import _reference_capable_pairs, valid_failures


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


# --- the step-wise loop as the reference for run -----------------------------


def _reference_run(config: SimConfig) -> SimReport:
    """The simulator as a step clock: every exchange of every pass, with the
    capable pairs recomputed whenever a failure takes effect."""
    topo = config.topology
    schedule = generate_schedule(topo.kind, topo.n_hosts)
    bits = dict.fromkeys(topo.pairs(), 0)
    active_steps = {h: 0 for h in topo.hosts()}

    pending = list(config.failures)
    active: list[FailureScenario] = []
    ok, _ = _reference_capable_pairs(topo, active)

    t = 0
    for _ in range(config.key_bits):
        for step in schedule.steps:
            t += 1
            changed = False
            while pending and pending[0][0] <= t:
                active.append(pending.pop(0)[1])
                changed = True
            if changed:
                ok, _ = _reference_capable_pairs(topo, active)
            active_hosts: set[int] = set()
            for a, b in step.exchanges:
                p = (min(a, b), max(a, b))
                if p in ok:
                    bits[p] += 1
                    active_hosts.update(p)
            for h in active_hosts:
                active_steps[h] += 1

    utilization = {h: active_steps[h] / t for h in topo.hosts()}
    lost = frozenset(p for p, b in bits.items() if b < config.key_bits)
    return SimReport(
        steps_executed=t,
        bits_per_pair=bits,
        host_utilization=utilization,
        lost_pairs=lost,
    )


@st.composite
def sim_configs(draw):
    t = build_topology(draw(st.sampled_from(list(TopologyKind))), draw(st.integers(2, 12)))
    k = draw(st.integers(1, 6))
    horizon = k * len(generate_schedule(t.kind, t.n_hosts).steps)
    # A few distinct times, so several failures often share one; some
    # fall past the horizon.
    times = draw(st.lists(st.integers(1, horizon + 3), min_size=1, max_size=3))
    failures = draw(
        st.lists(
            st.tuples(st.sampled_from(times), st.sampled_from(list(valid_failures(t)))),
            max_size=4,
        )
    )
    return SimConfig(
        topology=t, key_bits=k, failures=tuple(sorted(failures, key=lambda f: f[0]))
    )


@settings(max_examples=400, deadline=None)
@given(sim_configs())
def test_run_matches_step_loop(config):
    report, expected = run(config), _reference_run(config)
    assert report == expected
    assert list(report.bits_per_pair) == list(expected.bits_per_pair)
    assert list(report.host_utilization) == list(expected.host_utilization)


def test_large_k_exact():
    # 10^8 whole passes of the 6-step schedule, then steps 1-3 once more
    # before the center fails at the start of step 4.
    config = SimConfig(
        topology=star(5),
        key_bits=10**9,
        failures=((6 * 10**8 + 4, CenterSwitchFailure()),),
    )
    report = run(config)
    steps = generate_schedule(TopologyKind.STAR, 5).steps
    first = {tuple(sorted(e)) for step in steps[:3] for e in step.exchanges}
    assert len(first) == 5
    assert report.steps_executed == 6 * 10**9
    assert report.bits_per_pair == {
        p: 10**8 + 1 if p in first else 10**8 for p in all_pairs(5)
    }
    assert report.lost_pairs == frozenset(all_pairs(5))


def test_key_bits_past_ssize_t_exact():
    # 10^19 whole passes, more than sys.maxsize step times, then steps 1-3
    # once more before the center fails at the start of step 4.
    config = SimConfig(
        topology=star(5),
        key_bits=10**20,
        failures=((6 * 10**19 + 4, CenterSwitchFailure()),),
    )
    report = run(config)
    steps = generate_schedule(TopologyKind.STAR, 5).steps
    first = {tuple(sorted(e)) for step in steps[:3] for e in step.exchanges}
    assert report.steps_executed == 6 * 10**20
    assert report.bits_per_pair == {
        p: 10**19 + 1 if p in first else 10**19 for p in all_pairs(5)
    }
    assert report.lost_pairs == frozenset(all_pairs(5))


@pytest.mark.parametrize(
    "kind,n,failures",
    [
        (
            TopologyKind.STAR,
            150,
            ((40, CableFailure(3)), (170, KeyExchangerFailure(88)), (300, CableFailure(17))),
        ),
        (
            TopologyKind.FCN_SINGLE,
            80,
            ((1, CableFailure((3, 70))), (79, KeyExchangerFailure(41)), (120, CableFailure((80, 1)))),
        ),
    ],
)
def test_run_matches_step_loop_at_workload_size(kind, n, failures):
    config = SimConfig(topology=build_topology(kind, n), key_bits=2, failures=failures)
    report = run(config)
    assert report == _reference_run(config)
    assert 0 < len(report.lost_pairs) < n * (n - 1) // 2


@pytest.mark.parametrize(
    "kind,n", [(TopologyKind.LCH, 5), (TopologyKind.FCN_FULL, 3), (TopologyKind.FCN_FULL, 4)]
)
def test_host_counts_its_exchange_that_stops_last(kind, n):
    # A chain or fcn-full host can be in two exchanges of one step; every
    # pair of failures at two times in different passes, either way round.
    t = build_topology(kind, n)
    period = len(generate_schedule(kind, n).steps)
    for f1, f2 in itertools.permutations(valid_failures(t), 2):
        for t1, t2 in [(2, period + 2), (period, 2 * period + 1)]:
            config = SimConfig(topology=t, key_bits=3, failures=((t1, f1), (t2, f2)))
            assert run(config) == _reference_run(config)


def test_host_counts_its_exchange_that_stops_last_fcn_full3():
    # Host 1 loses (1, 2) at step 3 and (1, 3) at step 7 of a 1-step schedule.
    config = SimConfig(
        topology=build_topology(TopologyKind.FCN_FULL, 3),
        key_bits=10,
        failures=((3, KeyExchangerFailure(1, 1)), (7, KeyExchangerFailure(1, 2))),
    )
    report = run(config)
    assert report.bits_per_pair == {(1, 2): 2, (1, 3): 6, (2, 3): 10}
    assert report.host_utilization == {1: 0.6, 2: 1.0, 3: 1.0}
