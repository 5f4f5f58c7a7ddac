from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kexnet.errors import AmbiguousStepError
from kexnet.protocols import generate_schedule, generate_star
from kexnet.schedule import (
    HostRole,
    HostState,
    PairExchange,
    SbepStep,
    Schedule,
    ValidationReport,
    Violation,
    _step_interval_violations,
    host_states,
    pair_coverage,
    validate_schedule,
)
from kexnet.topology import TopologyKind, build_topology


def make_schedule(kind, n, steps):
    topo = build_topology(kind, n)
    return Schedule(
        topo,
        tuple(
            SbepStep(i + 1, tuple(PairExchange(a, b) for a, b in step))
            for i, step in enumerate(steps)
        ),
    )


def test_table_schedule_valid():
    assert validate_schedule(generate_star(5)).ok


def test_capacity_violation():
    s = make_schedule(TopologyKind.STAR, 3, [[(1, 2), (2, 3)], [(1, 3)]])
    report = validate_schedule(s)
    assert not report.ok
    assert any(v.kind == "capacity" and "host 2" in v.detail for v in report.violations)


def test_duplicate_pair_violation():
    s = make_schedule(TopologyKind.STAR, 3, [[(1, 2)], [(1, 2)], [(1, 3)], [(2, 3)]])
    report = validate_schedule(s)
    dups = [v for v in report.violations if v.kind == "duplicate-pair"]
    assert len(dups) == 1
    assert dups[0].step_index == 2


def test_missing_pair_violation():
    s = make_schedule(TopologyKind.STAR, 3, [[(1, 2)]])
    report = validate_schedule(s)
    missing = {v.detail for v in report.violations if v.kind == "missing-pair"}
    assert missing == {"(1,3)", "(2,3)"}


def test_lch_interval_overlap():
    # (1,3) and (2,4) overlap strictly inside the wire
    s = make_schedule(TopologyKind.LCH, 4, [[(1, 3), (2, 4)]])
    assert any(v.kind == "lch-overlap" for v in validate_schedule(s).violations)
    # sharing an endpoint host is fine
    s2 = make_schedule(
        TopologyKind.LCH, 3, [[(1, 2), (2, 3)], [(1, 3)]]
    )
    assert validate_schedule(s2).ok


def test_self_exchange_rejected():
    with pytest.raises(ValueError):
        PairExchange(2, 2)
    with pytest.raises(ValueError, match="host 3 cannot exchange with itself"):
        PairExchange(initiator=3, responder=3)
    with pytest.raises(ValueError, match="itself"):
        Schedule.from_pairs(build_topology(TopologyKind.STAR, 4), [[(1, 2)], [(4, 4)]])
    with pytest.raises(ValueError, match="host 1 cannot exchange with itself"):
        PairExchange(1, 2)._replace(responder=1)
    with pytest.raises(ValueError, match="host 3 cannot exchange with itself"):
        PairExchange._make((3, 3))


def test_host_states_table_rows():
    s = generate_star(5)
    a = host_states(s.steps[0], 5)
    assert a[1] == HostState(HostRole.INITIATOR, 2)
    assert a[2].role is HostRole.UTILIZED and a[2].peer == 1
    assert a[3].role is HostRole.INITIATOR and a[3].peer == 4
    assert a[4].role is HostRole.UTILIZED and a[4].peer == 3
    assert a[5].role is HostRole.INACTIVE and a[5].peer is None
    c = host_states(s.steps[2], 5)
    assert c[5].role is HostRole.INITIATOR and c[5].peer == 1
    assert c[1].role is HostRole.UTILIZED and c[1].peer == 5
    assert all(c[h].role is HostRole.INACTIVE for h in (2, 3, 4))


def test_host_states_empty_step():
    states = host_states(SbepStep(1, ()), 4)
    assert all(s.role is HostRole.INACTIVE for s in states.values())


def test_host_states_ambiguous():
    step = SbepStep(1, (PairExchange(1, 2), PairExchange(2, 3)))
    with pytest.raises(AmbiguousStepError):
        host_states(step, 3)


def test_pair_coverage_complete():
    cov = pair_coverage(generate_star(5))
    assert len(cov) == 10
    assert set(cov.values()) == {1}


def test_pair_coverage_empty():
    s = make_schedule(TopologyKind.STAR, 4, [])
    cov = pair_coverage(s)
    assert len(cov) == 6
    assert set(cov.values()) == {0}


def test_pair_coverage_fcn_full():
    from kexnet.protocols import generate_fcn_full

    cov = pair_coverage(generate_fcn_full(6))
    assert len(cov) == 15
    assert set(cov.values()) == {1}


@pytest.mark.parametrize("kind", list(TopologyKind))
@settings(deadline=None)
@given(n=st.integers(min_value=2, max_value=50))
def test_generators_validate(kind, n):
    assert validate_schedule(generate_schedule(kind, n)).ok


@given(n=st.integers(min_value=2, max_value=40))
def test_capacity1_steps_are_matchings(n):
    for s in (generate_schedule(TopologyKind.STAR, n),
              generate_schedule(TopologyKind.FCN_SINGLE, n)):
        for step in s.steps:
            hosts = [h for e in step.exchanges for h in (e.initiator, e.responder)]
            assert len(hosts) == len(set(hosts)) == 2 * len(step.exchanges)


@given(n=st.integers(min_value=2, max_value=40))
def test_host_states_involution(n):
    for step in generate_star(n).steps:
        states = host_states(step, n)
        for h, s in states.items():
            if s.role is HostRole.INITIATOR:
                assert states[s.peer] == HostState(
                    HostRole.UTILIZED, h
                )


@pytest.mark.parametrize("kind", list(TopologyKind))
@settings(deadline=None)
@given(n=st.integers(min_value=2, max_value=30))
def test_coverage_sums(kind, n):
    cov = pair_coverage(generate_schedule(kind, n))
    assert sum(cov.values()) == n * (n - 1) // 2


# --- the validator before its one-pass step check, kept as the reference -----


def _reference_capacity_violations(step, t):
    out = []
    load = Counter(h for e in step.exchanges for h in (e.initiator, e.responder))
    for host in sorted(load):
        if host < 1 or host > t.n_hosts:
            out.append(Violation(step.index, "unknown-host", f"host {host}"))
        elif load[host] > t.exchangers_per_host:
            out.append(
                Violation(
                    step.index,
                    "capacity",
                    f"host {host} in {load[host]} exchanges, "
                    f"capacity {t.exchangers_per_host}",
                )
            )
    return out


def _reference_validate(s):
    t = s.topology
    violations = []
    for position, step in enumerate(s.steps, 1):
        if step.index != position:
            violations.append(
                Violation(step.index, "step-index", f"expected index {position}")
            )
        violations.extend(_reference_capacity_violations(step, t))
        if t.kind is TopologyKind.LCH:
            violations.extend(_step_interval_violations(step, t))

    seen = {}
    for step in s.steps:
        for e in step.exchanges:
            p = e.span
            if p in seen:
                violations.append(
                    Violation(
                        step.index,
                        "duplicate-pair",
                        f"({p[0]},{p[1]}) already exchanged in step {seen[p]}",
                    )
                )
            else:
                seen[p] = step.index
    for a, b in t.pairs():
        if (a, b) not in seen:
            violations.append(Violation(None, "missing-pair", f"({a},{b})"))
    return ValidationReport(ok=not violations, violations=tuple(violations))


CORRUPTIONS = ("drop", "duplicate", "host-0", "host-n+1", "overload", "misnumber")


def _corrupt(s, how, data):
    """``s`` with one corruption of kind ``how``, at places drawn from ``data``."""
    n = s.topology.n_hosts
    steps = [[step.index, list(step.exchanges)] for step in s.steps]
    step = data.draw(st.sampled_from(steps))
    index, exchanges = step
    if how == "misnumber":
        step[0] = data.draw(st.integers(0, len(steps) + 1).filter(lambda i: i != index))
    elif how == "duplicate":
        pool = [e for _, es in steps for e in es]
        if pool:
            at = data.draw(st.integers(0, len(exchanges)))
            exchanges.insert(at, data.draw(st.sampled_from(pool)))
    elif exchanges:
        k = data.draw(st.integers(0, len(exchanges) - 1))
        a = exchanges[k].initiator
        if how == "drop":
            del exchanges[k]
        elif how == "overload":
            c = data.draw(st.integers(1, n).filter(lambda h: h != a))
            exchanges.append(PairExchange(a, c))
        else:
            exchanges[k] = PairExchange(a, 0 if how == "host-0" else n + 1)
    return Schedule(s.topology, tuple(SbepStep(i, tuple(es)) for i, es in steps))


@pytest.mark.parametrize("kind", list(TopologyKind))
@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    hows=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3),
    data=st.data(),
)
def test_validator_matches_reference(kind, n, hows, data):
    s = generate_schedule(kind, n)
    for how in hows:
        s = _corrupt(s, how, data)
    assert validate_schedule(s) == _reference_validate(s)


# --- the data model's contract ------------------------------------------------


def test_pair_fields_and_keywords():
    assert PairExchange._fields == ("initiator", "responder")
    assert SbepStep._fields == ("index", "exchanges")
    e = PairExchange(responder=2, initiator=5)
    assert (e.initiator, e.responder) == (5, 2) == PairExchange(5, 2)
    assert e.span == (2, 5) and PairExchange(2, 5).span == (2, 5)


def test_pair_is_its_plain_tuple():
    assert PairExchange(1, 2) == (1, 2)
    assert hash(PairExchange(1, 2)) == hash((1, 2))
    assert PairExchange(1, 2) != PairExchange(2, 1)
    assert {PairExchange(3, 4): "x"}[(3, 4)] == "x"
    assert SbepStep(1, (PairExchange(1, 2),)) == (1, ((1, 2),))


@given(st.lists(st.tuples(st.integers(-5, 50), st.integers(-5, 50))))
def test_pair_sort_order_is_field_order(pairs):
    # The dataclass order: initiator first, then responder.
    exchanges = [PairExchange(a, b) for a, b in pairs if a != b]
    assert sorted(exchanges) == sorted(exchanges, key=lambda e: (e.initiator, e.responder))
