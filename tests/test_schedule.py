import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kexnet.errors import AmbiguousStepError, ScheduleFormatError
from kexnet.protocols import generate_schedule, generate_star
from kexnet.schedule import (
    MISSING_PAIR_LINES,
    HostRole,
    HostState,
    SbepStep,
    Schedule,
    ValidationReport,
    Violation,
    _step_interval_violations,
    host_states,
    pair_coverage,
    validate_schedule,
)
from kexnet.serialize import (
    json_to_schedule,
    schedule_to_json,
    schedule_to_text,
    text_to_schedule,
)
from kexnet.topology import TopologyKind, build_topology


def make_schedule(kind, n, steps):
    topo = build_topology(kind, n)
    return Schedule(
        topo,
        tuple(
            SbepStep(i + 1, tuple((a, b) for a, b in step))
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
    topo = build_topology(TopologyKind.STAR, 4)
    with pytest.raises(ValueError, match="itself"):
        Schedule.from_pairs(topo, [[(1, 2)], [(4, 4)]])
    with pytest.raises(ValueError, match="host 3 cannot exchange with itself"):
        Schedule.from_pairs(topo, [[[1, 2], [3, 3]]])
    with pytest.raises(ScheduleFormatError, match="host 2 cannot exchange with itself"):
        text_to_schedule("step 1: (1,2)\nstep 2: (3,4) (2,2)\n", topo)
    doc = {"topology": {"kind": "star", "n_hosts": 4}, "steps": [[[1, 2]], [[3, 3]]]}
    with pytest.raises(ScheduleFormatError, match="host 3 cannot exchange with itself"):
        json_to_schedule(json.dumps(doc))


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
    step = SbepStep(1, ((1, 2), (2, 3)))
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
            hosts = [h for e in step.exchanges for h in e]
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
    load = Counter(h for e in step.exchanges for h in e)
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
        for a, b in step.exchanges:
            p = (min(a, b), max(a, b))
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


CORRUPTIONS = (
    "drop", "duplicate", "replace", "reverse", "host-0", "host-n+1", "overload",
    "misnumber",
)


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
        a = exchanges[k][0]
        if how == "drop":
            del exchanges[k]
        elif how == "overload":
            c = data.draw(st.integers(1, n).filter(lambda h: h != a))
            exchanges.append((a, c))
        elif how in ("replace", "reverse"):
            # Same count of exchanges: one pair goes missing, one repeats,
            # as given or reversed.
            pool = [e for _, es in steps for e in es if e != exchanges[k]]
            if pool:
                b, c = data.draw(st.sampled_from(pool))
                exchanges[k] = (b, c) if how == "replace" else (c, b)
        else:
            exchanges[k] = (a, 0 if how == "host-0" else n + 1)
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


def test_validator_self_pair_not_counted():
    # Built directly, a self-pair passes capacity 2 and makes n(n-1)/2
    # distinct pairs with one real pair missing.
    for kind, steps in [
        (TopologyKind.FCN_FULL, [[(1, 2), (1, 3)], [(2, 2)]]),
        (TopologyKind.LCH, [[(1, 2)], [(1, 3)], [(3, 3)]]),
    ]:
        s = make_schedule(kind, 3, steps)
        report = validate_schedule(s)
        assert report == _reference_validate(s)
        assert report.violations == (Violation(None, "missing-pair", "(2,3)"),)


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_non_int_host_is_unknown(kind):
    # Through from_pairs or built directly, a host that is not an int is an
    # unknown-host, and its exchanges take no part in the pair checks. So is
    # an unhashable one, reported once per step like any other.
    steps = [[(1, 2)], [(1, "3")], [(1, 3)], [(2, 3.5)], [(2, 3)], [(None, 1)]]
    steps += [[([1], 2)], [(3, [2]), ({3: 3}, [2])]]
    # Equal to an int is not an int: True == 1 and 2.0 == 2.
    steps += [[(1, 2.0)], [(True, 3)]]
    expected = (
        Violation(2, "unknown-host", "host '3'"),
        Violation(4, "unknown-host", "host 3.5"),
        Violation(6, "unknown-host", "host None"),
        Violation(7, "unknown-host", "host [1]"),
        Violation(8, "unknown-host", "host [2]"),
        Violation(8, "unknown-host", "host {3: 3}"),
        Violation(9, "unknown-host", "host 2.0"),
        Violation(10, "unknown-host", "host True"),
    )
    all_str = [[("1", "2")], [("1", "3")], [("2", "3")]]
    t = build_topology(kind, 3)
    for build in (Schedule.from_pairs, lambda t, s: make_schedule(t.kind, 3, s)):
        assert validate_schedule(build(t, steps)).violations == expected
        report = validate_schedule(build(t, all_str))
        assert [v.kind for v in report.violations] == ["unknown-host"] * 6 + [
            "missing-pair"
        ] * 3


@pytest.mark.parametrize(
    "steps,at,odd",
    [
        ([[(1, 2.0)], [(1, 3)], [(2, 3)]], 1, 2.0),
        ([[(True, 2)], [(1, 3)], [(2, 3)]], 1, True),
        # Host 1 is checked before True turns up in its place.
        ([[(1, 3)], [(True, 2)], [(2, 3)]], 2, True),
    ],
)
def test_host_equal_to_an_int_is_unknown(steps, at, odd):
    s = Schedule.from_pairs(build_topology(TopologyKind.STAR, 3), steps)
    assert validate_schedule(s).violations == (
        Violation(at, "unknown-host", f"host {odd!r}"),
        Violation(None, "missing-pair", "(1,2)"),
    )


def test_non_int_host_beside_other_violations():
    # Int hosts keep their numeric order; other values follow, by repr.
    s = Schedule.from_pairs(
        build_topology(TopologyKind.LCH, 3), [[(1, 2), (2, "x"), ("x", 3), (0, 2)]]
    )
    assert validate_schedule(s).violations == (
        Violation(1, "unknown-host", "host 0"),
        Violation(1, "capacity", "host 2 in 3 exchanges, capacity 2"),
        Violation(1, "unknown-host", "host 'x'"),
        Violation(1, "lch-overlap", "(0,2) overlaps (1,2)"),
        Violation(None, "missing-pair", "(1,3)"),
        Violation(None, "missing-pair", "(2,3)"),
    )


def _capped(report):
    """The reference report with its missing pairs cut to the report's cap."""
    missing = [v for v in report.violations if v.kind == "missing-pair"]
    rest = report.violations[: len(report.violations) - len(missing)]
    more = len(missing) - MISSING_PAIR_LINES
    if more > 0:
        summary = Violation(None, "missing-pair", f"{more} more pairs missing")
        missing = missing[:MISSING_PAIR_LINES] + [summary]
    return ValidationReport(report.ok, rest + tuple(missing))


def test_missing_pairs_capped():
    five = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]
    cases = [
        (TopologyKind.FCN_SINGLE, 16, [[(1, 2)], [(3, 4)]]),  # 118 missing
        (TopologyKind.FCN_FULL, 15, [five]),  # exactly 100 missing: no summary
        (TopologyKind.FCN_FULL, 15, [five[:4]]),  # 101 missing: "1 more"
        # Pairs off the topology and a self-pair count for none of its pairs.
        (TopologyKind.FCN_FULL, 20, [[(1, 2), (1, 0), (3, 21), (4, 4)], [(2, 1)]]),
        (TopologyKind.LCH, 30, [[(2, 1)], [(7, 7)], [(31, 2)]]),
    ]
    for kind, n, steps in cases:
        s = make_schedule(kind, n, steps)
        assert validate_schedule(s) == _capped(_reference_validate(s)), (kind, n)
    assert _capped(_reference_validate(make_schedule(*cases[0]))).violations[-1] == (
        Violation(None, "missing-pair", "18 more pairs missing")
    )


def test_missing_pairs_walk_bounded():
    # 5 * 10**9 pairs, none present: only the first 101 are visited.
    report = validate_schedule(make_schedule(TopologyKind.STAR, 10**5, []))
    assert len(report.violations) == 101
    assert report.violations[99] == Violation(None, "missing-pair", "(1,101)")
    more = 10**5 * (10**5 - 1) // 2 - 100
    assert report.violations[100].detail == f"{more} more pairs missing"


def test_validate_memory_does_not_grow_with_n():
    # No steps: the host check holds no set of all n hosts.
    s = make_schedule(TopologyKind.STAR, 10**6, [])
    tracemalloc.start()
    try:
        report = validate_schedule(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) == MISSING_PAIR_LINES + 1
    assert peak < 5 * 2**20


# --- the data model's contract ------------------------------------------------


def test_pair_fields_and_keywords():
    assert SbepStep._fields == ("index", "exchanges")
    topo = build_topology(TopologyKind.STAR, 5)
    s = Schedule.from_pairs(topo, [[[5, 2]], [(2, 5), (1, 3)]])
    assert s.steps == (SbepStep(1, ((5, 2),)), SbepStep(2, ((2, 5), (1, 3))))
    assert s.steps[1].index == 2 and s.steps[1].exchanges[0] == (2, 5)
    for bad in ([1], [1, 2, 3], []):
        with pytest.raises(ValueError):
            Schedule.from_pairs(topo, [[(1, 2), bad]])


def _assert_plain_pairs(s):
    for step in s.steps:
        for e in step.exchanges:
            assert type(e) is tuple and len(e) == 2
            assert type(e[0]) is int and type(e[1]) is int


def test_pair_is_its_plain_tuple():
    # Generated and parsed exchanges are exact tuples of two ints.
    for kind in TopologyKind:
        for n in (2, 5, 16):
            s = generate_schedule(kind, n)
            _assert_plain_pairs(s)
            _assert_plain_pairs(text_to_schedule(schedule_to_text(s), s.topology))
            _assert_plain_pairs(json_to_schedule(schedule_to_json(s)))
    assert SbepStep(1, ((1, 2),)) == (1, ((1, 2),))


@given(st.lists(st.tuples(st.integers(-5, 50), st.integers(-5, 50))))
def test_pair_sort_order_is_field_order(pairs):
    # Initiator first, then responder.
    topo = build_topology(TopologyKind.STAR, 3)
    s = Schedule.from_pairs(topo, [[(a, b) for a, b in pairs if a != b]])
    exchanges = list(s.steps[0].exchanges)
    assert sorted(exchanges) == sorted(exchanges, key=lambda e: (e[0], e[1]))
