import json
import time
import tracemalloc
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from kexnet import schedule
from kexnet.errors import ScheduleFormatError
from kexnet.protocols import generate_schedule, generate_star
from kexnet.schedule import (
    MISSING_PAIR_LINES,
    SbepStep,
    Schedule,
    ValidationReport,
    Violation,
    part_held_twice,
    validate_schedule,
)
from kexnet.serialize import (
    json_to_schedule,
    schedule_to_json,
    schedule_to_text,
    text_to_schedule,
)
from kexnet.topology import (
    NetworkTopology,
    TopologyKind,
    build_topology,
    parts_held,
)


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


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_host_in_two_exchanges(kind):
    # Host 2 in two exchanges of one step: over capacity where each host has
    # one exchanger; the chain's two and fcn-full's n-1 exchangers allow it.
    s = make_schedule(kind, 3, [[(1, 2), (2, 3)], [(1, 3)]])
    kinds = {v.kind for v in validate_schedule(s).violations}
    one_exchanger = kind in (TopologyKind.STAR, TopologyKind.FCN_SINGLE)
    assert kinds == ({"capacity"} if one_exchanger else set())


def test_empty_steps_allowed():
    steps = [[], [(1, 2), (3, 4)], [], [(1, 3), (2, 4)], [(1, 4), (2, 3)], []]
    s = make_schedule(TopologyKind.STAR, 4, steps)
    assert validate_schedule(s).ok


def test_no_steps_misses_every_pair():
    report = validate_schedule(make_schedule(TopologyKind.STAR, 4, []))
    assert report.violations == tuple(
        Violation(None, "missing-pair", f"({a},{b})")
        for a, b in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )


def test_pair_given_in_both_orders_is_duplicate():
    s = make_schedule(TopologyKind.STAR, 3, [[(1, 2)], [(2, 1)], [(1, 3)], [(3, 2)]])
    report = validate_schedule(s)
    assert report.violations == (
        Violation(2, "duplicate-pair", "(1,2) already exchanged in step 1"),
    )


@pytest.mark.parametrize("kind", list(TopologyKind))
@settings(deadline=None)
@given(n=st.integers(min_value=2, max_value=30))
def test_each_pair_once(kind, n):
    # Counted here without the validator: every host pair in exactly one step.
    s = generate_schedule(kind, n)
    coverage = Counter(tuple(sorted(e)) for step in s.steps for e in step.exchanges)
    assert coverage == dict.fromkeys(s.topology.pairs(), 1)


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


def _step_interval_violations(step, t):
    # Chain exclusivity: spans may touch at endpoints but not overlap inside.
    out = []
    exchanges = sorted(step.exchanges)
    spans = [(a, b) if a < b else (b, a) for a, b in exchanges]
    for i, (lo1, hi1) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            lo2, hi2 = spans[j]
            if not (hi1 <= lo2 or hi2 <= lo1):
                out.append(
                    Violation(
                        step.index,
                        "lch-overlap",
                        "(%s,%s) overlaps (%s,%s)" % (*exchanges[i], *exchanges[j]),
                    )
                )
    return out


def _reference_validate(s):
    t = s.topology
    violations, steps = [], []
    for position, step in enumerate(s.steps, 1):
        if step.index != position:
            violations.append(
                Violation(step.index, "step-index", f"expected index {position}")
            )
        # One host twice is not an exchange and takes no part in the rest.
        for a, b in step.exchanges:
            if a == b:
                detail = f"exchange {(a, b)!r} is not two hosts"
                violations.append(Violation(step.index, "bad-exchange", detail))
        step = SbepStep(step.index, tuple((a, b) for a, b in step.exchanges if a != b))
        steps.append(step)
        violations.extend(_reference_capacity_violations(step, t))
        if t.kind is TopologyKind.LCH:
            violations.extend(_step_interval_violations(step, t))

    seen = {}
    for step in steps:
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
    "misnumber", "self-pair",
)


def _corrupt(s, how, data):
    """``s`` with one corruption of kind ``how``, at places drawn from ``data``."""
    n = s.topology.n_hosts
    steps = [[step.index, list(step.exchanges)] for step in s.steps]
    step = data.draw(st.sampled_from(steps))
    index, exchanges = step
    if how == "self-pair":
        h = data.draw(st.integers(1, n))
        exchanges.insert(data.draw(st.integers(0, len(exchanges))), (h, h))
    elif how == "misnumber":
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


@pytest.mark.parametrize("kind", [TopologyKind.LCH, TopologyKind.STAR])
@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    how=st.sampled_from(CORRUPTIONS),
    data=st.data(),
)
def test_one_bad_step_matches_reference(kind, n, how, data):
    # One corrupted step, anywhere in the schedule.
    s = _corrupt(generate_schedule(kind, n), how, data)
    assert validate_schedule(s) == _capped(_reference_validate(s))


def _one_bad_step(s, position, how):
    steps = list(s.steps)
    index, exchanges = steps[position]
    a, b = exchanges[0]
    n = s.topology.n_hosts
    bad = {
        "host n+1": ((a, n + 1), *exchanges[1:]),
        "self-pair": (*exchanges, (a, a)),
        "host twice": (*exchanges, (a, exchanges[1][0])),
        "non-int host": ((a, float(b)), *exchanges[1:]),
        "not two hosts": ((a, b, 1), *exchanges[1:]),
    }[how]
    steps[position] = SbepStep(index, bad)
    return Schedule(s.topology, tuple(steps))


@pytest.mark.parametrize(
    "how", ["host n+1", "self-pair", "host twice", "non-int host", "not two hosts"]
)
def test_one_bad_step_alone_takes_the_per_step_path(how, monkeypatch):
    # Of the 499 steps of star n=400, only the bad one goes step by step.
    s = generate_star(400)
    bad = _one_bad_step(s, 300, how)
    looked_at, per_step = [], schedule._step_violations
    spy = lambda step, t: looked_at.append(step.index) or per_step(step, t)
    monkeypatch.setattr(schedule, "_step_violations", spy)
    assert validate_schedule(s).ok and looked_at == []
    report = validate_schedule(bad)
    assert looked_at == [301]
    past_reference = {"non-int host": "unknown-host", "not two hosts": "bad-exchange"}
    if how in past_reference:
        first = report.violations[0]
        assert (first.step_index, first.kind) == (301, past_reference[how])
    else:
        assert report == _capped(_reference_validate(bad))


@pytest.mark.parametrize("how", ["host n+1", "self-pair"])
def test_a_refused_exchange_takes_one_span_pass(how, monkeypatch):
    # The accept's one span pass finds the step of a refused exchange: the
    # accept looks at no step on its own, nor again at the other 498.
    bad = _one_bad_step(generate_star(400), 300, how)
    passes, spans = [], schedule._spans
    spy = lambda *args: passes.append(args) or spans(*args)
    monkeypatch.setattr(schedule, "_spans", spy)
    assert schedule._accept(bad.steps, bad.topology)[2] == {300}
    assert len(passes) == 1


def _parts(kind, a, b):
    """What the exchange (a, b), a != b, holds, written out for the tests:
    its two hosts, the chain segments it crosses, or its fcn-full cable."""
    lo, hi = sorted((a, b))
    if kind is TopologyKind.LCH:
        return set(range(lo, hi))
    if kind is TopologyKind.FCN_FULL:
        return {(lo, hi)}
    return {lo, hi}


@pytest.mark.parametrize("kind", list(TopologyKind))
@given(
    n=st.integers(min_value=2, max_value=12),
    pairs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), max_size=40),
)
def test_no_part_held_twice_breaks_no_step_rule(kind, n, pairs):
    # The lemma the validator's fast accept rests on: a step of int hosts in
    # 1..n, no self-pair, and no part held twice breaks no per-step rule.
    held, step = set(), []
    for a, b in pairs:
        if a != b and a <= n and b <= n and held.isdisjoint(_parts(kind, a, b)):
            held |= _parts(kind, a, b)
            step.append((a, b))
    s = Schedule(build_topology(kind, n), (SbepStep(1, tuple(step)),))
    kinds = {v.kind for v in _reference_validate(s).violations}
    assert not kinds & {"capacity", "unknown-host", "lch-overlap"}


_STEP_PAIRS = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), max_size=10)


@pytest.mark.parametrize("kind", list(TopologyKind))
@given(steps=st.lists(_STEP_PAIRS, max_size=4))
def test_part_rule_is_the_written_out_one(kind, steps):
    # Over the runs of several steps at once, the rule names each step that
    # holds a part twice, written out pair by pair, among its spans lo < hi.
    expected, runs = set(), []
    for position, pairs in enumerate(steps):
        spans = [tuple(sorted(p)) for p in pairs if p[0] != p[1]]
        parts = [_parts(kind, lo, hi) for lo, hi in spans]
        if any(not a.isdisjoint(b) for i, a in enumerate(parts) for b in parts[i + 1 :]):
            expected.add(position)
        runs.append(spans)
    spans = [span for run in runs for span in run]
    sizes = [len(run) for run in runs]
    assert part_held_twice(kind, spans, sizes) == expected
    if kind is not TopologyKind.FCN_FULL:
        for lo, hi in set(spans):
            bits = parts_held(kind, lo, hi)
            assert {b for b in range(10) if bits >> b & 1} == _parts(kind, lo, hi)
    # A self-pair has no span: the accept refuses its step for every kind.
    t = build_topology(kind, 9)
    s = Schedule(t, tuple(SbepStep(i, tuple(pairs)) for i, pairs in enumerate(steps, 1)))
    self_paired = {p for p, pairs in enumerate(steps) if any(a == b for a, b in pairs)}
    assert schedule._accept(s.steps, t)[2] == expected | self_paired


def test_cables_are_distinct_bits():
    pairs = build_topology(TopologyKind.FCN_FULL, 40).pairs()
    cables = [parts_held(TopologyKind.FCN_FULL, lo, hi) for lo, hi in pairs]
    assert sorted(cables) == [1 << b for b in range(len(cables))]


def test_validator_self_pair_not_counted():
    # Built directly, a self-pair is one bad exchange: it loads no host and
    # stands for no pair, so one real pair is missing.
    for kind, steps, bad in [
        (TopologyKind.FCN_FULL, [[(1, 2), (1, 3)], [(2, 2)]], "(2, 2)"),
        (TopologyKind.LCH, [[(1, 2)], [(1, 3)], [(3, 3)]], "(3, 3)"),
    ]:
        s = make_schedule(kind, 3, steps)
        report = validate_schedule(s)
        assert report == _reference_validate(s)
        assert report.violations == (
            Violation(len(steps), "bad-exchange", f"exchange {bad} is not two hosts"),
            Violation(None, "missing-pair", "(2,3)"),
        )


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_self_pair_added_is_one_bad_exchange(kind):
    # Added to a valid schedule, in a step of its own or beside the first
    # step's exchanges, a self-pair is reported once and nothing else: no
    # capacity line on fcn-full, and not ok on the chain.
    first, *rest = [step.exchanges for step in generate_schedule(kind, 4).steps]
    for steps, at in [([first, *rest, [(3, 3)]], len(rest) + 2), ([[*first, (3, 3)], *rest], 1)]:
        report = validate_schedule(make_schedule(kind, 4, steps))
        bad = Violation(at, "bad-exchange", "exchange (3, 3) is not two hosts")
        assert report == ValidationReport(False, (bad,))


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
        # Equal to the other host is not one host twice.
        ([[(1, True)], [(1, 3)], [(2, 3)]], 1, True),
        ([[(1, 3)], [(2, 3)], [(2, 2.0)]], 3, 2.0),
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
    """The reference report cut to the report's caps: each step's chain
    overlaps, and the missing pairs."""
    missing = [v for v in report.violations if v.kind == "missing-pair"]
    rest = report.violations[: len(report.violations) - len(missing)]
    more = len(missing) - MISSING_PAIR_LINES
    if more > 0:
        summary = Violation(None, "missing-pair", f"{more} more pairs missing")
        missing = missing[:MISSING_PAIR_LINES] + [summary]
    return ValidationReport(report.ok, _capped_overlaps(rest) + tuple(missing))


def _capped_overlaps(violations):
    # One step's overlaps are a run of lch-overlap lines with its index.
    out = []
    for (kind, index), run in groupby(violations, lambda v: (v.kind, v.step_index)):
        run = list(run)
        if kind == "lch-overlap" and len(run) > MISSING_PAIR_LINES:
            more = f"{len(run) - MISSING_PAIR_LINES} more overlaps"
            run = run[:MISSING_PAIR_LINES] + [Violation(index, kind, more)]
        out += run
    return tuple(out)


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


def _every_pair_in_one_step(n):
    return make_schedule(TopologyKind.LCH, n, [build_topology(TopologyKind.LCH, n).pairs()])


def test_overlaps_capped():
    long_and_units = lambda n: [[(1, n)] + [(i, i + 1) for i in range(1, n)]]
    cases = [
        (TopologyKind.LCH, 101, long_and_units(101)),  # exactly 100: no summary
        (TopologyKind.LCH, 102, long_and_units(102)),  # 101: "1 more overlaps"
        # Self-pairs inside spans, a pair given twice and reversed, and a
        # host off the chain, beside a capped step.
        (TopologyKind.LCH, 9, [[(5, 5), (5, 5), (1, 9), (9, 1), (4, 0)], *long_and_units(9)]),
    ]
    for kind, n, steps in cases:
        s = make_schedule(kind, n, steps)
        assert validate_schedule(s) == _capped(_reference_validate(s)), n
    assert validate_schedule(make_schedule(*cases[1])).violations[100] == (
        Violation(1, "lch-overlap", "1 more overlaps")
    )
    for n in (12, 20):
        s = _every_pair_in_one_step(n)
        assert validate_schedule(s) == _capped(_reference_validate(s))


def test_overlap_report_bounded():
    # 4,950 pairs in one step overlap 8,165,850 times; uncapped, the report
    # took about 30 s.
    start = time.perf_counter()
    report = validate_schedule(_every_pair_in_one_step(100))
    assert time.perf_counter() - start < 2
    overlaps = [v for v in report.violations if v.kind == "lch-overlap"]
    assert len(overlaps) == MISSING_PAIR_LINES + 1
    assert overlaps[-1].detail == f"{8_165_850 - MISSING_PAIR_LINES} more overlaps"


@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=60),
)
def test_capped_overlaps_match_reference(n, pairs):
    # Self-pairs, reversed and repeated pairs and hosts off the chain, in a
    # step with up to 1,770 overlaps.
    s = make_schedule(TopologyKind.LCH, n, [pairs])
    assert validate_schedule(s) == _capped(_reference_validate(s))


@settings(deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    pairs=st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda p: p[0] != p[1]),
        min_size=15,
        max_size=60,
    ),
)
def test_overlap_count_matches_pairwise(n, pairs):
    # Past the cap, the summary line counts the overlaps not listed, against
    # a count of every pair of spans, hosts off the chain among them.
    s = make_schedule(TopologyKind.LCH, n, [pairs])
    spans = [tuple(sorted(p)) for p in pairs]
    pairwise = sum(
        not (hi1 <= lo2 or hi2 <= lo1)
        for i, (lo1, hi1) in enumerate(spans)
        for lo2, hi2 in spans[i + 1 :]
    )
    overlaps = [v.detail for v in validate_schedule(s).violations if v.kind == "lch-overlap"]
    if pairwise > MISSING_PAIR_LINES:
        assert overlaps[-1] == f"{pairwise - MISSING_PAIR_LINES} more overlaps"
    else:
        assert len(overlaps) == pairwise


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_exchange_not_two_hosts(kind):
    # Each is reported once and, like a host that is not an int, takes no
    # part in the other checks: it loads no host and names no pair.
    t = build_topology(kind, 3)
    s = Schedule(t, (SbepStep(1, ((1, 2, 3),)),))
    assert validate_schedule(s).violations[0] == Violation(
        1, "bad-exchange", "exchange (1, 2, 3) is not two hosts"
    )
    # One host twice is not two hosts, nor an unknown host when off the network.
    # Only a tuple or list is an exchange: not a dict of two keys, nor a str,
    # bytes or set of two items.
    steps = [((1, 2, 3), (1, 2)), ((1,), (1, 3), 5), ((2, 3), (2, 2), (9, 9))]
    steps += [({1: 3, 2: 2}, "12", b"12", {1, 2})]
    s = Schedule(t, tuple(SbepStep(i, e) for i, e in enumerate(steps, 1)))
    assert validate_schedule(s).violations == (
        Violation(1, "bad-exchange", "exchange (1, 2, 3) is not two hosts"),
        Violation(2, "bad-exchange", "exchange (1,) is not two hosts"),
        Violation(2, "bad-exchange", "exchange 5 is not two hosts"),
        Violation(3, "bad-exchange", "exchange (2, 2) is not two hosts"),
        Violation(3, "bad-exchange", "exchange (9, 9) is not two hosts"),
        Violation(4, "bad-exchange", "exchange {1: 3, 2: 2} is not two hosts"),
        Violation(4, "bad-exchange", "exchange '12' is not two hosts"),
        Violation(4, "bad-exchange", "exchange b'12' is not two hosts"),
        Violation(4, "bad-exchange", "exchange {1, 2} is not two hosts"),
    )


class _SizedNotIterable:
    def __len__(self):
        return 2

    def __repr__(self):
        return "E()"


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_exchange_sized_not_iterable(kind):
    # Its length is 2, yet it holds no hosts: one bad exchange, no raise.
    t = build_topology(kind, 3)
    s = Schedule(t, (SbepStep(1, ((1, 2), _SizedNotIterable())),))
    assert validate_schedule(s).violations == (
        Violation(1, "bad-exchange", "exchange E() is not two hosts"),
        Violation(None, "missing-pair", "(1,3)"),
        Violation(None, "missing-pair", "(2,3)"),
    )


def test_missing_pairs_walk_bounded():
    # 5 * 10**9 pairs, none present: only the first 101 are visited.
    report = validate_schedule(make_schedule(TopologyKind.STAR, 10**5, []))
    assert len(report.violations) == 101
    assert report.violations[99] == Violation(None, "missing-pair", "(1,101)")
    more = 10**5 * (10**5 - 1) // 2 - 100
    assert report.violations[100].detail == f"{more} more pairs missing"


@pytest.mark.parametrize("kind,n", [(TopologyKind.STAR, 40), (TopologyKind.FCN_SINGLE, 12)])
def test_no_missing_pair_walk_with_every_pair_seen(kind, n, monkeypatch):
    # One pair copied into another step, as in perfbench's "dup" corruption:
    # every span lies in 1..n and all n(n-1)/2 pairs are seen, so the report
    # names no missing pair without walking the pairs.
    steps = [list(step.exchanges) for step in generate_schedule(kind, n).steps]
    steps[-1].append(steps[0][0])
    s = make_schedule(kind, n, steps)
    expected = _reference_validate(s)
    assert "duplicate-pair" in {v.kind for v in expected.violations}

    def no_walk(self):
        raise AssertionError("walked the pairs")

    monkeypatch.setattr(NetworkTopology, "pairs", no_walk)
    monkeypatch.setattr(NetworkTopology, "pairs_by_host", no_walk)
    assert validate_schedule(s) == expected


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
