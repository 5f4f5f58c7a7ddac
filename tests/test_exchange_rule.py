"""One exchange rule, ``schedule.exchange_span``, at every boundary: the
validator, ``Schedule.from_pairs``, both writers and both parsers.

The code each boundary ran before the rule was written once is kept here
as the reference, and the new code must match it except where the rule
decides otherwise."""

import json
import re
from functools import reduce
from itertools import chain, count, islice, starmap
from operator import eq, or_

import pytest
from hypothesis import given, settings, strategies as st

from kexnet.errors import ScheduleFormatError
from kexnet.protocols import generate_schedule, generate_star
from kexnet.schedule import (
    SbepStep,
    Schedule,
    _accept,
    as_pairs,
    exchange_span,
    validate_schedule,
)
from kexnet.serialize import (
    json_to_schedule,
    schedule_to_json,
    schedule_to_text,
    text_to_schedule,
)
from kexnet.topology import TopologyKind, build_topology, parts_held

# --- the boundaries before the rule, kept as the reference --------------------

_STEP_RE = re.compile(r"^step [0-9]+:(?: \([0-9]+,[0-9]+\))*$")
_ID_MARKS = str.maketrans(":(,)", "    ")
_JSON_PAIR = ",\n      [\n        %s,\n        %s\n      ]"


def _reference_from_pairs(topology, steps):
    """Each pair made a tuple, then one host twice refused by ==."""
    built = tuple(tuple(map(tuple, pairs)) for pairs in steps)
    for a, b in chain.from_iterable(built):
        if a == b:
            raise ValueError(f"host {a} cannot exchange with itself")
    return Schedule(topology, tuple(map(SbepStep, count(1), built)))


def _reference_hosts(step):
    """The writers' check: the length of each exchange, and nothing else."""
    if set(map(len, step.exchanges)) - {2}:
        bad = next(e for e in step.exchanges if len(e) != 2)
        raise ValueError(f"exchange {bad!r} in step {step.index} is not two hosts")
    return tuple(chain.from_iterable(step.exchanges))


def _reference_schedule_to_text(s):
    return "".join(
        ("step %s:" + " (%s,%s)" * len(step.exchanges)) % (step.index, *_reference_hosts(step))
        + "\n"
        for step in s.steps
    )


def _reference_schedule_to_json(s):
    steps = [
        ("[" + (_JSON_PAIR * len(step.exchanges))[1:] + "\n    ]") % _reference_hosts(step)
        if step.exchanges
        else "[]"
        for step in s.steps
    ]
    body = "[\n    " + ",\n    ".join(steps) + "\n  ]" if steps else "[]"
    t = s.topology
    return (
        f'{{\n  "topology": {{\n    "kind": {json.dumps(t.kind.value)},\n'
        f'    "n_hosts": {t.n_hosts}\n  }},\n  "steps": {body}\n}}\n'
    )


def _reference_text_to_schedule(text, topology):
    """The text parser with its own self-pair test on the parsed ids."""
    steps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if _STEP_RE.match(line) is None:
            raise ScheduleFormatError(f"malformed schedule line: {line!r}")
        try:
            index, *ids = map(int, line[5:].translate(_ID_MARKS).split())
        except ValueError as exc:
            raise ScheduleFormatError(f"{exc} in line {line!r}") from exc
        initiators, responders = ids[0::2], ids[1::2]
        if any(map(eq, initiators, responders)):
            a = next(a for a, b in zip(initiators, responders) if a == b)
            raise ScheduleFormatError(
                f"host {a} cannot exchange with itself in line {line!r}"
            )
        steps.append(SbepStep(index, tuple(zip(initiators, responders))))
    return Schedule(topology=topology, steps=tuple(steps))


def _reference_json_to_schedule(text):
    """The json parser whose pair errors were Python's own unpacking ones."""
    try:
        doc = json.loads(text)
        kind = TopologyKind(doc["topology"]["kind"])
        n_hosts = doc["topology"]["n_hosts"]
        steps = doc["steps"]
        hosts = chain.from_iterable(chain.from_iterable(steps))
        if {type(n_hosts), *map(type, hosts)} != {int}:
            raise TypeError("n_hosts and host ids must be integers")
        return _reference_from_pairs(build_topology(kind, n_hosts), steps)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ScheduleFormatError(f"malformed JSON schedule: {exc}") from exc


def _run(f, *args):
    """What f returns, or the TypeError or ValueError it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return exc


def _failed(outcome):
    return isinstance(outcome, Exception)


# --- generated schedules: the same as before ----------------------------------


def _assert_matches_reference(s):
    steps = [list(step.exchanges) for step in s.steps]
    lists = [[list(e) for e in step] for step in steps]
    assert Schedule.from_pairs(s.topology, steps) == _reference_from_pairs(s.topology, steps)
    assert Schedule.from_pairs(s.topology, lists) == s
    text, doc = schedule_to_text(s), schedule_to_json(s)
    assert text == _reference_schedule_to_text(s)
    assert doc == _reference_schedule_to_json(s)
    assert text_to_schedule(text, s.topology) == _reference_text_to_schedule(text, s.topology)
    assert json_to_schedule(doc) == _reference_json_to_schedule(doc) == s


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_generated_schedules_match_reference(kind):
    for n in range(2, 61):
        _assert_matches_reference(generate_schedule(kind, n))


def test_star400_matches_reference():
    _assert_matches_reference(generate_star(400))


# --- exchanges of every shape -------------------------------------------------


class _SizedNotIterable:
    def __len__(self):
        return 2

    def __repr__(self):
        return "E()"


_LEAVES = (
    st.integers(-2, 7)
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.text(max_size=2)
    | st.binary(max_size=2)
    | st.none()
    | st.just(_SizedNotIterable())
)
_KEYS = st.integers(-1, 4) | st.text(max_size=1)
_ANYTHING = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, kids, max_size=2)
    | st.sets(_KEYS, max_size=3),
    max_leaves=6,
)
# Most exchanges are two hosts, often ints in range, so that steps get past
# the fast checks as well as fail them.
_HOST = st.integers(-1, 7) | st.sampled_from([True, False, 2.0, 1.5, "1", b"1", None])
_EXCHANGES = (
    st.tuples(st.integers(1, 6), st.integers(1, 6))
    | st.tuples(_HOST, _HOST)
    | st.lists(_HOST, min_size=2, max_size=2)
    | _ANYTHING
)
_STEPS = st.lists(st.lists(_EXCHANGES, max_size=4), max_size=4)
_KINDS = st.sampled_from(list(TopologyKind))


def _no_span(verdict):
    return type(verdict) is str


@settings(deadline=None, max_examples=400)
@given(kind=_KINDS, n=st.integers(2, 6), steps=_STEPS)
def test_one_rule_at_every_boundary(kind, n, steps):
    t = build_topology(kind, n)
    exchanges = list(chain.from_iterable(steps))
    verdicts = [exchange_span(e) for e in exchanges]
    bad = [e for e, v in zip(exchanges, verdicts) if v == "bad-exchange"]
    s = Schedule(t, tuple(SbepStep(i, tuple(step)) for i, step in enumerate(steps, 1)))

    # The validator never raises, and reports a bad-exchange where the rule does.
    report = validate_schedule(s)
    reported = [v.detail for v in report.violations if v.kind == "bad-exchange"]
    assert reported == [f"exchange {e!r} is not two hosts" for e in bad]

    # from_pairs raises exactly then, and otherwise keeps every exchange.
    built = _run(Schedule.from_pairs, t, steps)
    assert _failed(built) == bool(bad)
    if not bad:
        assert built == Schedule(t, tuple(
            SbepStep(i, tuple(map(tuple, step))) for i, step in enumerate(steps, 1)
        ))
        assert validate_schedule(built) == report

    # The batch form raises exactly then too, and otherwise gives every
    # exchange as a tuple; with int hosts, each of them has a span.
    pairs = _run(as_pairs, tuple(exchanges))
    assert _failed(pairs) == bool(bad)
    if not bad:
        assert pairs == tuple(map(tuple, exchanges))
        ints = {type(h) for h in chain.from_iterable(pairs)} <= {int}
        assert ints == (not any(map(_no_span, verdicts)))
    # The validator's fast accept gives the rule's spans.
    spans, sizes, failing = _accept(s.steps, t)
    runs = iter(spans)
    for position, (step, size) in enumerate(zip(s.steps, sizes)):
        run = list(islice(runs, size))
        if position not in failing:
            assert run == [exchange_span(e) for e in step.exchanges]

    # Each writer refuses an exchange with no span or a negative host, or
    # writes what its parser reads back to the same bytes.
    unwritable = any(_no_span(v) or v[0] < 0 for v in verdicts)
    for write, parse in (
        (schedule_to_text, lambda text: text_to_schedule(text, t)),
        (schedule_to_json, json_to_schedule),
    ):
        out = _run(write, s)
        assert isinstance(out, ValueError) if unwritable else write(parse(out)) == out


def _reference_part_held_twice(kind, spans, hosts):
    """The part rule of one step, before it took the runs of many."""
    if kind is TopologyKind.LCH:
        masks = [parts_held(kind, lo, hi) for lo, hi in spans]
        return 0 in masks or sum(masks) != reduce(or_, masks, 0)
    if kind is TopologyKind.FCN_FULL:
        return len(set(spans)) < len(spans) or any(starmap(eq, spans))
    return len(set(hosts)) < len(hosts)


def _reference_accepted_spans(step, t):
    """The validator's fast accept, one step at a time, as it was before it
    took all the steps at once."""
    exchanges = step.exchanges
    if set(map(type, exchanges)) - {tuple}:
        return None
    try:
        spans = [e if a < b else (b, a) for e in exchanges for a, b in (e,)]
    except (TypeError, ValueError):  # an exchange that is not two comparable hosts
        return None
    lows, highs = [lo for lo, _ in spans], [hi for _, hi in spans]
    hosts = lows + highs
    if set(map(type, hosts)) - {int}:
        return None
    bounded = not spans or 1 <= min(lows) and max(highs) <= t.n_hosts
    return spans if bounded and not _reference_part_held_twice(t.kind, spans, hosts) else None


@settings(deadline=None, max_examples=400)
@given(kind=_KINDS, n=st.integers(2, 6), steps=_STEPS)
def test_fast_accept_is_the_per_step_one(kind, n, steps):
    # The fast accept refuses the steps that the per-step accept refuses,
    # and gives the others' spans as it does.
    t = build_topology(kind, n)
    s = Schedule(t, tuple(SbepStep(i, tuple(step)) for i, step in enumerate(steps, 1)))
    spans, sizes, failing = _accept(s.steps, t)
    per_step = [_reference_accepted_spans(step, t) for step in s.steps]
    assert failing == {p for p, got in enumerate(per_step) if got is None}
    assert len(sizes) == len(s.steps) and sum(sizes) == len(spans)
    runs = iter(spans)
    for position, size in enumerate(sizes):
        run = list(islice(runs, size))
        if position not in failing:
            assert run == per_step[position]


@settings(deadline=None, max_examples=400)
@given(kind=_KINDS, n=st.integers(2, 6), steps=_STEPS)
def test_boundaries_differ_from_reference_only_by_the_rule(kind, n, steps):
    t = build_topology(kind, n)
    exchanges = list(chain.from_iterable(steps))
    verdicts = [exchange_span(e) for e in exchanges]

    new, old = _run(Schedule.from_pairs, t, steps), _run(_reference_from_pairs, t, steps)
    if not _failed(new) and not _failed(old):
        assert new == old
    elif not _failed(old):
        # Newly refused: an exchange that is not a tuple or list.
        assert any(type(e) is not tuple and type(e) is not list for e in exchanges)
    elif not _failed(new):
        # Newly kept: two equal items that are not both ints, as (1, True).
        assert any(
            v == "unknown-host" and e[0] == e[1] for e, v in zip(exchanges, verdicts)
        )

    s = Schedule(t, tuple(SbepStep(i, tuple(step)) for i, step in enumerate(steps, 1)))
    for write, reference in (
        (schedule_to_text, _reference_schedule_to_text),
        (schedule_to_json, _reference_schedule_to_json),
    ):
        new, old = _run(write, s), _run(reference, s)
        assert not _failed(new) or _failed(old) or any(
            _no_span(v) or v[0] < 0 for v in verdicts
        )
        if not _failed(new):
            assert new == old


_TEXT_IDS = st.integers(0, 6) | st.sampled_from([10, 100, 12345])
_TEXT_LINES = st.lists(
    st.tuples(st.integers(0, 9), st.lists(st.tuples(_TEXT_IDS, _TEXT_IDS), max_size=4))
    .map(lambda p: f"step {p[0]}:" + "".join(f" ({a},{b})" for a, b in p[1]))
    | st.text(alphabet="step 0123456789:(),\n", max_size=20),
    max_size=6,
).map("\n".join)


@settings(deadline=None, max_examples=400)
@given(text=_TEXT_LINES)
def test_text_parser_outcomes_unchanged(text):
    topo = build_topology(TopologyKind.STAR, 4)
    new, old = _run(text_to_schedule, text, topo), _run(_reference_text_to_schedule, text, topo)
    assert type(new) is type(old) and str(new) == str(old)
    if not _failed(new):
        assert new == old


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False)
    | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
_JSON_DOCS = st.fixed_dictionaries(
    {
        "topology": st.fixed_dictionaries(
            {"kind": st.sampled_from(["star", "lch", "fcn1"]), "n_hosts": st.integers(2, 5)}
        ),
        "steps": st.lists(
            st.lists(st.lists(st.integers(0, 6), max_size=3) | _JSON_VALUES, max_size=3),
            max_size=4,
        ),
    }
)
_UNPACKING = re.compile(
    r"malformed JSON schedule: (not enough|too many) values to unpack \(expected 2(, got \d+)?\)"
)
_NOT_TWO_HOSTS = re.compile(r"malformed JSON schedule: exchange .* is not two hosts")


@settings(deadline=None, max_examples=400)
@given(doc=_JSON_DOCS | _JSON_VALUES)
def test_json_parser_outcomes_unchanged_but_for_unpacking(doc):
    text = json.dumps(doc)
    new, old = _run(json_to_schedule, text), _run(_reference_json_to_schedule, text)
    assert type(new) is type(old)
    if _failed(new) and _UNPACKING.fullmatch(str(old)):
        assert _NOT_TWO_HOSTS.fullmatch(str(new))
    elif _failed(new):
        assert str(new) == str(old)
    else:
        assert new == old

