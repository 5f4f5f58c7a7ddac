import dataclasses
import json
import re
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from kexnet import serialize
from kexnet.errors import ScheduleFormatError
from kexnet.protocols import generate_schedule, generate_star
from kexnet.schedule import SbepStep, Schedule, exchange_span
from kexnet.serialize import (
    json_to_schedule,
    schedule_to_json,
    schedule_to_text,
    text_to_schedule,
)
from kexnet.topology import TopologyKind, build_topology


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_text_round_trip(kind, n):
    s = generate_schedule(kind, n)
    text = schedule_to_text(s)
    assert text_to_schedule(text, s.topology) == s
    assert schedule_to_text(text_to_schedule(text, s.topology)) == text


@pytest.mark.parametrize("kind", list(TopologyKind))
@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_json_round_trip(kind, n):
    s = generate_schedule(kind, n)
    doc = schedule_to_json(s)
    assert json_to_schedule(doc) == s
    assert schedule_to_json(json_to_schedule(doc)) == doc


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_steps_built_in_c_are_sbep_steps(kind):
    # Schedule.from_pairs and the block parser build steps with tuple.__new__,
    # not the constructor: each is an exact SbepStep equal to SbepStep(...)'s.
    for n in range(2, 41):
        s = generate_schedule(kind, n)
        expected = tuple(SbepStep(i, step.exchanges) for i, step in enumerate(s.steps, 1))
        for steps in (s.steps, text_to_schedule(schedule_to_text(s), s.topology).steps):
            assert {type(step) for step in steps} == {SbepStep}
            assert steps == expected


def test_parsed_steps_keep_their_indices():
    text = "step 7: (1,2)\nstep 3: (2,3) (1,4)\n"
    steps = text_to_schedule(text, build_topology(TopologyKind.STAR, 4)).steps
    assert {type(step) for step in steps} == {SbepStep}
    assert steps == (SbepStep(7, ((1, 2),)), SbepStep(3, ((2, 3), (1, 4))))


def test_text_format_shape():
    s = generate_schedule(TopologyKind.STAR, 5)
    lines = schedule_to_text(s).splitlines()
    assert len(lines) == 6
    assert lines[0] == "step 1: (1,2) (3,4)"


def test_malformed_line_rejected():
    s = generate_schedule(TopologyKind.STAR, 2)
    with pytest.raises(ValueError):
        text_to_schedule("step one: (1,2)", s.topology)


def _reference_json(s):
    """The json writer before the direct one: the encoder's own indent=2 layout."""
    doc = {
        "topology": {"kind": s.topology.kind.value, "n_hosts": s.topology.n_hosts},
        "steps": [
            [[a, b] for a, b in step.exchanges] for step in s.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_json_writer_matches_reference(kind):
    for n in range(2, 61):
        s = generate_schedule(kind, n)
        assert schedule_to_json(s) == _reference_json(s), n


def test_json_writer_matches_reference_star400():
    s = generate_schedule(TopologyKind.STAR, 400)
    assert schedule_to_json(s) == _reference_json(s)


_HOST_IDS = st.integers(min_value=0, max_value=10**6)
_PAIRS = st.tuples(_HOST_IDS, _HOST_IDS).filter(lambda p: p[0] != p[1])
_SCHEDULES = st.builds(
    Schedule.from_pairs,
    st.builds(
        build_topology,
        st.sampled_from(list(TopologyKind)),
        st.integers(min_value=2, max_value=10**4),
    ),
    st.lists(st.lists(_PAIRS, max_size=4), max_size=5),
)


@given(s=_SCHEDULES)
def test_json_writer_matches_reference_arbitrary(s):
    # No steps, empty steps and multi-digit ids, valid or not.
    text = schedule_to_json(s)
    assert text == _reference_json(s)
    assert json_to_schedule(text) == s


def test_json_writer_edge_cases():
    topo = build_topology(TopologyKind.STAR, 3)
    for steps in ([], [[]], [[], [(1, 2)], []], [[(123, 4567)]]):
        s = Schedule.from_pairs(topo, steps)
        assert schedule_to_json(s) == _reference_json(s)


@pytest.mark.parametrize(
    "exchanges",
    [
        ((1, 2, 3), (4,)),
        ((1,), (2, 3, 4)),
        ((1, 2), (1, 2, 3)),
        ((),),
        ((1, True),),
        ((2, 2.0),),
        ((-1, 2),),
        ("12",),
        ({1: 3, 2: 2},),
    ],
)
def test_writers_refuse_exchange_not_two_hosts(exchanges):
    # Flattened, the first four hold two hosts per exchange on average, and
    # the rest are two ids each when written: each writer must refuse them,
    # not write other pairs or a line the parsers refuse.
    s = Schedule(build_topology(TopologyKind.STAR, 5), (SbepStep(1, exchanges),))
    bad = next(e for e in exchanges if type(exchange_span(e)) is str or min(e) < 0)
    for write in (schedule_to_text, schedule_to_json):
        with pytest.raises(ValueError) as info:
            write(s)
        assert str(info.value).startswith(f"exchange {bad!r} in step 1 is not two hosts")


@pytest.mark.parametrize("pair", [[1], [1, 2, 3], []])
def test_json_exchange_not_two_hosts_message(pair):
    doc = {"topology": {"kind": "star", "n_hosts": 3}, "steps": [[[2, 3]], [pair]]}
    with pytest.raises(ScheduleFormatError) as info:
        json_to_schedule(json.dumps(doc))
    assert str(info.value) == f"malformed JSON schedule: exchange {pair!r} is not two hosts"


def test_self_pair_rejected_by_both_parsers():
    topo = build_topology(TopologyKind.STAR, 3)
    with pytest.raises(ScheduleFormatError, match="itself"):
        text_to_schedule("step 1: (1,2)\nstep 2: (2,2)\n", topo)
    doc = {"topology": {"kind": "star", "n_hosts": 3}, "steps": [[[1, 2]], [[2, 2]]]}
    with pytest.raises(ScheduleFormatError, match="itself"):
        json_to_schedule(json.dumps(doc))


@pytest.mark.parametrize(
    "pair",
    [[1], [1, 2, 3], [], [True, 2], [1, False], [1.0, 2], [1, 2.5], ["1", 2], [1, "2"]],
)
def test_json_bad_pair_rejected(pair):
    doc = {"topology": {"kind": "star", "n_hosts": 3}, "steps": [[[2, 3], pair]]}
    with pytest.raises(ScheduleFormatError):
        json_to_schedule(json.dumps(doc))


@pytest.mark.parametrize("n_hosts", [True, 3.0, "3"])
def test_json_bad_host_count_rejected(n_hosts):
    doc = {"topology": {"kind": "star", "n_hosts": n_hosts}, "steps": [[[1, 2]]]}
    with pytest.raises(ScheduleFormatError):
        json_to_schedule(json.dumps(doc))


# --- the pairs Schedule.from_pairs keeps for the writers ----------------------


def test_checked_pairs_left_out_of_eq_hash_repr_and_replace():
    s = generate_star(6)
    direct = Schedule(s.topology, s.steps)
    assert s.checked_pairs is not None and direct.checked_pairs is None
    assert (s, hash(s), repr(s)) == (direct, hash(direct), repr(direct))
    assert "checked_pairs" not in repr(s)
    # dataclasses.replace builds a new Schedule, which holds no kept pairs
    # for the new steps.
    replaced = dataclasses.replace(s, steps=s.steps[:2])
    assert replaced.checked_pairs is None
    assert replaced == Schedule(s.topology, s.steps[:2])


def _written(write, s):
    """What a writer gives for s: its text, or its ValueError message."""
    try:
        return write(s)
    except ValueError as exc:
        return str(exc)


# Hosts of every kind an exchange may hold: ints of either sign, and values
# that are not int hosts. from_pairs refuses only one host twice.
_ANY_HOSTS = st.one_of(
    st.integers(-3, 12), st.booleans(), st.floats(-2, 12), st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)
_ANY_EXCHANGES = st.one_of(
    st.tuples(_ANY_HOSTS, _ANY_HOSTS), st.lists(_ANY_HOSTS, min_size=2, max_size=2)
).filter(lambda e: e[0] != e[1])


@given(steps=st.lists(st.lists(_ANY_EXCHANGES, max_size=4), max_size=5))
@example(steps=[[(1, 2)], [(3, -1)]])
@example(steps=[[(1, 2), ("3", 4)]])
def test_writers_same_for_kept_and_unkept_pairs(steps):
    # The writers give the same bytes, or the same ValueError message, for
    # a schedule from_pairs built as for the same steps built directly.
    s = Schedule.from_pairs(build_topology(TopologyKind.STAR, 5), steps)
    direct = Schedule(s.topology, s.steps)
    for write in (schedule_to_text, schedule_to_json):
        assert _written(write, s) == _written(write, direct)


@pytest.mark.parametrize("kind", list(TopologyKind))
def test_writers_do_not_check_exchanges_again(kind):
    # from_pairs checked every exchange of a generated schedule: the writers
    # do not call as_pairs on it again.
    with patch.object(serialize, "as_pairs", side_effect=AssertionError("checked twice")):
        for n in range(2, 41):
            s = generate_schedule(kind, n)
            assert schedule_to_text(s) == _reference_schedule_to_text(s)
            assert schedule_to_json(s) == _reference_schedule_to_json(s)


# --- the per-pair writers and the regex id parser, kept as the references ----

_STEP_LINE = re.compile(r"^step [0-9]+:(?: \([0-9]+,[0-9]+\))*$")
_REFERENCE_ID_RE = re.compile(r"[0-9]+")
_REFERENCE_JSON_PAIR = "[\n        %s,\n        %s\n      ]"


def _reference_schedule_to_text(s):
    """One "(%s,%s)" per pair, joined, and the line right-stripped."""
    lines = []
    for step in s.steps:
        pairs = " ".join(map("(%s,%s)".__mod__, step.exchanges))
        lines.append(f"step {step.index}: {pairs}".rstrip() + "\n")
    return "".join(lines)


def _reference_schedule_to_json(s):
    """The direct json writer with one % call per pair."""
    steps = [
        "[\n      "
        + ",\n      ".join(map(_REFERENCE_JSON_PAIR.__mod__, step.exchanges))
        + "\n    ]"
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
    """The text parser that read the ids with a regex and checked each pair."""
    steps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if _STEP_LINE.match(line) is None:
            raise ScheduleFormatError(f"malformed schedule line: {line!r}")
        try:
            index, *ids = map(int, _REFERENCE_ID_RE.findall(line))
        except ValueError as exc:
            raise ScheduleFormatError(f"{exc} in line {line!r}") from exc
        exchanges = tuple(zip(ids[0::2], ids[1::2]))
        for a, b in exchanges:
            if a == b:
                raise ScheduleFormatError(
                    f"host {a} cannot exchange with itself in line {line!r}"
                )
        steps.append(SbepStep(index, exchanges))
    return Schedule(topology=topology, steps=tuple(steps))


@settings(deadline=None, max_examples=25)
@given(n=st.integers(min_value=2, max_value=400))
def test_star_writers_and_parser_match_reference(n):
    s = generate_star(n)
    text = schedule_to_text(s)
    assert text == _reference_schedule_to_text(s)
    assert schedule_to_json(s) == _reference_schedule_to_json(s)
    parsed = text_to_schedule(text, s.topology)
    assert parsed == _reference_text_to_schedule(text, s.topology) == s


@given(s=_SCHEDULES)
def test_writers_and_parser_match_reference_arbitrary(s):
    # No steps, empty steps, ids off the topology and multi-digit ids.
    text = schedule_to_text(s)
    assert text == _reference_schedule_to_text(s)
    assert schedule_to_json(s) == _reference_schedule_to_json(s)
    parsed = text_to_schedule(text, s.topology)
    assert parsed == _reference_text_to_schedule(text, s.topology) == s


def _outcome(parse, text, topology):
    """The parsed schedule, or the message of the error the parse raised."""
    try:
        return parse(text, topology)
    except ScheduleFormatError as exc:
        return str(exc)


def _int_error(digits):
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("int() took the digits")


_BIG = "9" * 5000  # past sys.get_int_max_str_digits()
_TEXT_CASES = {
    "space after a comma": (
        "step 1: (1, 2)", "malformed schedule line: 'step 1: (1, 2)'"
    ),
    "missing parenthesis": (
        "step 1: (1,2", "malformed schedule line: 'step 1: (1,2'"
    ),
    "superscript digit": (
        "step 1: (1,\u00b2)", "malformed schedule line: 'step 1: (1,\u00b2)'"
    ),
    "5000-digit id": (
        f"step 1: (1,{_BIG})", f"{_int_error(_BIG)} in line 'step 1: (1,{_BIG})'"
    ),
    "self-pair": (
        "step 1: (1,2) (3,3)",
        "host 3 cannot exchange with itself in line 'step 1: (1,2) (3,3)'",
    ),
    # Arabic-Indic digits are decimal digits, but ids are ASCII digits only,
    # as in the json format.
    "unicode self-pair": (
        "step 1: (\u0663,3)", "malformed schedule line: 'step 1: (\u0663,3)'"
    ),
    "unicode digits": (
        "step \u0661: (\u0661,\u0662)",
        "malformed schedule line: 'step \u0661: (\u0661,\u0662)'",
    ),
}


@pytest.mark.parametrize("line,expected", _TEXT_CASES.values(), ids=list(_TEXT_CASES))
def test_text_parser_outcomes_pinned(line, expected):
    topo = build_topology(TopologyKind.STAR, 3)
    text = line + "\n"
    got = _outcome(text_to_schedule, text, topo)
    assert got == _outcome(_reference_text_to_schedule, text, topo) == expected


# --- the whole-block parse against the per-line one ---------------------------

_GENERATED_TEXT = {
    (kind, n): schedule_to_text(generate_schedule(kind, n))
    for kind in TopologyKind
    for n in range(2, 65)
}
_EXCHANGE = re.compile(r" \([0-9]+,[0-9]+\)")


def _mutated(text, how, data):
    """``text`` with one change of kind ``how``, at places drawn from ``data``."""
    lines = text.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    found = list(_EXCHANGE.finditer(line))
    if how == "crlf":
        lines[at] = line.replace("\n", "\r\n")
    elif how == "blank":
        lines.insert(at, data.draw(st.sampled_from(["\n", "  \n", "\r\n"])))
    elif how == "no final LF":
        lines[-1] = lines[-1].rstrip("\n")
    elif how == "non-ASCII digit":
        digits = [i for i, c in enumerate(line) if c.isdigit()] or [0]
        i = data.draw(st.sampled_from(digits))
        lines[at] = line[:i] + data.draw(st.sampled_from("٣²３")) + line[i + 1 :]
    elif found:
        m = data.draw(st.sampled_from(found))
        a, b = m.group()[2:-1].split(",")
        change = {
            "self-pair": f" ({a},{a})",
            "5000-digit id": f" ({a},{'9' * 5000})",
            "drop": "",
            "duplicate": m.group() * 2,
        }[how]
        lines[at] = line[: m.start()] + change + line[m.end() :]
    return "".join(lines)


def _int_per_id(text, topology):
    """The parse with every id read by int() after a split, line by line."""
    return Schedule(topology, tuple(serialize._line_steps(text)))


_MUTATIONS = (
    "crlf", "blank", "no final LF", "non-ASCII digit", "self-pair", "5000-digit id",
    "drop", "duplicate",
)


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(list(TopologyKind)),
    n=st.integers(2, 64),
    hows=st.lists(st.sampled_from(_MUTATIONS), max_size=3),
    block=st.sampled_from([None, 1, 40, 1000]),
    data=st.data(),
)
def test_block_parse_matches_line_parse(kind, n, hows, block, data):
    # The same Schedule, or the same error message, as the parse line by
    # line, over blocks of every size from one line up.
    text = _GENERATED_TEXT[kind, n]
    for how in hows:
        text = _mutated(text, how, data)
    topo = build_topology(kind, n)
    with patch.object(serialize, "_BLOCK", block or serialize._BLOCK):
        got = _outcome(text_to_schedule, text, topo)
    assert got == _outcome(_int_per_id, text, topo)
    assert got == _outcome(_reference_text_to_schedule, text, topo)


def test_text_parse_holds_little_beyond_its_schedule():
    # Read in blocks of about serialize._BLOCK characters, the star n=400
    # text peaks at about 0.1 MB above the schedule it returns; read whole,
    # it held about 10 MB more.
    s = generate_star(400)
    text = schedule_to_text(s)
    tracemalloc.start()
    try:
        parsed = text_to_schedule(text, s.topology)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == s
    assert peak - held < 2**20


# --- the block's ids read by one json.loads call, against int() per id --------


def _zero_led(text):
    """``text`` with every id of its middle line written with two leading zeros."""
    lines = text.splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = re.sub(r"([(,])", r"\g<1>00", lines[middle])
    return "".join(lines)


_STAR_120 = schedule_to_text(generate_star(120))
_ID_TEXTS = {
    "leading zeros": ("step 1: (007,2) (0,3)\n", ((7, 2), (0, 3))),
    "id 0": ("step 1: (0,1)\n", ((0, 1),)),
    "steps with no exchanges": ("step 1:\nstep 2:\n", ()),
    "5000-digit id": (f"step 1: (1,{_BIG})\n", None),
    "several blocks": (_STAR_120, None),
    "several blocks, one with leading zeros": (_zero_led(_STAR_120), None),
}


@pytest.mark.parametrize("text,first", _ID_TEXTS.values(), ids=list(_ID_TEXTS))
def test_json_id_read_matches_int_per_id(text, first):
    topo = build_topology(TopologyKind.STAR, 120)
    got = _outcome(text_to_schedule, text, topo)
    assert got == _outcome(_int_per_id, text, topo)
    if first is not None:
        assert got.steps[0].exchanges == first


def test_json_id_read_is_one_call_per_block():
    # Each block of step lines reads its ids with one json.loads call, and a
    # block that JSON refuses, for its leading zeros, is read line by line.
    topo = build_topology(TopologyKind.STAR, 120)
    blocks = len(_STAR_120) // serialize._BLOCK
    assert blocks > 3
    for text in (_STAR_120, _zero_led(_STAR_120)):
        with patch.object(serialize.json, "loads", wraps=json.loads) as loads:
            assert text_to_schedule(text, topo) == _int_per_id(text, topo)
        assert loads.call_count in (blocks, blocks + 1)
