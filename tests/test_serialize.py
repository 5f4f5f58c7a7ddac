import json

import pytest
from hypothesis import given, strategies as st

from kexnet.errors import ScheduleFormatError
from kexnet.protocols import generate_schedule
from kexnet.schedule import Schedule
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
