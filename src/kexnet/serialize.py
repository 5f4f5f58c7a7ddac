"""Schedule serialization: line-oriented text and a JSON document.

Text format, one step per line::

    step 1: (1,2) (3,4)
    step 2: (2,3) (4,5)

The text body carries no topology header, so parsing needs the topology
supplied separately. The JSON format is self-describing::

    {"topology": {"kind": "star", "n_hosts": 5},
     "steps": [[[1, 2], [3, 4]], ...]}

Both formats round-trip bit-exactly. Host ids are integers; any other
input raises ScheduleFormatError.
"""

from __future__ import annotations

import json
import re

from .errors import ScheduleFormatError
from .schedule import PairExchange, SbepStep, Schedule
from .topology import TopologyKind, build_topology, NetworkTopology

_STEP_RE = re.compile(r"^step (\d+):((?: \(\d+,\d+\))*)$")
_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


def step_to_line(step: SbepStep) -> str:
    pairs = " ".join(f"({e.initiator},{e.responder})" for e in step.exchanges)
    return f"step {step.index}: {pairs}".rstrip()


def schedule_to_text(s: Schedule) -> str:
    """One line per step, LF-terminated."""
    return "".join(step_to_line(step) + "\n" for step in s.steps)


def text_to_schedule(text: str, topology: NetworkTopology) -> Schedule:
    """Parse the line-oriented format back into a Schedule."""
    steps = []
    for line in text.splitlines():
        if not line.strip():
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ScheduleFormatError(f"malformed schedule line: {line!r}")
        try:
            index = int(m.group(1))
            exchanges = tuple(
                PairExchange(int(a), int(b)) for a, b in _PAIR_RE.findall(m.group(2))
            )
        except ValueError as exc:
            raise ScheduleFormatError(f"{exc} in line {line!r}") from exc
        steps.append(SbepStep(index=index, exchanges=exchanges))
    return Schedule(topology=topology, steps=tuple(steps))


def schedule_to_json(s: Schedule) -> str:
    doc = {
        "topology": {"kind": s.topology.kind.value, "n_hosts": s.topology.n_hosts},
        "steps": [
            [[e.initiator, e.responder] for e in step.exchanges] for step in s.steps
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def json_to_schedule(text: str) -> Schedule:
    try:
        doc = json.loads(text)
        kind = TopologyKind(doc["topology"]["kind"])
        n_hosts = doc["topology"]["n_hosts"]
        steps = tuple(
            SbepStep(index=i + 1, exchanges=tuple(PairExchange(a, b) for a, b in step))
            for i, step in enumerate(doc["steps"])
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ScheduleFormatError(f"malformed JSON schedule: {exc}") from exc
    ids = [n_hosts]
    for step in steps:
        ids.extend(h for e in step.exchanges for h in (e.initiator, e.responder))
    if any(type(h) is not int for h in ids):
        raise ScheduleFormatError("n_hosts and host ids must be integers")
    return Schedule(topology=build_topology(kind, n_hosts), steps=steps)
