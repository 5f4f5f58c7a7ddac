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
from itertools import chain

from .errors import ScheduleFormatError
from .schedule import SbepStep, Schedule
from .topology import TopologyKind, build_topology, NetworkTopology

_STEP_RE = re.compile(r"^step \d+:(?: \(\d+,\d+\))*$")
_ID_RE = re.compile(r"\d+")
# One pair as json.dumps(indent=2) lays it out inside a step.
_JSON_PAIR = "[\n        %s,\n        %s\n      ]"


def step_to_line(step: SbepStep) -> str:
    pairs = " ".join(map("(%s,%s)".__mod__, step.exchanges))
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
        if _STEP_RE.match(line) is None:
            raise ScheduleFormatError(f"malformed schedule line: {line!r}")
        try:
            index, *ids = map(int, _ID_RE.findall(line))
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


def schedule_to_json(s: Schedule) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n", written directly."""
    steps = [
        "[\n      " + ",\n      ".join(map(_JSON_PAIR.__mod__, step.exchanges)) + "\n    ]"
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


def json_to_schedule(text: str) -> Schedule:
    """Parse the JSON format; steps are numbered by their position."""
    try:
        doc = json.loads(text)
        kind = TopologyKind(doc["topology"]["kind"])
        n_hosts = doc["topology"]["n_hosts"]
        steps = doc["steps"]
        hosts = chain.from_iterable(chain.from_iterable(steps))
        if {type(n_hosts), *map(type, hosts)} != {int}:
            raise TypeError("n_hosts and host ids must be integers")
        return Schedule.from_pairs(build_topology(kind, n_hosts), steps)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ScheduleFormatError(f"malformed JSON schedule: {exc}") from exc
