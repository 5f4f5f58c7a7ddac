"""Schedule serialization: line-oriented text and a JSON document.

Text format, one step per line::

    step 1: (1,2) (3,4)
    step 2: (2,3) (4,5)

The text body carries no topology header, so parsing needs the topology
supplied separately. The JSON format is self-describing::

    {"topology": {"kind": "star", "n_hosts": 5},
     "steps": [[[1, 2], [3, 4]], ...]}

Both formats round-trip bit-exactly. Host ids are integers, in ASCII
digits in the text format; any other input raises ScheduleFormatError.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import eq

from .errors import ScheduleFormatError
from .schedule import SbepStep, Schedule
from .topology import TopologyKind, build_topology, NetworkTopology

_STEP_RE = re.compile(r"^step [0-9]+:(?: \([0-9]+,[0-9]+\))*$")
# Past _STEP_RE and the "step " prefix, a line's ids lie between these marks.
_ID_MARKS = str.maketrans(":(,)", "    ")
# One pair as json.dumps(indent=2) lays it out inside a step, after the first.
_JSON_PAIR = ",\n      [\n        %s,\n        %s\n      ]"


def _hosts(step: SbepStep) -> tuple:
    """The step's hosts in exchange order, two per exchange.

    Raises ValueError for an exchange that is not two hosts, which the
    writers' one pattern per step would otherwise split across pairs."""
    if set(map(len, step.exchanges)) - {2}:
        bad = next(e for e in step.exchanges if len(e) != 2)
        raise ValueError(f"exchange {bad!r} in step {step.index} is not two hosts")
    return tuple(chain.from_iterable(step.exchanges))


def step_to_line(step: SbepStep) -> str:
    pattern = "step %s:" + " (%s,%s)" * len(step.exchanges)
    return pattern % (step.index, *_hosts(step))


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


def schedule_to_json(s: Schedule) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n", written directly."""
    steps = [
        ("[" + (_JSON_PAIR * len(step.exchanges))[1:] + "\n    ]")
        % _hosts(step)
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
