"""Schedule serialization: line-oriented text and a JSON document.

Text format, one step per line::

    step 1: (1,2) (3,4)
    step 2: (2,3) (4,5)

The text body carries no topology header, so parsing needs the topology
supplied separately. The JSON format is self-describing::

    {"topology": {"kind": "star", "n_hosts": 5},
     "steps": [[[1, 2], [3, 4]], ...]}

Both formats round-trip bit-exactly. What an exchange is, both writers
and both parsers take from ``schedule.exchange_span``, and the writers
refuse a negative host too. Host ids are integers, in ASCII digits in the
text format; any other input raises ScheduleFormatError.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from itertools import chain, repeat, starmap
from operator import eq, itemgetter

from .errors import ScheduleFormatError
from .schedule import SbepStep, Schedule, _runs, _steps, as_pairs, exchange_span
from .topology import TopologyKind, build_topology, NetworkTopology

# One step line, and step lines each ending in LF.
_LINE = r"step [0-9]+:(?: \([0-9]+,[0-9]+\))*"
_STEP_RE = re.compile(f"^{_LINE}$")
_STEPS_RE = re.compile(f"(?:{_LINE}\n)*")
# A step line's index, past "step ".
_INDEX = itemgetter(slice(5, None))
# A text is read in blocks of whole lines of about this many characters;
# larger blocks held more strings at once and were read no faster (see
# tests/test_serialize.py::test_text_parse_holds_little_beyond_its_schedule).
_BLOCK = 1 << 13
# Past _STEP_RE and the "step " prefix, a line's ids lie between these marks.
_ID_MARKS = str.maketrans(":(,)", "    ")
# Step bodies " (1,2) (3,4)" joined, as ",1,2,3,4": past the first comma, the
# items of a JSON array.
_JSON_IDS = str.maketrans(" ", ",", "()")
# One pair as json.dumps(indent=2) lays it out inside a step, after the first.
_JSON_PAIR = ",\n      [\n        %s,\n        %s\n      ]"


def _hosts(s: Schedule) -> tuple:
    """The schedule's hosts, two per exchange. Raises ValueError for an
    exchange with no span or a negative host, which the parsers would
    refuse or read as other pairs. Exchanges that Schedule.from_pairs
    checked are not checked again: only their hosts' types and signs."""
    pairs = s.checked_pairs
    with suppress(ValueError):
        if pairs is None:
            pairs = as_pairs(tuple(chain.from_iterable(step.exchanges for step in s.steps)))
        hosts = tuple(chain.from_iterable(pairs))
        if set(map(type, hosts)) <= {int} and min(hosts, default=0) >= 0:
            return hosts
    for step in s.steps:  # one exchange failed the checks above
        for e, span in zip(step.exchanges, map(exchange_span, step.exchanges)):
            if type(span) is str or span[0] < 0:
                detail = "is not two hosts with non-negative int ids"
                raise ValueError(f"exchange {e!r} in step {step.index} {detail}")


def schedule_to_text(s: Schedule) -> str:
    """One line per step, LF-terminated."""
    # One pattern for the whole text takes every host; each step's index is
    # written into it, a "%" in the index escaped.
    pattern = "".join(
        f"step {step.index!s}:".replace("%", "%%") + " (%s,%s)" * len(step.exchanges) + "\n"
        for step in s.steps
    )
    return pattern % _hosts(s)


def text_to_schedule(text: str, topology: NetworkTopology) -> Schedule:
    """Parse the line-oriented format back into a Schedule.

    The text is read in blocks of whole lines of about _BLOCK characters, so
    that what a block splits into stays small; a block of step lines, each
    ending in LF, is read at once, any other one line by line."""
    steps: list[SbepStep] = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        block = text[start:end]
        steps += _block_steps(block) or _line_steps(block)
        start = end
    return Schedule(topology=topology, steps=tuple(steps))


def _block_steps(block: str) -> tuple[SbepStep, ...] | None:
    """The steps of a block of step lines, each ending in LF, read with one
    pass per check over the whole block; None if the block is not that, or
    holds an id with a leading zero, which JSON refuses, an id past the int
    digit limit or a self-pair: _line_steps reads those. The ids, which
    _STEPS_RE matched as ASCII digit runs, are read by one json.loads call."""
    if _STEPS_RE.fullmatch(block) is None:
        return None
    heads, _, bodies = zip(*map(str.partition, block.splitlines(), repeat(":")))
    body = "".join(bodies)
    try:
        indices = list(map(int, map(_INDEX, heads)))
        ids = iter(json.loads(f"[{body.translate(_JSON_IDS)[1:]}]"))
        pairs = tuple(zip(ids, ids))
    except ValueError:  # a leading zero, or a 5000-digit id
        return None
    if any(starmap(eq, pairs)):
        return None
    sizes = map(str.count, bodies, repeat("("))
    return _steps(indices, map(tuple, _runs(pairs, sizes)))


def _line_steps(block: str) -> list[SbepStep]:
    """The steps of any text, line by line; blank lines are skipped. Raises
    ScheduleFormatError naming the first line that is not a step."""
    steps = []
    for line in block.splitlines():
        if not line.strip():
            continue
        if _STEP_RE.match(line) is None:
            raise ScheduleFormatError(f"malformed schedule line: {line!r}")
        try:
            index, *ids = map(int, line[5:].translate(_ID_MARKS).split())
            exchanges = as_pairs(tuple(zip(ids[0::2], ids[1::2])))
        except ValueError as exc:  # a 5000-digit id, or one host twice
            raise ScheduleFormatError(f"{exc} in line {line!r}") from exc
        steps.append(SbepStep(index, exchanges))
    return steps


def schedule_to_json(s: Schedule) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n", written directly."""
    sizes = [len(step.exchanges) for step in s.steps]
    # One pattern per step size: a star schedule's steps come in a few sizes.
    pattern = {k: "[" + (_JSON_PAIR * k)[1:] + "\n    ]" if k else "[]" for k in set(sizes)}
    steps = ",\n    ".join(map(pattern.__getitem__, sizes)) % _hosts(s)
    lead, tail = ("\n    ", "\n  ") if sizes else ("", "")
    t = s.topology
    return (
        f'{{\n  "topology": {{\n    "kind": {json.dumps(t.kind.value)},\n'
        f'    "n_hosts": {t.n_hosts}\n  }},\n  "steps": [{lead}{steps}{tail}]\n}}\n'
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
