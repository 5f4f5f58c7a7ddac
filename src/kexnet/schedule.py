"""Schedule data model and per-topology validation.

A schedule is an ordered list of steps; in each step a set of host pairs
exchange one secure bit simultaneously. Validation checks completeness
(every unordered pair exactly once over the whole schedule) and the part
rule of ``topology.parts_held`` in each step, reporting a step that
breaks it as host loads over capacity and chain spans that overlap."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, count, filterfalse, islice, repeat, starmap
from operator import add, attrgetter, eq, itemgetter, ne, or_
from typing import NamedTuple

from .topology import GEOMETRIES, NetworkTopology, TopologyKind, parts_held


class SbepStep(NamedTuple):
    """One secure bit exchange period: simultaneous (initiator, responder) pairs."""

    index: int
    exchanges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Schedule:
    topology: NetworkTopology
    steps: tuple[SbepStep, ...]
    # The steps' exchanges in turn, as from_pairs checked them, for the
    # writers; None for a schedule built otherwise. Not compared, hashed,
    # shown or copied by dataclasses.replace.
    checked_pairs: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_pairs(
        cls, topology: NetworkTopology, steps: Iterable[Iterable[tuple[int, int]]]
    ) -> Schedule:
        """The schedule whose steps, numbered from 1, hold the given
        (initiator, responder) pairs in the order given, as plain tuples.
        Raises ValueError for a bad-exchange (see as_pairs)."""
        built = tuple(map(tuple, steps))
        exchanges = tuple(chain.from_iterable(built))
        pairs = as_pairs(exchanges)
        if pairs is not exchanges:  # lists made tuples: each step takes its own
            built = map(tuple, _runs(pairs, map(len, built)))
        s = cls(topology, _steps(count(1), built))
        object.__setattr__(s, "checked_pairs", pairs)
        return s


def _steps(indices: Iterable[int], exchanges: Iterable[tuple]) -> tuple[SbepStep, ...]:
    """The steps of the given indices and exchange tuples, each built in C by
    tuple.__new__, not by a Python call as SbepStep(...) is."""
    return tuple(map(tuple.__new__, repeat(SbepStep), zip(indices, exchanges)))


def _runs(items, sizes: Iterable[int]) -> Iterator:
    """The items in consecutive runs of the given sizes, each to be read
    through before the next."""
    return map(islice, repeat(iter(items)), sizes)


def _two(e) -> bool:
    """Whether e has the shape of an exchange: a tuple or list of two."""
    return (type(e) is tuple or type(e) is list) and len(e) == 2


def exchange_span(e) -> tuple[int, int] | str:
    """The exchange rule: a tuple or list of two int hosts (``type(h) is
    int``, so not True or 2.0) that differ gives its span (lo, hi). Else the
    verdict is "unknown-host" for two items not both ints, or "bad-exchange"
    (not a tuple or list of two, or one int host twice). Hosts may be off
    the network: the 1..n range is the validator's check."""
    if not _two(e):
        return "bad-exchange"
    a, b = e
    if type(a) is not int or type(b) is not int:
        return "unknown-host"
    return "bad-exchange" if a == b else (a, b) if a < b else (b, a)


def as_pairs(exchanges: tuple) -> tuple:
    """The exchanges as tuples, checked by exchange_span: all at once in C,
    as tuples or lists of two unequal items, and one at a time only if that
    fails. Raises ValueError for the first bad-exchange."""
    shapes = set(map(type, exchanges))
    try:
        if shapes <= {tuple, list}:
            pairs = tuple(map(tuple, exchanges)) if list in shapes else exchanges
            if not any(starmap(eq, pairs)):
                return pairs
    except TypeError:  # a tuple of other than two
        pass
    for e in exchanges:
        if exchange_span(e) == "bad-exchange":
            self_pair = _two(e) and f"host {e[0]} cannot exchange with itself"
            raise ValueError(self_pair or f"exchange {e!r} is not two hosts")
    return tuple(map(tuple, exchanges))


@dataclass(frozen=True)
class Violation:
    step_index: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default=())


# A report lists at most this many missing pairs, then how many more there
# are, and at most as many chain overlaps of one step.
MISSING_PAIR_LINES = 100


_LOW, _HIGH = itemgetter(0), itemgetter(1)
_INDEX, _EXCHANGES = attrgetter("index"), attrgetter("exchanges")


_NOT_TWO = (None, None)


def _spans(exchanges, n: int) -> list[tuple[int, int] | None]:
    """Each exchange's span (lo, hi), keeping a tuple that is in order
    already, if it is a tuple of two int hosts in 1..n that differ, else
    None: one pass that never raises."""
    return [
        (e if a < b else (b, a) if b < a else None)
        if type(a) is int is type(b) and 0 < a <= n >= b > 0 else None
        for e in exchanges
        for a, b in (e if type(e) is tuple and len(e) == 2 else _NOT_TWO,)
    ]


def _accept(steps: tuple, t: NetworkTopology) -> tuple[list, list[int], set[int]]:
    """The fast accept: the spans of all steps in turn, each step's count of
    them, and the positions (from 0) of the steps it does not accept, each
    check one pass over all the exchanges or one C call per step. A step is
    accepted if each exchange has a span (see _spans) and no part is held
    twice; a step with an exchange that has none counts no span."""
    sizes = list(map(len, map(_EXCHANGES, steps)))
    spans = _spans(chain.from_iterable(map(_EXCHANGES, steps)), t.n_hosts)
    failing = set()
    if not all(spans):  # a step with an exchange of no span fails and counts none
        runs = list(map(list, _runs(spans, sizes)))
        failing = {p for p, run in enumerate(runs) if not all(run)}
        runs = [[] if p in failing else run for p, run in enumerate(runs)]
        sizes, spans = list(map(len, runs)), list(chain.from_iterable(runs))
    return spans, sizes, failing | part_held_twice(t.kind, spans, sizes)


def part_held_twice(kind: TopologyKind, spans: list, sizes: list[int]) -> set[int]:
    """The positions (from 0) of the steps that hold a part of
    ``topology.parts_held`` twice, each step a run of ``sizes[p]`` spans
    (lo, hi), lo < hi, of hosts 1..n, all steps in turn. Each test is a
    pass over every span, or one C call per step: a set of a step's hosts
    or pairs stands in for host or cable bits, which for a cable lie up to
    n^2/2 places up, and a chain step's masks are disjoint when their sum
    is their union."""
    part = GEOMETRIES[kind].part
    if part == "segments":
        masks = list(map(parts_held, repeat(kind), map(_LOW, spans), map(_HIGH, spans)))
        union = map(reduce, repeat(or_), _runs(masks, sizes), repeat(0))
        twice = map(ne, map(sum, _runs(masks, sizes)), union)
    elif part == "cable":
        twice = map(ne, map(len, map(set, _runs(spans, sizes))), sizes)
    else:
        lows, highs = _runs(map(_LOW, spans), sizes), _runs(map(_HIGH, spans), sizes)
        twice = map(ne, map(len, map(set, map(chain, lows, highs))), map(add, sizes, sizes))
    return set(compress(count(), twice))


def _overlaps(index: int, exchanges: list, spans: list) -> list[Violation]:
    """Each pair of exchanges whose chain spans overlap inside, not only at
    an endpoint host, in exchange order: at most MISSING_PAIR_LINES of them,
    then one line with the count of the rest. A span overlaps the spans that
    start before it ends, less those that end by its start and itself; only
    spans that overlap another are paired up."""
    pairs = sorted(zip(exchanges, spans))
    starts, ends = sorted(map(_LOW, spans)), sorted(map(_HIGH, spans))
    counts = [bisect_left(starts, hi) - bisect_right(ends, lo) - 1 for _, (lo, hi) in pairs]
    inside = [pair for pair, c in zip(pairs, counts) if c]
    found = (
        Violation(index, "lch-overlap", "(%s,%s) overlaps (%s,%s)" % (*x, *y))
        for i, (x, (lo, hi)) in enumerate(inside)
        for y, (lo2, hi2) in inside[i + 1 :]
        if lo2 < hi and lo < hi2
    )
    out = list(islice(found, MISSING_PAIR_LINES + 1))
    if len(out) > MISSING_PAIR_LINES:
        more = sum(counts) // 2 - MISSING_PAIR_LINES
        out[-1] = Violation(index, "lch-overlap", f"{more} more overlaps")
    return out


def _step_violations(step: SbepStep, t: NetworkTopology) -> tuple[list, list]:
    """The violations of a step that fails the fast accept, and the spans of
    its exchanges that have one, which alone go on to the other checks."""
    out, hosts, exchanges, spans = [], [], [], []
    for e in step.exchanges:
        span = exchange_span(e)
        if span == "bad-exchange":
            detail = f"exchange {e!r} is not two hosts"
            out.append(Violation(step.index, "bad-exchange", detail))
            continue
        hosts += e
        if span != "unknown-host":
            exchanges.append(tuple(e))
            spans.append(span)
    load, cap = Counter(h for h in hosts if type(h) is int), t.exchangers_per_host
    for host in sorted(load):
        if not 1 <= host <= t.n_hosts:
            out.append(Violation(step.index, "unknown-host", f"host {host}"))
        elif load[host] > cap:
            detail = f"host {host} in {load[host]} exchanges, capacity {cap}"
            out.append(Violation(step.index, "capacity", detail))
    # Any other value by its repr, be it True, 2.0 or an unhashable list.
    for other in sorted({repr(h) for h in hosts if type(h) is not int}):
        out.append(Violation(step.index, "unknown-host", f"host {other}"))
    if t.geometry.part == "segments":
        out.extend(_overlaps(step.index, exchanges, spans))
    return out, spans


def _duplicates(spans: list[tuple[int, int]], steps: list[int]) -> list[Violation]:
    """Each pair given again, in the step of each occurrence beyond the first."""
    first, out = {}, []
    for p, index in zip(spans, steps):
        if p in first:
            detail = "(%s,%s) already exchanged in step %s" % (*p, first[p])
            out.append(Violation(index, "duplicate-pair", detail))
        first.setdefault(p, index)
    return out


def validate_schedule(s: Schedule) -> ValidationReport:
    """Check completeness and per-step feasibility. Raises nothing but a
    ValueError for a number to report past Python's int-to-str digit limit,
    as the count of missing pairs is for a host count of about 2,150 digits.

    Violation kinds: ``step-index``, ``missing-pair``, ``duplicate-pair``,
    ``capacity``, ``lch-overlap``, ``unknown-host``, ``bad-exchange``. A
    step whose index is not its 1-based position gets one ``step-index``
    violation. An exchange gets ``exchange_span``'s verdict, a host outside
    1..n is an ``unknown-host`` too, and only an exchange with a span takes
    part in the other checks.
    Only a step whose exchanges hold a part twice (``topology.parts_held``)
    has its host loads and chain overlaps looked at; its overlaps are
    listed in exchange order, at most MISSING_PAIR_LINES of them, then one
    "<count> more overlaps". Duplicates are reported once per occurrence
    beyond the first, with the offending step index. Missing pairs are
    listed in pair order, at most MISSING_PAIR_LINES of them, then one
    "<count> more pairs missing".
    """
    t, steps = s.topology, s.steps
    violations: list[Violation] = []
    all_spans, sizes, failing = _accept(steps, t)
    misnumbered = compress(count(), map(ne, map(_INDEX, steps), count(1)))
    # Only a misnumbered step or one the fast accept fails is looked at on
    # its own; a failing one goes through the per-step path, and the spans
    # it gives take the place of the step's own.
    replaced = {}
    for position in sorted(failing.union(misnumbered)):
        step = steps[position]
        if step.index != position + 1:
            detail = f"expected index {position + 1}"
            violations.append(Violation(step.index, "step-index", detail))
        if position in failing:
            found, replaced[position] = _step_violations(step, t)
            violations.extend(found)
    if replaced:  # each run read through, so that the next starts after it
        runs = map(replaced.get, count(), map(list, _runs(all_spans, sizes)))
        all_spans = list(chain.from_iterable(runs))
        for position, spans in replaced.items():
            sizes[position] = len(spans)
    seen = dict.fromkeys(all_spans)
    if len(seen) < len(all_spans):
        # Each span's step index, in a flat list like the spans.
        span_steps = list(chain.from_iterable(map(repeat, map(_INDEX, steps), sizes)))
        violations.extend(_duplicates(all_spans, span_steps))
    # Spans in 1..n are pairs, so unless a span lies off the network, which
    # only a replaced step can give, n(n-1)/2 distinct spans are all pairs.
    n = t.n_hosts
    total = n * (n - 1) // 2
    off = any(lo < 1 or hi > n for spans in replaced.values() for lo, hi in spans)
    if off or len(seen) != total:
        # The walk holds one host's partners at a time and stops one pair
        # past the cap: at most cap + len(seen) pairs.
        unseen = filterfalse(seen.__contains__, t.pairs_by_host())
        missing = list(islice(unseen, MISSING_PAIR_LINES + 1))
        for p in missing[:MISSING_PAIR_LINES]:
            violations.append(Violation(None, "missing-pair", "(%s,%s)" % p))
        if len(missing) > MISSING_PAIR_LINES:
            present = sum(1 <= lo and hi <= n for lo, hi in seen)
            more = f"{total - present - MISSING_PAIR_LINES} more pairs missing"
            violations.append(Violation(None, "missing-pair", more))
    return ValidationReport(ok=not violations, violations=tuple(violations))

