"""Spans around kexnet's layers, recorded from outside the package.

The tracer replaces each function at the name its callers look it up by
(``kexnet.analysis.generate_schedule`` is the binding ``compare_networks``
calls, for example), so every call is seen wherever it comes from and the
package itself is not edited. Wrappers are in place only while a traced
command runs. Counts are taken from the arguments and return values at the
same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

KINDS = ("star", "fcn1", "fcn-full", "lch")

SPANS = (
    "cli.main",
    *(f"protocols.generate_schedule.{k}" for k in KINDS),
    "schedule.validate_schedule",
    "serialize.schedule_to_text",
    "serialize.schedule_to_json",
    "serialize.text_to_schedule",
    "serialize.json_to_schedule",
    "oracle.min_steps_bruteforce",
    "simengine.run",
    "analysis.capable_pairs",
    "analysis.compare_networks",
    "analysis.fit_linear",
    "plotting.scatter_with_line",
)

COUNTS = (
    "protocols.exchanges_generated",
    "protocols.steps_generated",
    "schedule.exchanges_validated",
    "schedule.violations_reported",
    "serialize.bytes_written",
    "serialize.bytes_parsed",
    "simengine.exchanges_attempted",
    "simengine.bits_credited",
)


def _exchanges(schedule) -> int:
    return sum(len(step.exchanges) for step in schedule.steps)


def _generated(counts, args, result) -> None:
    counts["protocols.steps_generated"] += len(result.steps)
    counts["protocols.exchanges_generated"] += _exchanges(result)


def _validated(counts, args, result) -> None:
    counts["schedule.exchanges_validated"] += _exchanges(args[0])
    counts["schedule.violations_reported"] += len(result.violations)


def _written(counts, args, result) -> None:
    counts["serialize.bytes_written"] += len(result.encode())


def _parsed(counts, args, result) -> None:
    counts["serialize.bytes_parsed"] += len(args[0].encode())


def _simulated(counts, args, result) -> None:
    config = args[0]
    n = config.topology.n_hosts
    # One pass of a complete schedule holds every pair once.
    counts["simengine.exchanges_attempted"] += config.key_bits * (n * (n - 1) // 2)
    counts["simengine.bits_credited"] += sum(result.bits_per_pair.values())


def _by_kind(args) -> str:
    return f"protocols.generate_schedule.{args[0].value}"


# (module, attribute, span name or function of the arguments, counter)
BINDINGS = (
    ("kexnet.cli", "main", "cli.main", None),
    ("kexnet.protocols", "generate_schedule", _by_kind, _generated),
    ("kexnet.analysis", "generate_schedule", _by_kind, _generated),
    ("kexnet.simengine", "generate_schedule", _by_kind, _generated),
    ("kexnet.cli", "validate_schedule", "schedule.validate_schedule", _validated),
    ("kexnet.serialize", "schedule_to_text", "serialize.schedule_to_text", _written),
    ("kexnet.serialize", "schedule_to_json", "serialize.schedule_to_json", _written),
    ("kexnet.serialize", "text_to_schedule", "serialize.text_to_schedule", _parsed),
    ("kexnet.serialize", "json_to_schedule", "serialize.json_to_schedule", _parsed),
    ("kexnet.oracle", "min_steps_bruteforce", "oracle.min_steps_bruteforce", None),
    ("kexnet.simengine", "run", "simengine.run", _simulated),
    ("kexnet.simengine", "capable_pairs", "analysis.capable_pairs", None),
    ("kexnet.analysis", "capable_pairs", "analysis.capable_pairs", None),
    ("kexnet.analysis", "compare_networks", "analysis.compare_networks", None),
    ("kexnet.analysis", "fit_linear", "analysis.fit_linear", None),
    ("kexnet.cli", "scatter_with_line", "plotting.scatter_with_line", None),
    ("kexnet.plotting", "scatter_with_line", "plotting.scatter_with_line", None),
)


class Tracer:
    """In-memory spans: (id, parent id, request id, name, start ns, end ns)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches = []
        for module_name, attr, name, counter in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, self._wrap(original, name, counter), original))

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, self.request, label, start, end)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        for module, attr, wrapper, _ in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, _, original in self._patches:
                setattr(module, attr, original)

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part its child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, _, _, _, start, end in self.spans:
            covered, reach = 0, start
            for a, b in sorted(children[sid]):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive ms, self ms and calls."""
        table = {name: {"ms": 0.0, "self_ms": 0.0, "calls": 0} for name in SPANS}
        for span, own in zip(self.spans, self.self_times()):
            row = table[span[3]]
            row["ms"] += (span[5] - span[4]) / 1e6
            row["self_ms"] += own / 1e6
            row["calls"] += 1
        return table

    def write(self, path: Path) -> None:
        fields = ["id", "parent", "request", "name", "start_ns", "end_ns"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")
