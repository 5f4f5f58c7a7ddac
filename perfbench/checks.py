"""Output checks for the benchmark's commands.

Every expectation is computed without calling kexnet: step counts come
from the paper's closed forms, schedules are checked by the small
reference validator below, and simulation results are compared against a
model of which pairs survive the injected failures. Checks run outside
the timed interval.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from itertools import chain
from pathlib import Path

HOST_RE = re.compile(r"\d+")

# Published regression constants of SBEP(N) over N = 2..20.
REGRESSION = {"slope": 1.3192982456, "intercept": -1.301754386, "r_squared": 0.988989157}


def sbep(n: int) -> int:
    """The paper's closed-form star step count."""
    quarter = math.ceil(n / 4)
    if n <= 8:
        return n + quarter - (2 if n % 2 == 0 else 1)
    return n + quarter - (1 if n % 2 == 0 else 0)


def steps_per_pass(topology: str, n: int) -> int:
    if topology == "star":
        return sbep(n)
    if topology == "fcn1":
        return n - 1 if n % 2 == 0 else n
    if topology == "fcn-full":
        return 1
    return n * n // 4


def min_steps(topology: str, n: int) -> int:
    """Exhaustive-search minimum: matchings for star/fcn1, n^2/4 for the chain."""
    if topology == "lch":
        return n * n // 4
    return n - 1 if n % 2 == 0 else n


def all_pairs(n: int) -> set[tuple[int, int]]:
    return {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)}


# --- schedules ---------------------------------------------------------------


def read_steps(text: str) -> list[list[tuple[int, int]]]:
    """Exchanges per step from either schedule format."""
    if text.lstrip().startswith("{"):
        return [list(map(tuple, step)) for step in json.loads(text)["steps"]]
    steps = []
    for line in text.splitlines():
        if line.strip():
            hosts = list(map(int, HOST_RE.findall(line.partition(":")[2])))
            steps.append(list(zip(hosts[::2], hosts[1::2])))
    return steps


def write_steps(original: str, steps: list[list[tuple[int, int]]]) -> str:
    """Serialize ``steps`` in the format of ``original``."""
    if original.lstrip().startswith("{"):
        doc = json.loads(original)
        doc["steps"] = [[list(p) for p in step] for step in steps]
        return json.dumps(doc, indent=2) + "\n"
    return "".join(
        f"step {i}: {' '.join(f'({a},{b})' for a, b in step)}".rstrip() + "\n"
        for i, step in enumerate(steps, 1)
    )


def violation_kinds(topology: str, n: int, steps: list[list[tuple[int, int]]]) -> set[str]:
    """Kinds of rule broken: completeness, per-step capacity, chain overlap."""
    capacity = n - 1 if topology == "fcn-full" else 2 if topology == "lch" else 1
    kinds: set[str] = set()
    for step in steps:
        load = Counter(chain.from_iterable(step))
        if any(not 1 <= h <= n for h in load):
            kinds.add("unknown-host")
        if any(c > capacity for h, c in load.items() if 1 <= h <= n):
            kinds.add("capacity")
        if topology == "lch":
            reach = 0  # Spans may touch at an endpoint host, not overlap inside.
            for lo, hi in sorted((min(a, b), max(a, b)) for a, b in step):
                if lo < reach:
                    kinds.add("lch-overlap")
                reach = max(reach, hi)
    pairs = [(a, b) if a < b else (b, a) for step in steps for a, b in step]
    distinct = set(pairs)
    if len(distinct) < len(pairs):
        kinds.add("duplicate-pair")
    if sum(1 <= a and b <= n for a, b in distinct) != n * (n - 1) // 2:
        kinds.add("missing-pair")
    return kinds


def corrupt(text: str, mode: str, rng) -> tuple[str, list[list[tuple[int, int]]]]:
    """Drop one pair, or copy one pair into another step (a new one if the
    schedule has a single step). Returns the new text and its steps."""
    steps = read_steps(text)
    if mode == "drop":
        step = rng.choice([s for s in steps if len(s) >= 2])
        step.pop(rng.randrange(len(step)))
    else:
        i = rng.randrange(len(steps))
        pair = rng.choice(steps[i])
        if len(steps) == 1:
            steps.append([pair])
        else:
            j = rng.choice([j for j in range(len(steps)) if j != i])
            steps[j].append(pair)
    return write_steps(text, steps), steps


def check_schedule_file(topology: str, n: int, path: Path) -> str | None:
    steps = read_steps(path.read_text())
    if len(steps) != steps_per_pass(topology, n):
        return f"{len(steps)} steps, expected {steps_per_pass(topology, n)}"
    kinds = violation_kinds(topology, n, steps)
    return f"schedule breaks {sorted(kinds)}" if kinds else None


def check_validate(rc: int | None, out: str, expected: set[str]) -> str | None:
    if not expected:
        return None if (rc, out) == (0, "ok\n") else f"expected ok, got {rc} {out[:60]!r}"
    lines = out.splitlines()
    if rc != 3 or not lines or lines[0] != "invalid":
        return f"expected invalid with exit 3, got {rc} {out[:60]!r}"
    kinds = {line.split(": ")[1] for line in lines[1:]}
    return None if kinds == expected else f"violations {sorted(kinds)}, expected {sorted(expected)}"


def check_oracle(topology: str, n: int, out: str) -> str | None:
    head, _, body = out.partition("\n")
    want = min_steps(topology, n)
    if head != f"min_steps {want}":
        return f"{head!r}, expected min_steps {want}"
    steps = read_steps(body)
    if len(steps) != want:
        return f"witness has {len(steps)} steps, expected {want}"
    model = "lch" if topology == "lch" else "fcn1"
    kinds = violation_kinds(model, n, steps)
    return f"witness breaks {sorted(kinds)}" if kinds else None


# --- compare -----------------------------------------------------------------


def check_compare(n: int, fmt: str, out: str) -> str | None:
    if fmt == "json":
        steps = {row["kind"]: row["steps"] for row in json.loads(out)}
    else:
        split = (lambda line: line.split(",")) if fmt == "csv" else (
            lambda line: re.split(r"\s{2,}", line)
        )
        rows = [split(line) for line in out.splitlines()]
        col = rows[0].index("steps")
        steps = {row[0]: int(row[col]) for row in rows[1:]}
    want = {t: steps_per_pass(t, n) for t in ("star", "fcn1", "fcn-full", "lch")}
    return None if steps == want else f"step counts {steps}, expected {want}"


# --- simulate ----------------------------------------------------------------


def surviving_pairs(topology: str, n: int, specs: list[str]) -> set[tuple[int, int]]:
    """Pairs still able to exchange once every failure in ``specs`` is active."""
    ok = all_pairs(n)
    dead_hosts: set[int] = set()
    slots: dict[int, set[int]] = {}
    for spec in specs:
        what = spec.rsplit("@", 1)[0]
        kind, _, ident = what.partition(":")
        if kind == "center":
            return set()
        if kind == "cable" and "-" in ident:
            a, b = sorted(map(int, ident.split("-")))
            ok.discard((a, b))
        elif kind == "cable" and topology == "lch":
            seg = int(ident)
            ok = {(a, b) for a, b in ok if not a <= seg < b}
        elif kind == "cable":
            dead_hosts.add(int(ident))
        else:
            host, _, slot = ident.partition(":")
            host = int(host)
            if topology == "fcn-full":
                peer = [h for h in range(1, n + 1) if h != host][int(slot) - 1]
                ok.discard((min(host, peer), max(host, peer)))
            elif topology == "lch":
                slots.setdefault(host, set()).add(int(slot or 1))
            else:
                dead_hosts.add(host)
    dead_hosts |= {h for h, s in slots.items() if len(s) >= 2}
    return {(a, b) for a, b in ok if a not in dead_hosts and b not in dead_hosts}


def parse_simulate(fmt: str, out: str) -> tuple[dict[tuple[int, int], int], dict]:
    """(bits per pair, summary fields the format carries)."""
    if fmt == "json":
        doc = json.loads(out)
        rows = doc["bits_per_pair"].items()
        extra = {"steps_executed": doc["steps_executed"], "lost_set": set(doc["lost_pairs"])}
    else:
        lines = out.splitlines()
        sep = "," if fmt == "csv" else None
        rows = [line.split(sep) for line in lines[1:]]
        extra = {}
        if fmt == "table":
            extra = {"steps_executed": int(rows[-2][1]), "lost": int(rows[-1][1])}
            rows = rows[:-2]
    bits = {}
    for pair, b in rows:
        a, c = pair.split("-")
        bits[(int(a), int(c))] = int(b)
    return bits, extra


def check_simulate(topology: str, n: int, k: int, specs: list[str], fmt: str,
                   out: str, lost: int | None = None) -> str | None:
    bits, extra = parse_simulate(fmt, out)
    if set(bits) != all_pairs(n):
        return f"{len(bits)} pairs reported, expected {n * (n - 1) // 2}"
    if any(b > k for b in bits.values()):
        return "a pair has more than k bits"
    alive = surviving_pairs(topology, n, specs)
    short = {p for p, b in bits.items() if b < k}
    if short & alive:
        return f"capable pair {min(short & alive)} has fewer than {k} bits"
    if "steps_executed" in extra and extra["steps_executed"] != k * steps_per_pass(topology, n):
        return f"steps_executed {extra['steps_executed']}"
    if "lost" in extra and extra["lost"] != len(short):
        return f"lost_pairs {extra['lost']}, expected {len(short)}"
    if "lost_set" in extra and extra["lost_set"] != {f"{a}-{b}" for a, b in short}:
        return "lost_pairs lists the wrong pairs"
    if lost is not None and len(short) != lost:
        return f"{len(short)} lost pairs, expected {lost}"
    return None


# --- paper tables --------------------------------------------------------------


def check_regress(out: str, svg: Path | None) -> str | None:
    values = dict(line.split() for line in out.splitlines())
    for key, want in REGRESSION.items():
        if abs(float(values[key]) - want) >= 1e-6:
            return f"{key} {values[key]}, expected {want}"
    if svg is not None:
        text = svg.read_text()
        if not text.startswith("<svg") or text.count("<circle") != 19:
            return "plot is not an SVG with 19 points"
    return None
