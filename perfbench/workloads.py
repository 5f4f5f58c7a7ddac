"""The benchmark's workloads: seeded rounds of kexnet command lines.

A unit is one or more commands run back to back, such as a ``schedule``
and the ``validate`` that reads its file. A command is a dict holding the
``argv`` given to ``kexnet.cli.main`` (``{tmp}`` stands for the run's
scratch directory) and the ``check`` its output must pass.

A workload is an endless series of rounds, and a run measures whole
rounds. Each round follows the workload's input distributions as closely
as its size allows: sizes (and, for simulations, the product k * n^2 that
sets their cost) sit at the midpoints of equal-probability strata, and
categorical choices appear in their stated shares. The seed draws everything else: the order
of the units, the failure specs, the output formats and which files get
corrupted. So every seed
issues different commands but the same amount of work per round, and a
run's figures do not hinge on whether a few of the costliest commands
fall inside it.
"""

from __future__ import annotations

import math
import random

from checks import steps_per_pass

WORKLOADS = ("star-roundtrip", "chain-search", "keysim-failures", "paper-tables")


def midpoints(m: int) -> list[float]:
    """Midpoints of m equal strata of [0, 1]."""
    return [(i + 0.5) / m for i in range(m)]


def log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


def cost_split(q: float, u: float, a: float, b: float) -> tuple[float, float]:
    """A point (s, t) of the unit square whose weighted sum a*s + b*t is the
    q-quantile of that sum over the square; u places it along the line of
    points with that sum. Uniform q and u give a uniform point, so s and t
    keep their own distributions while q alone sets the sum.
    """
    if a < b:
        t, s = cost_split(q, u, b, a)
        return s, t
    if q <= b / (2 * a):
        w = math.sqrt(2 * a * b * q)
    elif q <= 1 - b / (2 * a):
        w = a * q + b / 2
    else:
        w = a + b - math.sqrt(2 * a * b * (1 - q))
    lo, hi = max(0.0, (w - b) / a), min(1.0, w / a)
    s = lo + u * (hi - lo)
    return s, min(1.0, max(0.0, (w - a * s) / b))


def _cmd(argv: list, **check) -> dict:
    return {"argv": [str(a) for a in argv], "check": check}


def _roundtrip(topology: str, n: int, fmt: str | None) -> list[dict]:
    path = f"{{tmp}}/schedule.{fmt or 'text'}"
    schedule = ["schedule", "--topology", topology, "--n", n]
    if fmt is not None:
        schedule += ["--format", fmt]
    validate = ["validate", "--in", path]
    if fmt != "json":
        validate += ["--topology", topology, "--n", n]
    return [
        _cmd(schedule + ["--out", path], kind="schedule", topology=topology, n=n, file=path),
        _cmd(validate, kind="validate", topology=topology, n=n, file=path, corrupt=None),
    ]


def _oracle(topology: str, n: int) -> list[dict]:
    return [_cmd(["oracle", "--topology", topology, "--n", n], kind="oracle",
                 topology=topology, n=n)]


def _compare(n: int, fmt: str) -> list[dict]:
    return [_cmd(["compare", "--n", n, "--format", fmt], kind="compare", n=n, format=fmt)]


def _simulate(topology: str, n: int, k: int, fail: list[str], fmt: str, lost=None) -> list[dict]:
    argv = ["simulate", "--topology", topology, "--n", n, "--k", k, "--format", fmt]
    for spec in fail:
        argv += ["--fail", spec]
    return [_cmd(argv, kind="simulate", topology=topology, n=n, k=k, fail=fail,
                 format=fmt, lost=lost)]


def _formats(rng: random.Random, count: int, choices: list[str]) -> list[str]:
    """``count`` formats in equal shares, in random order."""
    out = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(out)
    return out


# --- star-roundtrip ------------------------------------------------------------

# (strata per round, n range). Each stratum is written once as json and once
# as text, so a round is 70% star, 20% fcn1 and 10% fcn-full.
ROUNDTRIP = {"star": (7, 64, 400), "fcn1": (2, 64, 400), "fcn-full": (1, 32, 200)}


def star_roundtrip(rng: random.Random) -> list[list[dict]]:
    units = [
        _roundtrip(topology, log_uniform(q, lo, hi), fmt)
        for topology, (m, lo, hi) in ROUNDTRIP.items()
        for q in midpoints(m)
        for fmt in ("json", "text")
    ]
    rng.shuffle(units)
    for unit in units[: len(units) // 10]:  # a tenth of the files get damaged
        unit[1]["check"]["corrupt"] = {"mode": rng.choice(["drop", "dup"]),
                                       "seed": rng.randrange(2**32)}
    rng.shuffle(units)
    return units


# --- chain-search --------------------------------------------------------------

ORACLE_CASES = [("lch", 5), ("lch", 6)] + [(t, n) for t in ("star", "fcn1") for n in (6, 7, 8)]


def chain_search(rng: random.Random) -> list[list[dict]]:
    m = len(ORACLE_CASES)
    formats = _formats(rng, m, ["table", "csv", "json"])
    units = (
        [_roundtrip("lch", log_uniform(q, 16, 64), None) for q in midpoints(m)]
        + [_oracle(*case) for case in ORACLE_CASES]
        + [_compare(16 + int(q * 33), fmt) for q, fmt in zip(midpoints(m), formats)]
    )
    rng.shuffle(units)
    return units


# --- keysim-failures -----------------------------------------------------------

SIM_SIZES = {"star": (20, 150), "fcn1": (16, 80), "fcn-full": (10, 50), "lch": (8, 24)}
SIM_STRATA = 5


def failure_component(topology: str, n: int, rng: random.Random) -> str:
    """A component the topology really has, in the CLI's failure grammar."""
    host = rng.randint(1, n)
    if topology == "star":
        r = rng.random()
        return "center" if r < 0.1 else f"cable:{host}" if r < 0.55 else f"ke:{host}"
    if topology == "lch":
        if rng.random() < 0.5:
            return f"cable:{rng.randint(1, n - 1)}"
        return f"ke:{host}:{rng.randint(1, 2)}"
    if rng.random() < 0.5:
        a, b = rng.sample(range(1, n + 1), 2)
        return f"cable:{a}-{b}"
    return f"ke:{host}:{rng.randint(1, n - 1)}" if topology == "fcn-full" else f"ke:{host}"


def keysim_failures(rng: random.Random) -> list[list[dict]]:
    units = []
    formats = _formats(rng, SIM_STRATA * len(SIM_SIZES), ["table", "csv", "json"])
    for j, (topology, (lo, hi)) in enumerate(SIM_SIZES.items()):
        for i, q in enumerate(midpoints(SIM_STRATA)):
            # n and k are log-uniform; a run costs about k * n^2. The split
            # of that cost between n and k pairs the strata as a Latin
            # square, the same in every round, because the real cost (the
            # lch generator's share, say) does not follow k * n^2 closely.
            u = midpoints(SIM_STRATA)[(2 * i + j) % SIM_STRATA]
            s, t = cost_split(q, u, math.log(256), 2 * math.log(hi / lo))
            n, k = log_uniform(t, lo, hi), log_uniform(s, 1, 256)
            horizon = k * steps_per_pass(topology, n)
            fail = [
                f"{failure_component(topology, n, rng)}@{rng.randint(1, horizon)}"
                for _ in range(rng.randint(0, 3))
            ]
            units.append(_simulate(topology, n, k, fail, formats.pop()))
    rng.shuffle(units)
    return units


# --- paper-tables --------------------------------------------------------------


def paper_tables(rng: random.Random) -> list[list[dict]]:
    """Every row of the paper's tables once per round."""
    compare_n = range(2, 13)
    plot = "{tmp}/fit.svg"
    units = (
        [[_cmd(["formula", "--n", n], kind="formula_n", n=n)] for n in range(2, 21)]
        + [[_cmd(["formula", "--range", "2..20", "--format", "csv"], kind="golden",
                 golden="table3.csv")]]
        + [[_cmd(["schedule", "--topology", "star", "--n", 5], kind="golden",
                 golden="table1_star5.txt")]]
        + [[_cmd(["regress", "--n-max", 20], kind="regress", plot=None)]]
        + [[_cmd(["regress", "--n-max", 20, "--plot", plot], kind="regress", plot=plot)]]
        + [_compare(n, fmt) for n, fmt in
           zip(compare_n, _formats(rng, len(compare_n), ["table", "csv", "json"]))]
        + [_oracle(t, n) for t in ("star", "fcn1") for n in range(2, 9)]
        + [_simulate("star", 5, 1, ["center@4"], "table", lost=5)]
    )
    rng.shuffle(units)
    return units


# --- entry points ----------------------------------------------------------------

_ROUND = {
    "star-roundtrip": star_roundtrip,
    "chain-search": chain_search,
    "keysim-failures": keysim_failures,
    "paper-tables": paper_tables,
}


def rounds(workload: str, seed: int):
    """The workload's endless series of rounds for ``seed``; same seed,
    same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _ROUND[workload](rng)


def warmups(workload: str) -> list[list[dict]]:
    """One small untimed unit per command kind the workload issues."""
    if workload == "star-roundtrip":
        return [_roundtrip("star", 8, "json")]
    if workload == "chain-search":
        return [_roundtrip("lch", 8, None), _oracle("star", 4), _compare(4, "csv")]
    if workload == "keysim-failures":
        return [_simulate("star", 6, 2, ["ke:1@3"], "json")]
    return [
        [_cmd(["formula", "--n", 5], kind="formula_n", n=5)],
        [_cmd(["schedule", "--topology", "star", "--n", 5], kind="golden",
              golden="table1_star5.txt")],
        _compare(4, "table"),
        _oracle("star", 4),
        _simulate("star", 5, 1, ["center@4"], "table", lost=5),
        [_cmd(["regress", "--n-max", 20, "--plot", "{tmp}/fit.svg"], kind="regress",
              plot="{tmp}/fit.svg")],
    ]
