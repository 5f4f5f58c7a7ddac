"""Alternated benchmark runs of two checkouts, summed up per metric.

Runs one side at a time, in ABBA order: the first pair runs the parent
first, the second the change first, and so on, so that a drift of the
host's speed falls on both sides alike. It prints both sides' medians per
metric and in how many pairs the change was better. From the root of a
checkout:

    python3 benchmarks/alternate.py PARENT CHANGE --workload chain-search --seeds 1-10
    python3 benchmarks/alternate.py PARENT CHANGE --workload star-roundtrip --seeds 1,2 \\
        --seconds 20 --json out.json
    python3 benchmarks/alternate.py PARENT CHANGE --layers "cli_compare or oracle" --pairs 5

With ``--workload`` a pair is the checkouts' own, unchanged
``perfbench/run.py`` run once each with one seed, and the metrics are the
end-to-end ones that ``BENCHMARK.json`` names. With ``--layers`` a pair is
one ``benchmarks/bench_layers.py`` run in each checkout over the rows that
``pytest -k`` selects with the given expression (PYTHONPATH=src, which
needs pytest-benchmark), and each row gives two metrics, lower being
better: its median time, and its minimum time as "<row> min", which a slow
window of the host inside one run moves less; a row only one side has is
left out. ``--json`` also writes every run and the summary (medians,
quartiles and ranges of both sides) to a file. Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or both, comma-separated) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``checkout``: its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def layer_run(checkout: Path, rows: str) -> dict[str, float]:
    """One bench_layers.py run of ``checkout`` over the rows ``-k rows``
    selects: each row's median and minimum time in ms (see layer_times)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "layers.json"
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "benchmarks/bench_layers.py", "-k", rows, f"--benchmark-json={out}"]
        env = {**os.environ, "PYTHONPATH": "src"}
        subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=True)
        return layer_times(json.loads(out.read_text()))


def layer_times(doc: dict) -> dict[str, float]:
    """A pytest-benchmark ``--benchmark-json`` document's rows in ms: each
    row's median under its name, and its minimum under "<name> min"."""
    out = {}
    for row in doc["benchmarks"]:
        out[row["name"]] = row["stats"]["median"] * 1e3
        out[f"{row['name']} min"] = row["stats"]["min"] * 1e3
    return out


def summary(pairs: list[tuple[float, float]], better: str) -> dict:
    """Both sides' medians, quartiles and ranges, and the pairs the change won."""
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    out = {}
    for side, values in (("parent", parent), ("change", change)):
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[f"{side}_median"] = statistics.median(values)
        out[f"{side}_quartiles"] = [q1, q3]
        out[f"{side}_range"] = [min(values), max(values)]
    base = out["parent_median"]
    out["change_vs_parent"] = (out["change_median"] - base) / base if base else None
    won = (c > p if better == "higher" else c < p for p, c in pairs)
    out["change_better_pairs"] = sum(won)
    out["pairs"] = len(pairs)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a perfbench workload")
    mode.add_argument("--layers", metavar="EXPR", help="bench_layers.py rows, as for pytest -k")
    parser.add_argument("--seeds", type=seeds, help="with --workload: e.g. 1-10 or 1,4,7")
    parser.add_argument("--pairs", type=int, default=10, help="with --layers (default 10)")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)

    if args.workload:
        if not args.seeds:
            parser.error("--workload needs --seeds")
        bench = json.loads((args.parent / "BENCHMARK.json").read_text())
        seconds = args.seconds or bench["run_seconds"]
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        labels, title = args.seeds, args.workload

        def measure(checkout: Path, seed: int) -> dict:
            result = run(checkout, args.workload, seed, seconds)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            return {"correct": result["correct"], "failed": result["failed"], **values}
    else:
        labels, title = list(range(1, args.pairs + 1)), f"bench_layers -k {args.layers!r}, ms"

        def measure(checkout: Path, _: int) -> dict:
            return layer_run(checkout, args.layers)

    runs = []
    for i, label in enumerate(labels):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = measure(getattr(args, side), label)
            runs.append({"pair": label, "side": side, **values})
            shown = ", ".join(
                f"{k} {v:.4g}" for k, v in values.items() if k not in ("correct", "failed")
            )
            print(f"pair {label} {side}: {shown}", file=sys.stderr, flush=True)

    by_pair = {(r["pair"], r["side"]): r for r in runs}
    sides = [(by_pair[p, "parent"], by_pair[p, "change"]) for p in labels]
    if not args.workload:  # every row both sides timed in every pair, its minimum next
        rows = set.intersection(*(set(r) for r in runs)) - {"pair", "side"}
        better = dict.fromkeys(sorted(rows), "lower")
    table = {
        name: summary([(parent[name], change[name]) for parent, change in sides], how)
        for name, how in better.items()
    }
    print(f"{title}, {len(labels)} pairs: metric, parent median, change median, "
          "change better in")
    for name, row in table.items():
        print(f"  {name}: {row['parent_median']:.4g} -> {row['change_median']:.4g}, "
              f"{row['change_better_pairs']}/{row['pairs']}")
    if args.json:
        order = "pairs in turn; the first parent first, the next change first, and so on"
        mode = {"workload": args.workload, "seconds": seconds} if args.workload else {
            "layers": args.layers, "unit": "ms",
            "metrics": "each row's median, and its minimum as '<row> min'"}
        doc = {**mode, "order": order, "summary": table, "runs": runs}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
