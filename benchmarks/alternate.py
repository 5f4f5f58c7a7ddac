"""Alternated perfbench runs of two checkouts, summed up per end-to-end metric.

Runs the checkouts' own, unchanged ``perfbench/run.py`` once per seed in
each, one run at a time, in ABBA order: the first seed runs the parent
first, the second the change first, and so on, so that a drift of the
host's speed falls on both sides alike. For each end-to-end metric that
``BENCHMARK.json`` names, it prints both sides' medians and in how many
pairs (the two runs of one seed) the change was better. From the root of
a checkout:

    python3 benchmarks/alternate.py PARENT CHANGE --workload chain-search --seeds 1-10
    python3 benchmarks/alternate.py PARENT CHANGE --workload star-roundtrip --seeds 1,2 \\
        --seconds 20 --json out.json

``--json`` also writes every run and the summary (medians, quartiles and
ranges of both sides) to a file. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    runs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(getattr(args, side), args.workload, seed, seconds)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "side": side, "correct": result["correct"],
                         "failed": result["failed"], **values})
            print(f"seed {seed} {side}: " + ", ".join(f"{k} {values[k]}" for k in metrics),
                  file=sys.stderr, flush=True)

    by_seed = {(r["seed"], r["side"]): r for r in runs}
    sides = [(by_seed[s, "parent"], by_seed[s, "change"]) for s in args.seeds]
    table = {
        name: summary([(parent[name], change[name]) for parent, change in sides], better)
        for name, better in metrics.items()
    }
    print(f"{args.workload}, {len(args.seeds)} pairs: metric, parent median, change median, "
          "change better in")
    for name, row in table.items():
        print(f"  {name}: {row['parent_median']:.4g} -> {row['change_median']:.4g}, "
              f"{row['change_better_pairs']}/{row['pairs']}")
    if args.json:
        order = "seeds in turn; the first seed parent first, the next change first, and so on"
        doc = {"workload": args.workload, "seconds": seconds, "order": order,
               "summary": table, "runs": runs}
        args.json.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
