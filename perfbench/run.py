"""Closed-loop benchmark of the kexnet command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``kexnet.cli.main(argv)`` in this process, issuing each
command after the previous one returned, as a person or a script driving
the CLI does. Every command's exit code and output are checked outside
the timed interval; a failed check counts as an error. Command times
are scaled to a fixed reference speed of the host (``speed.py``), so that
the host's own speed swings do not show as changes. The last line of
stdout is one JSON object with the end-to-end metrics (``--trace 0``) or
the per-layer metrics of a traced run (``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
GOLDEN = ROOT / "tests" / "golden"
MIN_SAMPLES = 100  # p90 then has at least ten samples beyond it
MIN_ROUNDS = 5  # the medians over rounds need a few rounds
HARD_CAP_S = 120.0  # ends a run that is far too slow to reach MIN_SAMPLES
SETUP_REPEATS = 7
# Seconds of command time one round takes, measured on a 2-CPU x86-64
# machine with CPython 3.11; sets how many rounds a traced run covers.
ROUND_SECONDS = {"star-roundtrip": 4.2, "chain-search": 2.8, "keysim-failures": 4.6,
                 "paper-tables": 0.12}

# Per workload: the spans of the layer it was built to stress, and which of
# their totals is compared with cli.main time for trace.focus_share.
FOCUS = {
    "star-roundtrip": (
        [f"protocols.generate_schedule.{k}" for k in ("star", "fcn1", "fcn-full")]
        + ["schedule.validate_schedule", "serialize.schedule_to_text",
           "serialize.schedule_to_json", "serialize.text_to_schedule",
           "serialize.json_to_schedule"],
        "ms",
    ),
    "chain-search": (["protocols.generate_schedule.lch"], "ms"),
    "keysim-failures": (["simengine.run"], "self_ms"),
    "paper-tables": (["cli.main"], "self_ms"),
}


def import_cli():
    """kexnet.cli from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kexnet.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kexnet from {src}: {exc}")
    if Path(kexnet.cli.__file__).resolve().parents[1] != src.resolve():
        sys.exit(f"perfbench: kexnet was imported from {kexnet.cli.__file__}, not {src}")
    return kexnet.cli


class Runner:
    """Runs units of commands through the CLI and checks what they print."""

    def __init__(self, cli, tmp: str) -> None:
        self.cli = cli
        self.tmp = tmp
        self.tracer = None
        self.probe = None  # a speed.Probe while the end-to-end loop runs

    def _path(self, template: str) -> Path:
        return Path(template.replace("{tmp}", self.tmp))

    def _prepare(self, check: dict) -> set[str]:
        """Corrupt the file a validate reads, if asked; the expected violations."""
        spec = check.get("corrupt")
        if spec is None:
            return set()
        path = self._path(check["file"])
        text, steps = checks.corrupt(path.read_text(), spec["mode"], random.Random(spec["seed"]))
        path.write_text(text)
        return checks.violation_kinds(check["topology"], check["n"], steps)

    def _check(self, check: dict, rc, out: str, expected: set[str]) -> str | None:
        kind = check["kind"]
        if kind == "validate":
            return checks.check_validate(rc, out, expected)
        if rc != 0:
            return f"exit code {rc}"
        if kind == "schedule":
            return checks.check_schedule_file(check["topology"], check["n"],
                                              self._path(check["file"]))
        if kind == "oracle":
            return checks.check_oracle(check["topology"], check["n"], out)
        if kind == "compare":
            return checks.check_compare(check["n"], check["format"], out)
        if kind == "simulate":
            return checks.check_simulate(check["topology"], check["n"], check["k"],
                                         check["fail"], check["format"], out, check["lost"])
        if kind == "formula_n":
            want = dict(line.split(",") for line in (GOLDEN / "table3.csv").read_text().split())
            return None if out == f"{want[str(check['n'])]}\n" else f"formula printed {out!r}"
        if kind == "golden":
            return None if out == (GOLDEN / check["golden"]).read_text() else "differs from golden"
        if kind == "regress":
            return checks.check_regress(out, check["plot"] and self._path(check["plot"]))
        raise ValueError(f"unknown check {kind!r}")

    def run_unit(self, unit: list[dict], latencies: list[float], traced: bool = False) -> list[str]:
        """Run one unit, appending each command's latency; return its failures."""
        failures = []
        for cmd in unit:
            argv = [a.replace("{tmp}", self.tmp) for a in cmd["argv"]]
            expected = self._prepare(cmd["check"])
            if self.probe:
                self.probe.tick()
            out, err = io.StringIO(), io.StringIO()
            with self.tracer.installed() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = self.cli.main(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception as exc:  # a traceback is a failed command
                        rc = None
                        err.write(f"{type(exc).__name__}: {exc}")
                end = time.perf_counter()
                latencies.append(end - start)
            if self.probe:
                self.probe.command(start, end)
            if traced:
                self.tracer.request += 1
            try:
                problem = self._check(cmd["check"], rc, out.getvalue(), expected)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"{' '.join(argv)}: {problem} {err.getvalue()[:200]}".strip())
        return failures


def set_up(args):
    """Everything before the timed phase: import, the first round of inputs,
    scratch dir, warm-up. Returns (runner, rounds, warm-up failures)."""
    cli = import_cli()
    if args.replay:
        lines = Path(args.replay).read_text().splitlines()[1:]  # after the header
        rounds = itertools.cycle([json.loads(line) for line in lines])
    else:
        rounds = workloads.rounds(args.workload, args.seed)
    rounds = itertools.chain([next(rounds)], rounds)
    OUT.mkdir(exist_ok=True)
    runner = Runner(cli, tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    failures = []
    for unit in workloads.warmups(args.workload):
        failures += runner.run_unit(unit, [])
    return runner, rounds, failures


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process until its set-up is done,
    scaled to the reference speed by kernel timings that process takes
    once it is ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    if args.replay:
        argv += ["--replay", args.replay]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up run failed: {proc.stderr.strip()}")
        ready, kernel_s = map(float, proc.stdout.split()[-2:])
        times.append((ready - start) * speed.REF_MS / 1000 / kernel_s)
    return times


def run_loop(runner: Runner, rounds, seconds: float):
    """Closed loop over whole rounds until ``seconds`` of command time are
    spent, MIN_SAMPLES commands are done and MIN_ROUNDS rounds are run.

    Every round holds the same mix of work, so the figures do not depend
    on how many rounds fit. Returns (latencies of each round, the same
    scaled to the reference speed, failures).
    """
    per_round, failures = [], []
    runner.probe = probe = speed.Probe()
    started = time.monotonic()
    while (sum(map(sum, per_round)) < seconds or len(per_round) < MIN_ROUNDS
           or sum(map(len, per_round)) < MIN_SAMPLES):
        if time.monotonic() - started > HARD_CAP_S:
            break
        latencies = []
        for unit in next(rounds):
            failures += runner.run_unit(unit, latencies)
        per_round.append(latencies)
    runner.probe = None
    probe.sample(speed.NEIGHBOURS)
    scaled = iter(probe.scaled([t for one in per_round for t in one]))
    return per_round, [[next(scaled) for _ in one] for one in per_round], failures


def recorded(rounds, path: Path, header: dict):
    """Pass ``rounds`` through, appending each to ``path`` as a JSON line."""
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for one in rounds:
            fh.write(json.dumps(one) + "\n")
            fh.flush()
            yield one


def run_traced(runner: Runner, rounds):
    """Each unit of ``rounds`` twice, untraced and traced, taking turns at
    going first. Returns (untraced latencies, traced latencies, failures).
    """
    plain, with_trace, failures = [], [], []
    units = [unit for one in rounds for unit in one]
    for i, unit in enumerate(units):
        for traced in (False, True) if i % 2 else (True, False):
            failures += runner.run_unit(unit, with_trace if traced else plain, traced)
    return plain, with_trace, failures


def end_to_end(setup_times, per_round, failed) -> dict:
    """The end-to-end metrics. Each time metric is taken in every round,
    which holds the workload's whole mix, and reported as its median over
    the rounds, so that a few seconds in which the host runs slow move it
    little."""
    ms = [[t * 1000 for t in one] for one in per_round]
    attempted = sum(map(len, per_round))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "cmds_per_s": (statistics.median(len(one) / sum(one) for one in per_round), "1/s"),
        "cmd_ms.p50": (statistics.median(statistics.median(one) for one in ms), "ms"),
        "cmd_ms.p90": (statistics.median(statistics.quantiles(one, n=10)[8] for one in ms),
                       "ms"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload: str, tracer, plain, with_trace) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name in tracing.SPANS:
        row = totals[name]
        metrics[f"{name}.ms"] = (row["ms"], "ms")
        metrics[f"{name}.self_ms"] = (row["self_ms"], "ms")
        metrics[f"{name}.calls"] = (row["calls"], "count")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    attempted = tracer.counts["simengine.exchanges_attempted"]
    credited = tracer.counts["simengine.bits_credited"]
    metrics["simengine.credit_ratio"] = (credited / attempted if attempted else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (sum(with_trace) / sum(plain) - 1, "ratio")
    spans, field = FOCUS[workload]
    main_ms = totals["cli.main"]["ms"]
    focus = sum(totals[name][field] for name in spans)
    metrics["trace.focus_share"] = (focus / main_ms if main_ms else 0.0, "ratio")
    return metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", help="requests.jsonl recorded by an earlier run")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("KEXNET_FORMAT", None)  # the CLI's default format must not vary
    runner, rounds, warm_failures = set_up(args)
    try:
        if args.setup_only:
            ready = time.monotonic()
            if warm_failures:
                sys.exit("perfbench: warm-up failed: " + "; ".join(warm_failures))
            print("ready", repr(ready), repr(speed.kernel_seconds()))
            return 0
        stem = OUT / f"{args.workload}-seed{args.seed}"
        header = {"workload": args.workload, "seed": args.seed}
        rounds = recorded(rounds, Path(f"{stem}.requests.jsonl"), header)
        if args.trace:
            runner.tracer = tracing.Tracer()
            # A fixed amount of work, about --seconds long here, so that two
            # versions of kexnet are traced on the same commands.
            count = max(1, round(args.seconds / (2 * ROUND_SECONDS[args.workload])))
            plain, with_trace, failures = run_traced(runner, itertools.islice(rounds, count))
            runner.tracer.write(Path(f"{stem}.spans.json"))
            metrics = per_layer(args.workload, runner.tracer, plain, with_trace)
            attempted = len(plain) + len(with_trace)
            if runner.tracer.missing:
                print("untraced (binding not found):", ", ".join(runner.tracer.missing))
        else:
            setup_times = measure_setup(args)
            per_round, scaled, failures = run_loop(runner, rounds, args.seconds)
            metrics = end_to_end(setup_times, scaled, len(failures))
            plain = [t for one in per_round for t in one]
            attempted = len(plain)
            p90 = metrics["cmd_ms.p90"][0] / 1000
            beyond = sum(t > p90 for one in scaled for t in one)
            print(f"{args.workload} seed {args.seed}: {len(plain)} commands in "
                  f"{len(per_round)} rounds, {sum(plain):.2f} s of command time "
                  f"(wall), {sum(map(sum, scaled)):.2f} s at reference speed; "
                  f"p90 has {beyond} samples beyond it")
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)

    for line in (warm_failures + failures)[:10]:
        print("FAILED", line, file=sys.stderr)
    result = {
        "correct": not warm_failures and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
