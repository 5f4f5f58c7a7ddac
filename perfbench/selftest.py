"""Smoke test of the benchmark itself; takes a minute or two.

    python3 perfbench/selftest.py

For every workload it checks that a short run prints each end-to-end and
per-layer metric of BENCHMARK.json with its unit, that no command fails,
and that the workload's own commands, traced, reach every span it is
meant to exercise, nested under the right callers, and that a command's
time is scaled by the reference-kernel timings on both sides of it. It
prints the short runs' end-to-end metrics, one line per workload.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys

import checks
import run
import speed
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SERIALIZE = [f"serialize.{f}" for f in
             ("schedule_to_text", "schedule_to_json", "text_to_schedule", "json_to_schedule")]
GENERATE = [f"protocols.generate_schedule.{k}" for k in tracing.KINDS]

# Spans each workload must reach.
EXPECTED = {
    "star-roundtrip": ["cli.main", *GENERATE[:3], "schedule.validate_schedule", *SERIALIZE],
    "chain-search": ["cli.main", *GENERATE, "schedule.validate_schedule",
                     "serialize.schedule_to_text", "serialize.text_to_schedule",
                     "oracle.min_steps_bruteforce", "analysis.compare_networks"],
    "keysim-failures": ["cli.main", *GENERATE, "simengine.run", "analysis.capable_pairs"],
    "paper-tables": ["cli.main", GENERATE[0], "serialize.schedule_to_text",
                     "oracle.min_steps_bruteforce", "simengine.run", "analysis.capable_pairs",
                     "analysis.compare_networks", "analysis.fit_linear",
                     "plotting.scatter_with_line"],
}

# (caller, callee) span pairs that must appear as parent and child.
NESTED = {
    "chain-search": [("analysis.compare_networks", "protocols.generate_schedule.lch")],
    "keysim-failures": [("simengine.run", "protocols.generate_schedule.star"),
                        ("simengine.run", "analysis.capable_pairs")],
}


def result_of(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def check_metrics(workload: str, trace: int) -> None:
    key = "per_layer" if trace else "end_to_end"
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    result = result_of(argv)
    assert result["correct"] and result["failed"] == 0, result
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} {key}: {sorted(set(got) ^ set(want))}"
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # error_frac == 0
        print(workload, ", ".join(f"{name} {m['value']:.4g} {m['unit']}"
                                  for name, m in result["metrics"].items()))


def check_spans(workload: str) -> None:
    """Trace the workload's units in order until every expected span is seen."""
    args = run.parse_args(["--workload", workload, "--seed", "1"])
    runner, rounds, failures = run.set_up(args)
    runner.tracer = tracing.Tracer()
    assert not runner.tracer.missing, runner.tracer.missing
    try:
        for unit in next(rounds):
            failures += runner.run_unit(unit, [], traced=True)
            seen = {span[3] for span in runner.tracer.spans}
            if seen >= set(EXPECTED[workload]):
                break
    finally:
        run.shutil.rmtree(runner.tmp, ignore_errors=True)
    assert not failures, failures
    assert seen >= set(EXPECTED[workload]), f"{workload}: no {set(EXPECTED[workload]) - seen}"
    names = {span[0]: span[3] for span in runner.tracer.spans}
    edges = {(names.get(span[1]), span[3]) for span in runner.tracer.spans}
    for edge in NESTED.get(workload, []):
        assert edge in edges, f"{workload}: {edge[1]} never ran under {edge[0]}"


def check_reference() -> None:
    """The benchmark's own expectations agree with the published tables."""
    rows = (run.GOLDEN / "table3.csv").read_text().split()[1:]
    assert all(checks.sbep(int(n)) == int(s) for n, s in (r.split(",") for r in rows))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    same = [list(itertools.islice(workloads.rounds("keysim-failures", 7), 2)) for _ in "ab"]
    assert same[0] == same[1]


def check_speed() -> None:
    """A command's scale comes from the kernel timings on both sides of it."""
    probe = speed.Probe()
    before = [(t, 0.002) for t in range(speed.NEIGHBOURS + 2)]
    after = [(t + 100.0, 0.004) for t in range(speed.NEIGHBOURS + 2)]
    probe.samples, probe.commands = before + after, [(50.0, 60.0)]
    (scaled,) = probe.scaled([0.3])
    assert abs(scaled - 0.3 * speed.REF_MS / 3) < 1e-9, scaled


def main() -> int:
    check_reference()
    check_speed()
    for workload in workloads.WORKLOADS:
        check_metrics(workload, trace=0)
        check_metrics(workload, trace=1)
        check_spans(workload)
        print(f"ok  {workload}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    run.MIN_SAMPLES = 10  # a smoke run needs no stable p90
    run.MIN_ROUNDS = 1
    sys.exit(main())
