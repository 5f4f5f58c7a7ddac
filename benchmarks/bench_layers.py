"""Per-layer timings of kexnet at the fixed sizes of ROADMAP's baseline table.

One benchmark per row of that table, plus the fcn1 generator, the star
generator over the seven sizes of one ``star-roundtrip`` round, the text
writer that the star round trip also runs (and the same writer on a
schedule built directly, whose exchanges it checks in full), the
validator on the chain schedules at n=32, 64 and 256, on a star n=400
schedule with one bad step or with one host off the network, and on one
failing chain step of 4,000 exchanges, the text parser on the chains at
n=32 and 64, capable pairs with a star n=600 center failure, the
simulator on star n=600 with five failures at five times, and compare at
n=1000 beside n=200. Each times one layer call in process: generators,
validator, serializers, capable pairs, simulator, oracle and five CLI
commands. ``test_star_roundtrip`` and
``test_star_roundtrip_text`` time the whole star round trip at n=400
(generate, write, parse, validate) in each format as one number, and
``test_cli_star_roundtrip`` times it as two commands, ``schedule`` then
``validate``, through ``cli.main``; ``test_cli_chain_roundtrip`` does the
same for the chain at n=64 in text. Every row times its call with the
cyclic garbage collector paused, as a CLI command runs, and starts after
a full collection, so that it does not pay for the objects the rows
before it left. Inputs are built outside the timed call. Run from the
repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/bench_layers.py
    PYTHONPATH=src python -m pytest -q benchmarks/bench_layers.py --benchmark-json=out.json

``--benchmark-disable`` runs each body once without timing, as a smoke test.
The file name does not match ``test_*.py``, so the test suite skips it.
"""

import contextlib
import gc
import io
import json

import pytest

from kexnet import oracle, protocols, serialize, simengine
from kexnet.analysis import (
    CableFailure,
    CenterSwitchFailure,
    KeyExchangerFailure,
    capable_pairs,
)
from kexnet.cli import main
from kexnet.schedule import Schedule, validate_schedule
from kexnet.topology import TopologyKind, build_topology

STAR, LCH = TopologyKind.STAR, TopologyKind.LCH

# The star sizes of one perfbench star-roundtrip round: the midpoints of
# seven log-uniform strata of 64..400 hosts.
ROUND_STARS = (73, 95, 123, 160, 208, 270, 351)

pytestmark = pytest.mark.benchmark(disable_gc=True)


@pytest.fixture(autouse=True)
def _collected():
    gc.collect()


@pytest.fixture(scope="module")
def star400():
    return protocols.generate_star(400)


def test_generate_star(benchmark):
    benchmark(protocols.generate_star, 400)


def _generate_stars(sizes):
    return [protocols.generate_star(n) for n in sizes]


def test_generate_star_round(benchmark):
    benchmark(_generate_stars, ROUND_STARS)


def test_generate_fcn_single(benchmark):
    benchmark(protocols.generate_fcn_single, 400)


@pytest.mark.parametrize(
    "kind,n",
    [(STAR, 400), (TopologyKind.FCN_FULL, 400), (LCH, 256), (LCH, 32), (LCH, 64)],
    ids=["star", "fcn-full", "lch", "lch32", "lch64"],
)
def test_validate_schedule(benchmark, kind, n):
    schedule = protocols.generate_schedule(kind, n)
    assert benchmark(validate_schedule, schedule).ok


def test_validate_schedule_missing_pair(benchmark, star400):
    # One pair dropped: the validator walks every pair to name it.
    first, *rest = [step.exchanges for step in star400.steps]
    schedule = Schedule.from_pairs(star400.topology, [first[1:], *rest])
    report = benchmark(validate_schedule, schedule)
    assert [v.kind for v in report.violations] == ["missing-pair"]


def test_validate_schedule_one_bad_step(benchmark, star400):
    # One step holds a host twice, as in perfbench's "dup" corruption: that
    # step alone goes through the per-step path.
    steps = [step.exchanges for step in star400.steps]
    (a, _), (b, _) = steps[300][:2]
    steps[300] += ((a, b),)
    report = benchmark(validate_schedule, Schedule.from_pairs(star400.topology, steps))
    assert report.violations[0].step_index == 301


def test_validate_schedule_off_network_host(benchmark, star400):
    # Host 401 in step 301's first exchange: the fast accept refuses the
    # schedule and checks it step by step to find the refused step.
    steps = [step.exchanges for step in star400.steps]
    (a, _), *rest = steps[300]
    steps[300] = ((a, 401), *rest)
    report = benchmark(validate_schedule, Schedule.from_pairs(star400.topology, steps))
    first = report.violations[0]
    assert (first.step_index, first.kind, first.detail) == (301, "unknown-host", "host 401")


def test_validate_schedule_failing_chain_step(benchmark):
    # One step (0,1) (1,2) ... (3999,4000) on a chain of 4,000 hosts: host 0
    # makes it fail, and its spans, which overlap none, are not paired up.
    topology = build_topology(LCH, 4000)
    schedule = Schedule.from_pairs(topology, [[(h, h + 1) for h in range(4000)]])
    report = benchmark(validate_schedule, schedule)
    assert report.violations[0].detail == "host 0"


def _star_roundtrip(n):
    text = serialize.schedule_to_json(protocols.generate_star(n))
    return validate_schedule(serialize.json_to_schedule(text))


def test_star_roundtrip(benchmark):
    assert benchmark(_star_roundtrip, 400).ok


def _star_roundtrip_text(n):
    schedule = protocols.generate_star(n)
    text = serialize.schedule_to_text(schedule)
    return validate_schedule(serialize.text_to_schedule(text, schedule.topology))


def test_star_roundtrip_text(benchmark):
    assert benchmark(_star_roundtrip_text, 400).ok


def test_schedule_to_json(benchmark, star400):
    benchmark(serialize.schedule_to_json, star400)


def test_schedule_to_text(benchmark, star400):
    benchmark(serialize.schedule_to_text, star400)


def test_schedule_to_text_direct(benchmark, star400):
    # Built with Schedule(...), not from_pairs: the writer checks every
    # exchange again, as from_pairs would have.
    schedule = Schedule(star400.topology, star400.steps)
    benchmark(serialize.schedule_to_text, schedule)


def test_json_to_schedule(benchmark, star400):
    text = serialize.schedule_to_json(star400)
    assert benchmark(serialize.json_to_schedule, text) == star400


@pytest.mark.parametrize("kind,n", [(STAR, 400), (LCH, 32), (LCH, 64)], ids=["star", "lch32", "lch64"])
def test_text_to_schedule(benchmark, kind, n):
    schedule = protocols.generate_schedule(kind, n)
    text = serialize.schedule_to_text(schedule)
    assert benchmark(serialize.text_to_schedule, text, schedule.topology) == schedule


@pytest.mark.parametrize("n", [64, 128, 256])
def test_generate_lch(benchmark, n):
    assert len(benchmark(protocols.generate_lch, n).steps) == n * n // 4


# Five spoke and exchanger failures at five times inside the three passes.
FIVE_FAILURES = (
    (100, CableFailure(3)),
    (400, KeyExchangerFailure(88)),
    (800, CableFailure(17)),
    (1200, KeyExchangerFailure(300)),
    (1600, CableFailure(599)),
)


@pytest.mark.parametrize(
    "n,k,failures",
    [(50, 100, ((3, CableFailure(1)),)), (200, 10, ()), (600, 3, FIVE_FAILURES)],
    ids=["n50-k100-cable@3", "n200-k10", "n600-k3-five-failures"],
)
def test_simengine_run(benchmark, n, k, failures):
    config = simengine.SimConfig(build_topology(STAR, n), key_bits=k, failures=failures)
    benchmark(simengine.run, config)


@pytest.mark.parametrize(
    "kind,n,failures,capable",
    [
        (STAR, 150, [CableFailure(3)], 149 * 148 // 2),
        (LCH, 24, [CableFailure(8), CableFailure(16)], 3 * 28),
        (STAR, 600, [CableFailure(3), CenterSwitchFailure()], 0),
    ],
    ids=["star150-cable", "lch24-two-cuts", "star600-center"],
)
def test_capable_pairs(benchmark, kind, n, failures, capable):
    ok, _ = benchmark(capable_pairs, build_topology(kind, n), failures)
    assert len(ok) == capable


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# The largest star of the simulator workload, as the CLI prints it.
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cli_simulate(benchmark, fmt):
    argv = ["simulate", "--topology", "star", "--n", "150", "--k", "64",
            "--fail", "cable:3@40", "--fail", "ke:7@900", "--format", fmt]
    code, out = benchmark(_stdout, argv)
    if fmt == "json":
        pairs = len(json.loads(out)["bits_per_pair"])
    else:
        pairs = sum(line[:1].isdigit() for line in out.splitlines())
    assert (code, pairs) == (0, 150 * 149 // 2)


# star n=9 and chain n=14 are the rows the recursive oracle could not finish.
@pytest.mark.parametrize(
    "kind,n",
    [(STAR, 8), (TopologyKind.FCN_SINGLE, 8), (STAR, 9), (LCH, 14)],
)
def test_oracle(benchmark, kind, n):
    benchmark(oracle.min_steps_bruteforce, kind, n)


def test_cli_formula(benchmark):
    assert benchmark(main, ["formula", "--n", "5"]) == 0


def test_cli_compare(benchmark):
    # Reads every count, steps too, from the geometry records: O(1) in n.
    assert benchmark(main, ["compare", "--n", "200", "--format", "csv"]) == 0


def test_cli_compare_n1000(benchmark):
    # As fast as n=200; it took about 1.2 s while compare built the schedules.
    assert benchmark(main, ["compare", "--n", "1000", "--format", "csv"]) == 0


def test_cli_validate_empty_star600(benchmark, tmp_path):
    # Every pair is missing: 100 report lines and a count, written to a file.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"topology": {"kind": "star", "n_hosts": 600}, "steps": []}))
    argv = ["validate", "--in", str(path), "--out", str(tmp_path / "report.txt")]
    assert benchmark(main, argv) == 3


def _cli_star_roundtrip(path):
    schedule = ["schedule", "--topology", "star", "--n", "400", "--format", "json"]
    return main([*schedule, "--out", path]), main(["validate", "--in", path])


def _cli_chain_roundtrip(path):
    schedule = ["schedule", "--topology", "lch", "--n", "64"]
    validate = ["validate", "--in", path, "--topology", "lch", "--n", "64"]
    return main([*schedule, "--out", path]), main(validate)


def test_cli_chain_roundtrip(benchmark, tmp_path):
    # The largest chain of the chain-search workload, written as text and read back.
    assert benchmark(_cli_chain_roundtrip, str(tmp_path / "lch64.txt")) == (0, 0)


def test_cli_star_roundtrip(benchmark, tmp_path):
    # The largest star of the star-roundtrip workload, written and read back.
    assert benchmark(_cli_star_roundtrip, str(tmp_path / "star400.json")) == (0, 0)
