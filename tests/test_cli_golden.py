"""Byte-for-byte CLI outputs frozen as goldens.

Each case runs ``kexnet.cli.main`` in every output format and compares
stdout with ``tests/golden/cli_<case>.<ext>``, so a refactor of the
renderers or of the data model cannot change what users see.
"""

import contextlib
import hashlib
import io
import pathlib

import pytest

from kexnet.cli import main
from kexnet.protocols import generate_schedule
from kexnet.topology import TopologyKind

GOLDEN = pathlib.Path(__file__).parent / "golden"

FORMATS = {"table": "txt", "csv": "csv", "json": "json"}

CASES = {
    "formula_2_12": ["formula", "--range", "2..12"],
    "compare_n10": ["compare", "--n", "10"],
    "simulate_star5_center": [
        "simulate", "--topology", "star", "--n", "5", "--k", "2", "--fail", "center@4",
    ],
    "simulate_star6_cable": [
        "simulate", "--topology", "star", "--n", "6", "--k", "2", "--fail", "cable:2@3",
    ],
    "simulate_lch6_cable": [
        "simulate", "--topology", "lch", "--n", "6", "--k", "2", "--fail", "cable:3@2",
    ],
    "simulate_fcnfull5_ke": [
        "simulate", "--topology", "fcn-full", "--n", "5", "--k", "2",
        "--fail", "ke:2:3@1",
    ],
    "simulate_fcn1_5_cable": [
        "simulate", "--topology", "fcn1", "--n", "5", "--k", "2", "--fail", "cable:5-1@2",
    ],
    # More than 9 hosts, so numeric and string order of lost_pairs differ.
    "simulate_star12_lost": [
        "simulate", "--topology", "star", "--n", "12", "--k", "3",
        "--fail", "center@30", "--fail", "cable:3@5",
    ],
    # A failure at step 1, both slots of one host lost at the same time,
    # and a failure past the horizon (3 passes of 12 steps).
    "simulate_lch7_edges": [
        "simulate", "--topology", "lch", "--n", "7", "--k", "3",
        "--fail", "cable:2@1", "--fail", "ke:4:1@9", "--fail", "ke:4:2@9",
        "--fail", "cable:5@999",
    ],
    # Failures on the last step of the first and of the second pass.
    "simulate_star9_pass_end": [
        "simulate", "--topology", "star", "--n", "9", "--k", "2",
        "--fail", "ke:3@12", "--fail", "cable:7@24",
    ],
}

# A 4-host chain schedule with one violation of every kind: an interior
# overlap, a repeated pair, an unknown host and two missing pairs.
CORRUPT_LCH4 = (
    '{"topology": {"kind": "lch", "n_hosts": 4},\n'
    ' "steps": [[[1, 3], [2, 4]], [[1, 2], [2, 1]], [[3, 4], [4, 5]]]}\n'
)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, capsys):
    code = main([*CASES[case], "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"cli_{case}.{FORMATS[fmt]}").read_text()


def test_validate_invalid_report_matches_golden(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text(CORRUPT_LCH4)
    code = main(["validate", "--in", str(path)])
    out = capsys.readouterr().out
    assert code == 3
    assert out == (GOLDEN / "cli_validate_invalid.txt").read_text()


# simulate at the largest size of each kind in the benchmark's failure
# workload, with k in {1, 7, 256} and the first 0-3 of the kind's failures.
# Failure j of 3 takes effect at j/4 of the horizon; the chain's last two
# failures take both slots of host 5 at the same time.
SIM_LARGEST = {"star": 150, "fcn1": 80, "fcn-full": 50, "lch": 24}
SIM_FAILURES = {
    "star": ["cable:17", "ke:88", "center"],
    "fcn1": ["cable:3-70", "ke:41", "cable:80-1"],
    "fcn-full": ["ke:7:12", "cable:10-20", "ke:50:49"],
    "lch": ["cable:12", "ke:5:2", "ke:5:1"],
}


def simulate_digest_cases():
    for topology, n in SIM_LARGEST.items():
        period = len(generate_schedule(TopologyKind(topology), n).steps)
        for k in (1, 7, 256):
            quarters = [max(1, k * period * j // 4) for j in (1, 2, 3)]
            if topology == "lch":
                quarters[2] = quarters[1]
            for m in range(4):
                fail = [
                    arg
                    for spec, at in zip(SIM_FAILURES[topology][:m], quarters)
                    for arg in ("--fail", f"{spec}@{at}")
                ]
                for fmt in sorted(FORMATS):
                    yield [
                        "simulate", "--topology", topology, "--n", str(n),
                        "--k", str(k), *fail, "--format", fmt,
                    ]


def stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


# One line per command: the sha256 of its stdout, then its arguments.
SIM_DIGESTS = [
    line.split(" ", 1)
    for line in (GOLDEN / "simulate_sha256.txt").read_text().splitlines()
]


def test_simulate_digest_cases_are_frozen():
    assert [argv for _, argv in SIM_DIGESTS] == [
        " ".join(argv) for argv in simulate_digest_cases()
    ]


@pytest.mark.parametrize("digest,argv", SIM_DIGESTS, ids=[a for _, a in SIM_DIGESTS])
def test_simulate_matches_frozen_digest(digest, argv):
    assert stdout_digest(argv.split()) == (0, digest)


# compare in csv for every n from 2 to 64: one line per n, the sha256 of its
# stdout, then its arguments. Every per-kind count, class and failure text
# of the table is in it.
COMPARE_DIGESTS = [
    line.split(" ", 1)
    for line in (GOLDEN / "compare_sha256.txt").read_text().splitlines()
]


def test_compare_digest_cases_are_frozen():
    assert [argv for _, argv in COMPARE_DIGESTS] == [
        f"compare --n {n} --format csv" for n in range(2, 65)
    ]


@pytest.mark.parametrize("digest,argv", COMPARE_DIGESTS, ids=[a for _, a in COMPARE_DIGESTS])
def test_compare_matches_frozen_digest(digest, argv):
    assert stdout_digest(argv.split()) == (0, digest)
