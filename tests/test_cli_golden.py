"""Byte-for-byte CLI outputs frozen as goldens.

Each case runs ``kexnet.cli.main`` in every output format and compares
stdout with ``tests/golden/cli_<case>.<ext>``, so a refactor of the
renderers or of the data model cannot change what users see.
"""

import pathlib

import pytest

from kexnet.cli import main

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
