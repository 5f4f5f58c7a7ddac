import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from kexnet.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_single(capsys):
    code, out, _ = run_cli(capsys, "formula", "--n", "5")
    assert (code, out) == (0, "6\n")


def test_formula_range_csv(capsys):
    code, out, _ = run_cli(capsys, "formula", "--range", "2..4", "--format", "csv")
    assert code == 0
    assert out == "n,sbep\n2,1\n3,3\n4,3\n"


def test_formula_matches_golden_table(capsys):
    _, out, _ = run_cli(capsys, "formula", "--range", "2..20", "--format", "csv")
    assert out == (GOLDEN / "table3.csv").read_text()


def test_formula_below_minimum(capsys):
    code, _, err = run_cli(capsys, "formula", "--n", "1")
    assert code == 2
    assert err


def test_schedule_star5_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--topology", "star", "--n", "5")
    assert code == 0
    assert out == (GOLDEN / "table1_star5.txt").read_text()
    assert out.splitlines()[0] == "step 1: (1,2) (3,4)"


def test_schedule_fcn_full(capsys):
    _, out, _ = run_cli(capsys, "schedule", "--topology", "fcn-full", "--n", "3")
    assert len(out.splitlines()) == 1


def test_schedule_fcn1(capsys):
    _, out, _ = run_cli(capsys, "schedule", "--topology", "fcn1", "--n", "5")
    assert len(out.splitlines()) == 5


def test_schedule_json_parses(capsys):
    _, out, _ = run_cli(
        capsys, "schedule", "--topology", "star", "--n", "5", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["topology"] == {"kind": "star", "n_hosts": 5}
    assert len(doc["steps"]) == 6


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "s.json"
    run_cli(
        capsys, "schedule", "--topology", "star", "--n", "6",
        "--format", "json", "--out", str(path),
    )
    code, out, _ = run_cli(capsys, "validate", "--in", str(path))
    assert (code, out) == (0, "ok\n")


def test_validate_text_input(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("step 1: (1,2)\nstep 2: (1,2)\nstep 3: (1,3)\nstep 4: (2,3)\n")
    code, out, _ = run_cli(
        capsys, "validate", "--in", str(path), "--topology", "star", "--n", "3"
    )
    assert code == 3
    assert "duplicate-pair" in out


_SCHEDULE_HEAD = b'{"topology": {"kind": "star", "n_hosts": 3}, "steps": '


@pytest.mark.parametrize(
    "data",
    [
        _SCHEDULE_HEAD + b"[[[1, 1]]]}",
        b"{not json",
        b"garbage\n",
        _SCHEDULE_HEAD + b'[[["1", "2"]]]}',
        _SCHEDULE_HEAD + b"[[[1, 2, 3]]]}",
        b'{"topology": {"kind": "ring", "n_hosts": 3}, "steps": []}',
        b"\xff\xfestep 1: (1,2)\n",
        b"step 1: (1,1)\n",
    ],
    ids=[
        "self-pair", "bad-json", "garbage-line", "string-ids", "3-element-pair",
        "unknown-kind", "not-utf8", "text-self-pair",
    ],
)
def test_validate_malformed_file(data, tmp_path, capsys):
    path = tmp_path / "s"
    path.write_bytes(data)
    code, out, err = run_cli(
        capsys, "validate", "--in", str(path), "--topology", "star", "--n", "3"
    )
    assert (code, out) == (3, "")
    assert err.startswith("kexnet: ") and err.count("\n") == 1


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["topology", "kind", "n_hosts", "steps"]) | st.text(max_size=2),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)
_schedule_docs = st.fixed_dictionaries(
    {
        "topology": st.fixed_dictionaries(
            {"kind": st.sampled_from(["star", "lch", "fcn1", "ring"]) | _json_values,
             "n_hosts": st.integers(-1, 5) | _json_values}
        ),
        "steps": st.lists(
            st.lists(st.lists(st.integers(-1, 6), max_size=3) | _json_values, max_size=3),
            max_size=4,
        ),
    }
)
_text_lines = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3),
    ),
    max_size=5,
).map(
    lambda steps: "".join(
        f"step {i}: " + " ".join(f"({a},{b})" for a, b in pairs) + "\n"
        for i, pairs in steps
    )
)


@settings(deadline=None, max_examples=300)
@given(
    st.binary(max_size=200)
    | st.one_of(_json_values, _schedule_docs).map(lambda d: json.dumps(d).encode())
    | _text_lines.map(str.encode)
)
def test_validate_any_bytes_no_traceback(data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "s"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                ["validate", "--in", str(path), "--topology", "star", "--n", "4"]
            )
    assert code in {0, 2, 3}
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue().startswith("invalid\n") or err.getvalue().count("\n") == 1


def test_compare_csv(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "10", "--format", "csv")
    assert code == 0
    star_row = [line for line in out.splitlines() if line.startswith("star,")][0]
    assert star_row.split(",")[4] == "12"


def test_oracle(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--topology", "star", "--n", "5")
    assert code == 0
    assert out.splitlines()[0] == "min_steps 5"


def test_oracle_too_large(capsys):
    code, _, err = run_cli(capsys, "oracle", "--topology", "star", "--n", "12")
    assert code == 3
    assert err


def test_simulate_center_failure(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--topology", "star", "--n", "5", "--k", "1",
        "--fail", "center@4", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lost_pairs"]) == 5


def test_simulate_csv(capsys):
    _, out, _ = run_cli(
        capsys, "simulate", "--topology", "star", "--n", "3", "--format", "csv"
    )
    assert out == "pair,bits\n1-2,1\n1-3,1\n2-3,1\n"


def test_bad_failure_spec(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--topology", "star", "--n", "5", "--fail", "bogus@x"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--k", "0"], 2),
        (["--fail", "center@0"], 2),
        (["--fail", "cable:99@1000"], 3),
    ],
)
def test_simulate_bad_input(argv, code, capsys):
    got, out, err = run_cli(
        capsys, "simulate", "--topology", "star", "--n", "5", *argv
    )
    assert (got, out) == (code, "")
    assert err.startswith("kexnet: ") and err.count("\n") == 1


def test_regress(capsys):
    code, out, _ = run_cli(capsys, "regress", "--n-max", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slope 1.319298246"
    assert lines[1] == "intercept -1.301754386"
    assert lines[2].startswith("r_squared 0.988989157")


def test_regress_svg(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        capsys, "regress", "--n-max", "20", "--plot", str(svg)
    )
    assert code == 0
    content = svg.read_text()
    assert content.startswith("<svg")
    assert 'width="800" height="600"' in content
    assert ">N</text>" in content and ">SBEP(N)</text>" in content
    assert content.count("<circle") == 19


def test_atomic_out(tmp_path, capsys):
    target = tmp_path / "out.csv"
    run_cli(
        capsys, "formula", "--range", "2..5", "--format", "csv", "--out", str(target)
    )
    assert target.read_text().startswith("n,sbep\n")
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "--range", "2..20", "--format", "csv"],
        ["schedule", "--topology", "lch", "--n", "9"],
        ["compare", "--n", "8", "--format", "json"],
        ["simulate", "--topology", "star", "--n", "6", "--k", "2", "--format", "csv"],
        ["regress", "--n-max", "15"],
    ],
)
def test_commands_deterministic(argv, capsys):
    outputs = {run_cli(capsys, *argv)[1] for _ in range(3)}
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "--range", "2..20", "--format", "json"],
        ["compare", "--n", "6", "--format", "json"],
        ["simulate", "--topology", "lch", "--n", "4", "--format", "json"],
    ],
)
def test_json_outputs_well_formed(argv, capsys):
    _, out, _ = run_cli(capsys, *argv)
    json.loads(out)
