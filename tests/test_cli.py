import contextlib
import gc
import io
import json
import pathlib
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from kexnet import analysis, cli, protocols, simengine
from kexnet.cli import main
from kexnet.topology import TopologyKind, build_topology
from test_analysis import valid_failures
from test_cli_golden import CASES

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


def test_validate_step_index(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("step 1: (1,2)\nstep 1: (1,3)\nstep 7: (2,3)\n")
    code, out, _ = run_cli(
        capsys, "validate", "--in", str(path), "--topology", "fcn1", "--n", "3"
    )
    assert code == 3
    assert out == (
        "invalid\n"
        "step 1: step-index: expected index 2\n"
        "step 7: step-index: expected index 3\n"
    )


def test_validate_empty_star600_capped(tmp_path, capsys):
    # 179,700 pairs are missing: the first 100 in pair order, then the count.
    path = tmp_path / "empty.json"
    path.write_text('{"topology": {"kind": "star", "n_hosts": 600}, "steps": []}')
    code, out, err = run_cli(capsys, "validate", "--in", str(path))
    assert (code, err) == (3, "")
    lines = out.splitlines()
    assert lines[0] == "invalid" and len(lines) == 102
    assert all(line.startswith("step -: missing-pair: ") for line in lines[1:])
    assert lines[1:101] == [f"step -: missing-pair: (1,{b})" for b in range(2, 102)]
    assert lines[101] == "step -: missing-pair: 179600 more pairs missing"


def test_validate_failing_chain_step_bounded(tmp_path, capsys):
    # One step (0,1) (1,2) ... (19999,20000) on a chain of 20,000 hosts: host
    # 0 makes it fail, and its spans, which overlap none, are not paired up.
    path = tmp_path / "chain.txt"
    path.write_text("step 1:" + "".join(f" ({h},{h + 1})" for h in range(20000)) + "\n")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "validate", "--in", str(path), "--topology", "lch", "--n", "20000"
    )
    assert time.perf_counter() - start < 2
    assert (code, err) == (3, "")
    assert out.splitlines()[:2] == ["invalid", "step 1: unknown-host: host 0"]


def test_compare_costs_no_schedule(capsys):
    # Every count comes from the geometry record, so a million hosts is as
    # quick as ten.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", "--n", "1000000", "--format", "csv")
    assert time.perf_counter() - start < 0.5
    assert (code, err) == (0, "")
    assert out.splitlines()[3] == (
        "lch,999999,2000000,0,250000000000,O(N),O(N),O(N^2),"
        "any cable segment splits the network in two"
    )


_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _LIMIT, reason="this Python prints an int of any length")
@pytest.mark.parametrize(
    "argv, what",
    [
        # n parses, but the cable count n(n-1)/2 has about twice its digits.
        *((["compare", "--n", "1" + "0" * (_LIMIT // 2 + 100), "--format", fmt], "counts have")
          for fmt in cli._FORMATS),
        # The largest n that parses gives a star step count of one digit more.
        (["formula", "--n", "9" * _LIMIT], "step count has"),
    ],
    ids=[*cli._FORMATS, "formula"],
)
def test_refuses_counts_too_long_to_print(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"kexnet: --n is too large: its {what} too many digits to print\n"


@pytest.mark.skipif(not _LIMIT, reason="this Python prints an int of any length")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_validate_refuses_counts_too_long_to_print(fmt, tmp_path, capsys):
    # n parses, but the count of missing pairs has about twice its digits.
    n = "1" + "0" * (_LIMIT // 2 + 50)
    path = tmp_path / "s"
    if fmt == "json":
        path.write_text('{"topology": {"kind": "star", "n_hosts": %s}, "steps": []}' % n)
    else:
        path.write_text("step 1: (1,2)\n")
    argv = ["validate", "--in", str(path), "--topology", "star", "--n", n]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "kexnet: the host count is too large: its pair count has too many digits to print\n"
    )


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_validate_utf8_byte_order_mark(fmt, tmp_path, capsys):
    # A UTF-8 byte-order mark is read past; a UTF-16 file is still refused.
    _, schedule, _ = run_cli(
        capsys, "schedule", "--topology", "star", "--n", "5", "--format", fmt
    )
    argv = ["--topology", "star", "--n", "5"]
    path = tmp_path / f"s.{fmt}"
    path.write_text(schedule, encoding="utf-8-sig")
    assert run_cli(capsys, "validate", "--in", str(path), *argv) == (0, "ok\n", "")
    path.write_text(schedule, encoding="utf-16")
    code, out, err = run_cli(capsys, "validate", "--in", str(path), *argv)
    assert (code, out, err) == (3, "", f"kexnet: {path} is not UTF-8 text\n")


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
# A host count of more than half the digit limit, whose pair count passes it.
_past_half_the_limit = (
    st.integers(_LIMIT // 2 + 1, _LIMIT - 1).map(lambda d: 10**d) if _LIMIT else st.nothing()
)
_schedule_docs = st.fixed_dictionaries(
    {
        "topology": st.fixed_dictionaries(
            {"kind": st.sampled_from(["star", "lch", "fcn1", "ring"]) | _json_values,
             "n_hosts": st.integers(-1, 5) | _json_values | _past_half_the_limit}
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
    code, out, err = run_cli(capsys, "oracle", "--topology", "star", "--n", "21")
    assert (code, out) == (3, "")
    assert err.startswith("kexnet: ")
    assert len(err.splitlines()) == 1


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


def test_simulate_huge_k(capsys):
    k = "99999999999999999999"
    code, out, err = run_cli(
        capsys, "simulate", "--topology", "star", "--n", "3", "--k", k
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:4] == [f"{p}   {k}" for p in ("1-2", "1-3", "2-3")]
    assert out.splitlines()[-2:] == [f"steps_executed {3 * int(k)}", "lost_pairs 0"]


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


SIMULATE_STAR5 = ["simulate", "--topology", "star", "--n", "5", "--fail"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["formula", "--range", "5"], "bad range '5', expected a..b"),
        (["formula", "--range", "a..b"], "bad range 'a..b', expected a..b"),
        (["formula", "--range", "5..3"], "empty range '5..3'"),
        (["formula", "--range", "1..5"], "--range must start at 2 or above, got 1..5"),
        (["formula"], "give exactly one of --n or --range"),
        (["formula", "--n", "5", "--range", "2..3"], "give exactly one of --n or --range"),
        (SIMULATE_STAR5 + ["cable:x@3"], "bad cable identifier in 'cable:x@3'"),
        (SIMULATE_STAR5 + ["cable:1-2-3@3"], "bad cable identifier in 'cable:1-2-3@3'"),
        (SIMULATE_STAR5 + ["ke:1:2:3@3"], "bad exchanger identifier in 'ke:1:2:3@3'"),
        (SIMULATE_STAR5 + ["ke:x@3"], "bad exchanger identifier in 'ke:x@3'"),
        (SIMULATE_STAR5 + ["hub@3"], "unknown failure component in 'hub@3'"),
        (["validate", "--in", "t.txt"], "text schedules need --topology and --n"),
        (
            ["validate", "--in", "t.txt", "--topology", "star"],
            "text schedules need --topology and --n",
        ),
    ],
)
def test_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("step 1: (1,2)\n")
    assert run_cli(capsys, *argv) == (2, "", f"kexnet: {message}\n")


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


def test_out_error_names_requested_path(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(capsys, "formula", "--n", "5", "--out", str(target))
    assert (code, out) == (3, "")
    assert err == f"kexnet: [Errno 2] No such file or directory: '{target}'\n"


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


ENV_FORMAT_COMMANDS = [
    ["formula", "--range", "2..4"],
    ["compare", "--n", "4"],
    ["simulate", "--topology", "star", "--n", "4"],
]


@pytest.mark.parametrize("argv", ENV_FORMAT_COMMANDS)
def test_env_format(argv, monkeypatch, capsys):
    monkeypatch.setenv("KEXNET_FORMAT", "csv")
    _, out, _ = run_cli(capsys, *argv)
    assert out == run_cli(capsys, *argv, "--format", "csv")[1]
    monkeypatch.setenv("KEXNET_FORMAT", "xml")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "kexnet: KEXNET_FORMAT='xml' is not one of table, csv, json\n"
    # An explicit --format wins over the variable.
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "--topology", "star", "--n", "4"],
        ["oracle", "--topology", "star", "--n", "4"],
        ["regress", "--n-max", "6"],
    ],
)
def test_env_format_ignored(argv, monkeypatch, capsys):
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("KEXNET_FORMAT", "xml")
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


# --- the column renderer against the records renderer it replaced -------------


def _reference_tabular(fmt, records, doc=None):
    """Render records (dicts keyed by column name) as a table or csv, or
    as json: ``doc`` if given, else the records themselves."""
    if fmt == "json":
        return json.dumps(records if doc is None else doc, indent=2) + "\n"
    header = list(records[0])
    rows = [header] + [[str(v) for v in r.values()] for r in records]
    if fmt == "csv":
        return "".join(",".join(r) + "\n" for r in rows)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n" for r in rows
    )


def _reference_compare(n, fmt):
    records = [
        {
            "kind": row.kind.value,
            "cables": row.costs.cable_count,
            "exchangers": row.costs.exchanger_count,
            "center_switches": row.costs.center_switch_count,
            "steps": row.step_count,
            "class_cable": row.costs.class_cable.value,
            "class_ke": row.costs.class_ke.value,
            "class_time": row.costs.class_time.value,
            "single_point_of_failure": row.single_point_of_failure,
        }
        for row in analysis.compare_networks(n)
    ]
    return _reference_tabular(fmt, records)


def _reference_simulate(topology, n, k, specs, fmt):
    failures = tuple(sorted(map(cli._parse_failure, specs), key=lambda x: x[0]))
    topo = build_topology(TopologyKind(topology), n)
    report = simengine.run(simengine.SimConfig(topo, k, failures))
    records = [
        {"pair": f"{a}-{b}", "bits": report.bits_per_pair[a, b]}
        for a, b in sorted(report.bits_per_pair)
    ]
    summary = simengine.utilization_profile(report)
    doc = {
        "steps_executed": report.steps_executed,
        "bits_per_pair": {r["pair"]: r["bits"] for r in records},
        "lost_pairs": [f"{a}-{b}" for a, b in sorted(report.lost_pairs)],
        "utilization": {
            "min": summary.minimum,
            "mean": summary.mean,
            "max": summary.maximum,
        },
    }
    out = _reference_tabular(fmt, records, doc)
    if fmt == "table":
        out += (
            f"steps_executed {report.steps_executed}\n"
            f"lost_pairs {len(report.lost_pairs)}\n"
        )
    return out


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("r", ["2..2", "2..12", "2..120", "95..105", "9..10"])
def test_formula_range_matches_reference_renderer(r, fmt, capsys):
    lo, hi = map(int, r.split(".."))
    records = [{"n": n, "sbep": protocols.sbep_formula(n)} for n in range(lo, hi + 1)]
    expected = _reference_tabular(fmt, records)
    assert run_cli(capsys, "formula", "--range", r, "--format", fmt) == (0, expected, "")


@pytest.mark.parametrize("fmt", cli._FORMATS)
def test_compare_matches_reference_renderer(fmt, capsys):
    for n in range(2, 61):
        expected = _reference_compare(n, fmt)
        assert run_cli(capsys, "compare", "--n", str(n), "--format", fmt) == (
            0,
            expected,
            "",
        ), n


# Bit counts of mixed widths, such as 0 for a pair cut at step 1, 5 for a
# pair cut after five passes and k = 12 for the rest, and pair names of 3 to
# 7 characters.
SIMULATE_RENDER_CASES = [
    ("fcn1", 12, 12, ["cable:1-2@1", "ke:5@56"]),
    ("lch", 11, 12, ["cable:9@1", "ke:4:1@153", "ke:4:2@153"]),
    ("star", 14, 12, ["cable:3@1", "center@96"]),
    ("fcn-full", 12, 12, ["ke:2:3@1", "cable:10-11@6"]),
    ("star", 150, 64, ["cable:3@40", "ke:7@900"]),
]


@pytest.mark.parametrize("fmt", cli._FORMATS)
@pytest.mark.parametrize("topology,n,k,specs", SIMULATE_RENDER_CASES)
def test_simulate_matches_reference_renderer(topology, n, k, specs, fmt, capsys):
    argv = ["simulate", "--topology", topology, "--n", str(n), "--k", str(k)]
    argv += [arg for spec in specs for arg in ("--fail", spec)]
    expected = _reference_simulate(topology, n, k, specs, fmt)
    assert run_cli(capsys, *argv, "--format", fmt) == (0, expected, "")


# simulate writes its json document directly; _reference_simulate's
# json.dumps(doc, indent=2) + "\n" is the reference for its bytes.
SIMULATE_GOLDENS = sorted(case for case in CASES if case.startswith("simulate_"))


def test_every_simulate_json_golden_is_a_case():
    goldens = {path.name for path in GOLDEN.glob("cli_simulate_*.json")}
    assert goldens == {f"cli_{case}.json" for case in SIMULATE_GOLDENS}


@pytest.mark.parametrize("case", SIMULATE_GOLDENS)
def test_simulate_json_golden_is_json_dumps(case, capsys):
    args = cli.build_parser().parse_args(CASES[case])
    expected = _reference_simulate(args.topology, args.n, args.k, args.fail, "json")
    assert expected == (GOLDEN / f"cli_{case}.json").read_text()
    assert run_cli(capsys, *CASES[case], "--format", "json") == (0, expected, "")


def _spec(when, f):
    """The --fail text of failure f at step ``when``."""
    if isinstance(f, analysis.CenterSwitchFailure):
        what = "center"
    elif isinstance(f, analysis.KeyExchangerFailure):
        what = f"ke:{f.host}" + ("" if f.slot is None else f":{f.slot}")
    else:
        what = "cable:" + ("%d-%d" % f.ident if isinstance(f.ident, tuple) else str(f.ident))
    return f"{what}@{when}"


@st.composite
def simulate_runs(draw):
    kind = draw(st.sampled_from(list(TopologyKind)))
    n, k = draw(st.integers(2, 14)), draw(st.integers(1, 12))
    failures = st.sampled_from(list(valid_failures(build_topology(kind, n))))
    specs = draw(st.lists(st.builds(_spec, st.integers(1, 3 * n * n), failures), max_size=4))
    return kind.value, n, k, specs


@settings(max_examples=150, deadline=None)
@given(simulate_runs())
def test_simulate_json_is_json_dumps(run):
    topology, n, k, specs = run
    argv = ["simulate", "--topology", topology, "--n", str(n), "--k", str(k)]
    argv += [arg for spec in specs for arg in ("--fail", spec)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--format", "json"]) == 0
    assert out.getvalue() == _reference_simulate(topology, n, k, specs, "json")


# Cells as the commands make them: ints, and strings that are not empty and
# do not end in a space.
cell_text = st.text("ab-_ (),^O1", min_size=1).filter(lambda c: not c.endswith(" "))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(cell_text, min_size=1, max_size=4, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(
                st.tuples(*[st.integers() | cell_text for _ in names]), min_size=1
            ),
        )
    ),
    st.sampled_from(cli._FORMATS),
)
def test_tabular_matches_reference(table, fmt):
    names, rows = table
    records = [dict(zip(names, row)) for row in rows]
    columns = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    assert cli._tabular(fmt, columns) == _reference_tabular(fmt, records)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's exit 2
        return exc.code


STAR6_JSON = ["schedule", "--topology", "star", "--n", "6", "--format", "json"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["formula", "--range", "2..20"], 0),
        (["schedule", "--topology", "star", "--n", "6"], 0),
        (STAR6_JSON, 0),
        (["validate", "--in", "s.json"], 0),
        (["validate", "--in", "bad.txt", "--topology", "star", "--n", "3"], 3),
        (["validate", "--in", "missing.json"], 3),
        (["compare", "--n", "10", "--format", "json"], 0),
        (["oracle", "--topology", "lch", "--n", "6"], 0),
        (
            ["simulate", "--topology", "star", "--n", "6", "--k", "3",
             "--fail", "cable:2@2", "--fail", "ke:4@5", "--format", "json"],
            0,
        ),
        (["regress", "--plot", "fit.svg"], 0),
        (["schedule", "--topology", "ring", "--n", "5"], 2),
        (["formula", "--range", "5..3"], 2),
    ],
    ids=[
        "formula-range", "schedule-text", "schedule-json", "validate-ok",
        "validate-invalid", "validate-missing", "compare-json", "oracle-lch",
        "simulate-two-failures", "regress-plot", "argparse-error", "usage-error",
    ],
)
def test_commands_leave_no_kexnet_cycles(argv, code, tmp_path, monkeypatch, capsys):
    # main pauses the collector, so what a command leaves in cycles waits for
    # a later collection; none of it may be a kexnet object.
    monkeypatch.chdir(tmp_path)
    main(STAR6_JSON + ["--out", "s.json"])
    (tmp_path / "bad.txt").write_text("step 1: (1,2)\nstep 2: (1,2)\n")
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        got = _exit_code(argv)
        gc.collect()
        ours = [o for o in gc.garbage if type(o).__module__.startswith("kexnet")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert got == code
    assert ours == []


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["formula", "--n", "5"], 0),
        (["formula", "--bogus"], 2),
        (["formula", "--n", "1"], 2),
        (["validate", "--in", "missing.json"], 3),
    ],
    ids=["ok", "argparse-error", "usage-error", "domain-error"],
)
def test_main_restores_collector(argv, code, enabled, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        got = _exit_code(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()
    assert (got, after) == (code, enabled)
