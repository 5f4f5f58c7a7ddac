"""Command-line front end.

Exit codes: 0 success, 2 bad arguments, 3 domain error (including a failed
validation). All output is deterministic; the default output format can be
set with the KEXNET_FORMAT environment variable. A command runs with the
cyclic garbage collector paused and leaves it on or off as the caller had it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
from itertools import chain
from operator import add

from . import analysis, oracle, protocols, serialize, simengine
from .errors import InvalidSizeError, KexnetError, ScheduleFormatError
from .plotting import scatter_with_line
from .schedule import validate_schedule
from .topology import TopologyKind, build_topology

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(Exception):
    pass


# Output formats of formula, compare and simulate. KEXNET_FORMAT gives the
# default; main checks it, as argparse checks no default against choices.
_FORMATS = ["table", "csv", "json"]
# One pair's bits as json.dumps(indent=2) lays them out in bits_per_pair,
# after the first.
_JSON_BITS = ',\n    "%d-%d": %d'


def _parse_range(text: str) -> range:
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected a..b") from exc
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_failure(text: str) -> tuple[int, analysis.FailureScenario]:
    """Grammar: center@T | cable:I@T | cable:I-J@T | ke:H@T | ke:H:S@T."""
    try:
        what, at = text.rsplit("@", 1)
        when = int(at)
    except ValueError as exc:
        raise UsageError(f"bad failure spec {text!r}: missing @time") from exc
    if when < 1:
        raise UsageError(f"bad failure spec {text!r}: step time must be at least 1")
    if what == "center":
        return when, analysis.CenterSwitchFailure()
    if what.startswith("cable:"):
        ident = what[len("cable:") :]
        try:
            if "-" in ident:
                a, b = ident.split("-")
                return when, analysis.CableFailure((int(a), int(b)))
            return when, analysis.CableFailure(int(ident))
        except ValueError as exc:
            raise UsageError(f"bad cable identifier in {text!r}") from exc
    if what.startswith("ke:"):
        parts = what[len("ke:") :].split(":")
        try:
            if len(parts) == 1:
                return when, analysis.KeyExchangerFailure(int(parts[0]))
            if len(parts) == 2:
                return when, analysis.KeyExchangerFailure(int(parts[0]), int(parts[1]))
        except ValueError:
            pass
        raise UsageError(f"bad exchanger identifier in {text!r}")
    raise UsageError(f"unknown failure component in {text!r}")


def _write_out(path: str | None, content: str) -> None:
    if path is None:
        sys.stdout.write(content)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kexnet-")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as exc:
        # Name the path the user asked for, not the temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _tabular(fmt: str, columns: dict[str, list]) -> str:
    """Render columns (name -> values) as a table or csv, or as json, one
    record per row. No cell is empty or ends in a space, so a table pads
    every column but the last."""
    if fmt == "json":
        doc = [dict(zip(columns, row)) for row in zip(*columns.values())]
        return json.dumps(doc, indent=2) + "\n"
    cells = [[name, *map(str, values)] for name, values in columns.items()]
    if fmt == "csv":
        line = ",".join(["%s"] * len(cells))
    else:
        widths = [max(map(len, column)) for column in cells[:-1]]
        line = "".join(["%%-%ds  " % w for w in widths]) + "%s"
    return "".join(map((line + "\n").__mod__, zip(*cells)))


# --- subcommands -------------------------------------------------------------


def _cmd_formula(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.range is None):
        raise UsageError("give exactly one of --n or --range")
    if args.n is not None:
        if args.n < 2:
            raise UsageError(f"--n must be at least 2, got {args.n}")
        try:
            out = f"{protocols.sbep_formula(args.n)}\n"
        except ValueError as exc:  # past Python's int-to-str digit limit
            raise InvalidSizeError(
                "--n is too large: its step count has too many digits to print"
            ) from exc
        _write_out(args.out, out)
        return EXIT_OK
    r = _parse_range(args.range)
    if r.start < 2:
        raise UsageError(f"--range must start at 2 or above, got {args.range}")
    columns = {"n": list(r), "sbep": list(map(protocols.sbep_formula, r))}
    _write_out(args.out, _tabular(args.format, columns))
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = protocols.generate_schedule(TopologyKind(args.topology), args.n)
    if args.format == "json":
        content = serialize.schedule_to_json(schedule)
    else:
        content = serialize.schedule_to_text(schedule)
    _write_out(args.out, content)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.infile, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScheduleFormatError(f"{args.infile} is not UTF-8 text") from exc
    if text.lstrip().startswith("{"):
        schedule = serialize.json_to_schedule(text)
    else:
        if args.topology is None or args.n is None:
            raise UsageError("text schedules need --topology and --n")
        topo = build_topology(TopologyKind(args.topology), args.n)
        schedule = serialize.text_to_schedule(text, topo)
    try:
        report = validate_schedule(schedule)
    except ValueError as exc:  # a count past Python's int-to-str digit limit
        raise InvalidSizeError(
            "the host count is too large: its pair count has too many digits to print"
        ) from exc
    if report.ok:
        _write_out(args.out, "ok\n")
        return EXIT_OK
    lines = [
        f"step {v.step_index if v.step_index is not None else '-'}: "
        f"{v.kind}: {v.detail}"
        for v in report.violations
    ]
    _write_out(args.out, "invalid\n" + "\n".join(lines) + "\n")
    return EXIT_DOMAIN


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = analysis.compare_networks(args.n)
    columns = {
        "kind": [row.kind.value for row in rows],
        "cables": [row.costs.cable_count for row in rows],
        "exchangers": [row.costs.exchanger_count for row in rows],
        "center_switches": [row.costs.center_switch_count for row in rows],
        "steps": [row.step_count for row in rows],
        "class_cable": [row.costs.class_cable.value for row in rows],
        "class_ke": [row.costs.class_ke.value for row in rows],
        "class_time": [row.costs.class_time.value for row in rows],
        "single_point_of_failure": [row.single_point_of_failure for row in rows],
    }
    try:
        out = _tabular(args.format, columns)
    except ValueError as exc:  # a count past Python's int-to-str digit limit
        raise InvalidSizeError(
            "--n is too large: its counts have too many digits to print"
        ) from exc
    _write_out(args.out, out)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    result = oracle.min_steps_bruteforce(TopologyKind(args.topology), args.n)
    body = serialize.schedule_to_text(result.witness)
    _write_out(args.out, f"min_steps {result.min_steps}\n{body}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be at least 1, got {args.k}")
    topo = build_topology(TopologyKind(args.topology), args.n)
    failures = tuple(sorted((_parse_failure(f) for f in args.fail), key=lambda x: x[0]))
    config = simengine.SimConfig(topology=topo, key_bits=args.k, failures=failures)
    report = simengine.run(config)
    if args.format == "json":
        _write_out(args.out, _simulate_json(report))
        return EXIT_OK
    columns = {
        "pair": list(map("%d-%d".__mod__, report.bits_per_pair)),
        "bits": list(report.bits_per_pair.values()),
    }
    out = _tabular(args.format, columns)
    if args.format == "table":
        out += (
            f"steps_executed {report.steps_executed}\n"
            f"lost_pairs {len(report.lost_pairs)}\n"
        )
    _write_out(args.out, out)
    return EXIT_OK


def _simulate_json(report: simengine.SimReport) -> str:
    """The bytes of json.dumps(doc, indent=2) + "\\n" for a run's document.
    Its one large part, bits_per_pair, is written with one pattern, as
    serialize.schedule_to_json writes steps; json.dumps does the rest."""
    summary = simengine.utilization_profile(report)
    doc = {
        "steps_executed": report.steps_executed,
        "bits_per_pair": {},
        "lost_pairs": list(map("%d-%d".__mod__, sorted(report.lost_pairs))),
        "utilization": {"min": summary.minimum, "mean": summary.mean, "max": summary.maximum},
    }
    out = json.dumps(doc, indent=2) + "\n"
    bits = report.bits_per_pair  # every pair, so never empty
    pattern = "{" + (_JSON_BITS * len(bits))[1:] + "\n  }"
    body = pattern % tuple(chain.from_iterable(map(add, bits, zip(bits.values()))))
    return out.replace('"bits_per_pair": {}', '"bits_per_pair": ' + body, 1)


def _cmd_regress(args: argparse.Namespace) -> int:
    points = [(float(n), float(s)) for n, s in analysis.build_sbep_table(args.n_max)]
    fit = analysis.fit_linear(points)
    if args.plot is not None:
        svg = scatter_with_line(points, fit.slope, fit.intercept, "N", "SBEP(N)")
        _write_out(args.plot, svg)
    content = (
        f"slope {fit.slope:.10g}\n"
        f"intercept {fit.intercept:.10g}\n"
        f"r_squared {fit.r_squared:.10g}\n"
    )
    _write_out(args.out, content)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=_FORMATS)
    p.add_argument("--out", default=None, help="write to file (atomic) instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kexnet",
        description="Secure-bit-exchange schedules for key-exchange networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = sorted(k.value for k in TopologyKind)

    p = sub.add_parser("formula", help="SBEP step counts for the star protocol")
    p.add_argument("--n", type=int)
    p.add_argument("--range", help="inclusive range a..b")
    _add_common(p)
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("schedule", help="generate a schedule")
    p.add_argument("--topology", choices=kinds, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("validate", help="validate a schedule file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--topology", choices=kinds)
    p.add_argument("--n", type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", help="compare all four topologies at one size")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle", help="exact minimum step count by exhaustive search")
    p.add_argument("--topology", choices=kinds, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="run the key-accumulation simulator")
    p.add_argument("--topology", choices=kinds, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1, help="key bits per pair")
    p.add_argument(
        "--fail",
        action="append",
        default=[],
        help="failure spec: center@T, cable:I@T, cable:I-J@T, ke:H[:S]@T",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("regress", help="fit SBEP(N) vs N over the step-count table")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--plot", default=None, help="write an SVG scatter + fit line")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    # Reference counting frees a command's data, which holds no cycles, so
    # collector passes over it are pure cost. The CLI owns the process: it
    # pauses the collector for the command and restores the caller's setting.
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            if getattr(args, "format", "") is None:  # formula, compare, simulate
                args.format = os.environ.get("KEXNET_FORMAT", "table")
                if args.format not in _FORMATS:
                    raise UsageError(
                        f"KEXNET_FORMAT={args.format!r} is not one of {', '.join(_FORMATS)}"
                    )
            return args.func(args)
        except UsageError as exc:
            print(f"kexnet: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (KexnetError, OSError) as exc:
            print(f"kexnet: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
