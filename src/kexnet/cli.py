"""Command-line front end.

Exit codes: 0 success, 2 bad arguments, 3 domain error (including a failed
validation). All output is deterministic; the default output format can be
set with the KEXNET_FORMAT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import analysis, oracle, protocols, serialize, simengine
from .errors import KexnetError, ScheduleFormatError
from .plotting import scatter_with_line
from .schedule import validate_schedule
from .topology import TopologyKind, build_topology

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class UsageError(Exception):
    pass


def _default_format() -> str:
    return os.environ.get("KEXNET_FORMAT", "table")


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
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kexnet-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tabular(fmt: str, records: list[dict], doc=None) -> str:
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


# --- subcommands -------------------------------------------------------------


def _cmd_formula(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.range is None):
        raise UsageError("give exactly one of --n or --range")
    if args.n is not None:
        if args.n < 2:
            raise UsageError(f"--n must be at least 2, got {args.n}")
        _write_out(args.out, f"{protocols.sbep_formula(args.n)}\n")
        return EXIT_OK
    r = _parse_range(args.range)
    if r.start < 2:
        raise UsageError(f"--range must start at 2 or above, got {args.range}")
    records = [{"n": n, "sbep": protocols.sbep_formula(n)} for n in r]
    _write_out(args.out, _tabular(args.format, records))
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
        with open(args.infile, encoding="utf-8") as fh:
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
    report = validate_schedule(schedule)
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
        for row in analysis.compare_networks(args.n)
    ]
    _write_out(args.out, _tabular(args.format, records))
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
    records = [
        {"pair": f"{a}-{b}", "bits": report.bits_per_pair[a, b]}
        for a, b in sorted(report.bits_per_pair)
    ]
    summary = simengine.utilization_profile(report)
    doc = {
        "steps_executed": report.steps_executed,
        "bits_per_pair": {r["pair"]: r["bits"] for r in records},
        "lost_pairs": sorted(f"{a}-{b}" for a, b in report.lost_pairs),
        "utilization": {
            "min": summary.minimum,
            "mean": summary.mean,
            "max": summary.maximum,
        },
    }
    out = _tabular(args.format, records, doc)
    if args.format == "table":
        out += (
            f"steps_executed {report.steps_executed}\n"
            f"lost_pairs {len(report.lost_pairs)}\n"
        )
    _write_out(args.out, out)
    return EXIT_OK


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


def _add_common(p: argparse.ArgumentParser, formats: list[str]) -> None:
    p.add_argument("--format", choices=formats, default=_default_format())
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
    _add_common(p, ["table", "csv", "json"])
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
    _add_common(p, ["table", "csv", "json"])
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
    _add_common(p, ["table", "csv", "json"])
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("regress", help="fit SBEP(N) vs N over the step-count table")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--plot", default=None, help="write an SVG scatter + fit line")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_regress)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"kexnet: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KexnetError as exc:
        print(f"kexnet: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"kexnet: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
