"""Batch command-line front end.

Subcommands: analyze, bound, moore, spectral, generate, oracle.  Reports go
to stdout as human tables or JSON; per-phase wall-clock timings go to
stderr.  Exit codes: 0 success, 2 input error, 3 internal consistency
violation.  A write to a stdout pipe whose reader has gone ends the run
quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from pathlib import Path

from .convexity import CycleCensus, brute_force_convex_cycles, profile_and_census
from .errors import (
    ConsistencyError,
    ConvexCyclesError,
    Disconnected,
    InvalidParameter,
    NotApplicable,
    ParseError,
)
from .extremal import Classification, check_extremal, check_moore_by_count, is_moore
from .formats import load_graph_text, write_graph6
from .graphs import Graph, generate
from .metric import MetricProfile

DEFAULT_SPECTRAL_CAP = 100
DEFAULT_ORACLE_CAP = 12


def _read_graph(source: str) -> Graph:
    if source == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(source).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc}") from exc
    return load_graph_text(text)


def _girth_json(value: int | float) -> int | None:
    return None if value == math.inf else int(value)


class _Phases:
    """Wall-clock stopwatch keyed by phase name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def run(self, name: str, func, *args, **kwargs):
        start = time.perf_counter()
        result = func(*args, **kwargs)
        self.seconds[name] = time.perf_counter() - start
        return result

    def report_to_stderr(self) -> None:
        parts = " ".join(f"{k}={v:.4f}s" for k, v in self.seconds.items())
        print(f"timings: {parts}", file=sys.stderr)


def _census_section(census: CycleCensus) -> dict:
    return {
        "total": census.total,
        "odd": census.odd_count,
        "even": census.even_count,
        "by_length": {str(k): census.by_length[k] for k in sorted(census.by_length)},
    }


def _extremal_section(g: Graph, profile: MetricProfile, census: CycleCensus) -> dict:
    try:
        report = check_extremal(g, profile, census)
    except (NotApplicable, Disconnected) as exc:
        return {
            "applicable": False,
            "reason": str(exc),
            "classification": Classification.NOT_APPLICABLE.value,
            "bound": None,
            "equality": False,
        }
    return {
        "applicable": True,
        "classification": report.classification.value,
        "bound": str(report.bound),
        "equality": report.equality,
    }


def _moore_section(g: Graph, profile: MetricProfile) -> dict:
    try:
        report = is_moore(g, profile)
    except Disconnected as exc:
        return {"applicable": False, "reason": str(exc)}
    return {
        "applicable": True,
        "is_moore": report.is_moore,
        "diameter": report.diameter,
        "girth": _girth_json(report.girth),
        "degree": report.degree,
    }


def _count_check_section(g: Graph, profile: MetricProfile, census: CycleCensus) -> dict:
    try:
        check = check_moore_by_count(g, profile, census)
    except (NotApplicable, Disconnected) as exc:
        return {"applicable": False, "reason": str(exc)}
    return {
        "applicable": True,
        "count": check.count,
        "target": str(check.target),
        "is_moore_by_count": check.is_moore_by_count,
    }


def _spectral_section(
    g: Graph, profile: MetricProfile, census: CycleCensus, cap: int
) -> dict:
    if g.n > cap:
        raise InvalidParameter(
            f"spectral analysis refused for n={g.n} > cap {cap} (raise with --max-n)"
        )
    # imported here, so that a run without this section never loads it
    from . import spectral

    poly = spectral.char_poly(g)
    section: dict = {"polynomial": poly.to_text()}
    if profile.girth != math.inf and profile.girth % 2 == 1:
        girth = int(profile.girth)
        section["coefficient"] = poly.coefficient(g.n - girth)
        section["count"] = spectral.girth_cycle_count_spectral(poly, g.n, girth)
        counted = census.by_length.get(girth, 0)
        if section["count"] != counted:
            raise ConsistencyError(
                f"spectral count of {girth}-cycles {section['count']} differs "
                f"from the census count {counted}"
            )
    else:
        section["coefficient"] = None
        section["count"] = None
    return section


def _base_report(source: str, g: Graph, profile: MetricProfile) -> dict:
    return {
        "input": source,
        "n": g.n,
        "m": g.m,
        "girth": _girth_json(profile.girth),
        "diameter": _girth_json(profile.diameter),
        "connected": profile.connected,
    }


def _write(text: str) -> None:
    """Print text and flush stdout, so that a failed write raises here; then
    point stdout at os.devnull, where the shutdown flush cannot fail again."""
    try:
        print(text, flush=True)
    except OSError:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def _table_lines(report: dict, indent: str = "") -> Iterator[str]:
    for key, value in report.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _table_lines(value, indent + "  ")
        else:
            if isinstance(value, bool):
                value = "yes" if value else "no"
            elif value is None:
                value = "-"
            yield f"{indent}{key:<16} {value}"


def _finish(args, report: dict, phases: _Phases) -> int:
    if args.format == "json":
        _write(json.dumps(report, indent=2))
    else:
        _write("\n".join(_table_lines(report)))
    phases.report_to_stderr()
    return 0


def _cmd_report(args) -> int:
    """One report: the census pass, then the sections the subcommand names,
    in the order census, extremal, moore, count_check, spectral."""
    g = _read_graph(args.graph)
    phases = _Phases()
    profile, census = phases.run("census", profile_and_census, g)
    report = _base_report(args.graph, g, profile)
    sections = args.sections
    if "census" in sections:
        report["census"] = _census_section(census)
    if "extremal" in sections:
        report["extremal"] = _extremal_section(g, profile, census)
    if "moore" in sections:
        report["moore"] = _moore_section(g, profile)
    if "count_check" in sections:
        report["count_check"] = _count_check_section(g, profile, census)
    if "spectral" in sections:
        report["spectral"] = phases.run(
            "spectral", _spectral_section, g, profile, census, args.max_n
        )
    return _finish(args, report, phases)


def _cmd_generate(args) -> int:
    params = list(args.params)
    if args.family == "gnp":
        if len(params) != 2:
            raise InvalidParameter(
                f"family 'gnp' takes n and p (the seed is --seed), got {len(params)} "
                "parameter(s)"
            )
        params.append(args.seed or 0)
    elif args.seed is not None:
        raise InvalidParameter(f"--seed is for family 'gnp', not {args.family!r}")
    graph = generate(args.family, *params)
    _write(write_graph6(graph))
    return 0


def _cmd_oracle(args) -> int:
    if args.max_len is not None and args.max_len < 3:
        raise InvalidParameter(f"--max-len must be at least 3, got {args.max_len}")
    g = _read_graph(args.graph)
    if g.n > DEFAULT_ORACLE_CAP and not args.force:
        raise InvalidParameter(
            f"oracle refused for n={g.n} > {DEFAULT_ORACLE_CAP}; pass --force to override"
        )
    max_len = args.max_len if args.max_len is not None else g.n
    phases = _Phases()
    profile, census = phases.run("census", profile_and_census, g)
    oracle = phases.run("oracle", brute_force_convex_cycles, g, max_len)
    # both censuses list their cycles sorted by (length, vertices)
    passed = tuple(c for c in census.cycles if len(c) <= max_len)
    if oracle.cycles != passed:
        raise ConsistencyError(
            f"brute-force census up to length {max_len} ({oracle.total} cycles) "
            f"differs from the census pass ({len(passed)} cycles)"
        )
    report = _base_report(args.graph, g, profile)
    report["max_len"] = max_len
    report["census"] = _census_section(oracle)
    return _finish(args, report, phases)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, since --spectral appends to a copy of its default list."""
    reporting = argparse.ArgumentParser(add_help=False)
    reporting.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="report format (default: table)",
    )
    reporting.add_argument("graph", help="graph6 or edge-list file, '-' for stdin")

    parser = argparse.ArgumentParser(
        prog="convexcycles",
        description="Convex-cycle census, extremal bound, and spectral counts "
        "for simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[reporting], help="full report for one graph")
    p.add_argument("--spectral", dest="sections", action="append_const",
                   const="spectral", help="include the spectral count")
    p.add_argument("--max-n", type=int, default=DEFAULT_SPECTRAL_CAP,
                   help="spectral size cap (default: %(default)s)")
    p.set_defaults(func=_cmd_report,
                   sections=["census", "extremal", "moore", "count_check"])

    p = sub.add_parser("bound", parents=[reporting], help="extremal bound report only")
    p.set_defaults(func=_cmd_report, sections=["census", "extremal"])

    p = sub.add_parser("moore", parents=[reporting],
                       help="Moore test plus the counting criterion")
    p.set_defaults(func=_cmd_report, sections=["moore", "count_check"])

    p = sub.add_parser("spectral", parents=[reporting],
                       help="characteristic-polynomial girth-cycle count")
    p.add_argument("--max-n", type=int, default=DEFAULT_SPECTRAL_CAP,
                   help="size cap (default: %(default)s)")
    p.set_defaults(func=_cmd_report, sections=["spectral"])

    p = sub.add_parser("generate", help="emit a named graph as graph6")
    p.add_argument("family", help="cycle | complete | complete_bipartite | "
                                  "petersen | hoffman_singleton | gnp")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="seed for gnp (default: 0)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", parents=[reporting],
                       help="brute-force convex-cycle census (small graphs)")
    p.add_argument("--max-len", type=int, default=None,
                   help="longest cycle length to search, at least 3 (default: n)")
    p.add_argument("--force", action="store_true",
                   help=f"allow n > {DEFAULT_ORACLE_CAP}")
    p.set_defaults(func=_cmd_oracle)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: nothing is left to report to
        return 0
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except ConvexCyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory for this graph", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
