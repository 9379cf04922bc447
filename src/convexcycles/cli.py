"""Batch command-line front end.

Subcommands: analyze, bound, moore, spectral, generate, oracle.  Reports go
to stdout as human tables or JSON; per-phase wall-clock timings go to
stderr (opt into embedding them in the report with --timings, which breaks
byte-for-byte reproducibility).  Exit codes: 0 success, 2 input error,
3 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
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
from .extremal import check_extremal, check_moore_by_count, is_moore
from .formats import load_graph_text, write_graph6
from .graphs import Graph, generate
from .metric import MetricProfile
from .spectral import char_poly, girth_cycle_count_spectral

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


def _fraction_json(value: Fraction) -> str:
    return str(value)


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
            "classification": "NotApplicable",
            "bound": None,
            "equality": False,
        }
    return {
        "applicable": True,
        "classification": report.classification.value,
        "bound": _fraction_json(report.bound),
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
        "target": _fraction_json(check.target),
        "is_moore_by_count": check.is_moore_by_count,
    }


def _spectral_section(g: Graph, profile: MetricProfile, cap: int) -> dict:
    if g.n > cap:
        raise InvalidParameter(
            f"spectral analysis refused for n={g.n} > cap {cap} (raise with --max-n)"
        )
    poly = char_poly(g)
    section: dict = {"polynomial": poly.to_text()}
    if profile.girth != math.inf and profile.girth % 2 == 1:
        section["coefficient"] = poly.coefficient(g.n - int(profile.girth))
        section["count"] = girth_cycle_count_spectral(poly, g.n, int(profile.girth))
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


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_table(report)


def _print_table(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        else:
            if isinstance(value, bool):
                value = "yes" if value else "no"
            elif value is None:
                value = "-"
            print(f"{indent}{key:<16} {value}")


def _analysis_pipeline(args) -> tuple[Graph, MetricProfile, CycleCensus, _Phases]:
    g = _read_graph(args.graph)
    phases = _Phases()
    profile, census = phases.run("census", profile_and_census, g)
    return g, profile, census, phases


def _finish(args, report: dict, phases: _Phases) -> int:
    if args.timings:
        report["timings"] = {k: round(v, 6) for k, v in phases.seconds.items()}
    _emit(report, args.format)
    phases.report_to_stderr()
    return 0


def _cmd_analyze(args) -> int:
    g, profile, census, phases = _analysis_pipeline(args)
    report = _base_report(args.graph, g, profile)
    report["census"] = _census_section(census)
    report["extremal"] = _extremal_section(g, profile, census)
    report["moore"] = _moore_section(g, profile)
    report["count_check"] = _count_check_section(g, profile, census)
    if args.spectral:
        report["spectral"] = phases.run(
            "spectral", _spectral_section, g, profile, args.max_n
        )
    return _finish(args, report, phases)


def _cmd_bound(args) -> int:
    g, profile, census, phases = _analysis_pipeline(args)
    report = _base_report(args.graph, g, profile)
    report["census"] = _census_section(census)
    report["extremal"] = _extremal_section(g, profile, census)
    return _finish(args, report, phases)


def _cmd_moore(args) -> int:
    g, profile, census, phases = _analysis_pipeline(args)
    report = _base_report(args.graph, g, profile)
    report["moore"] = _moore_section(g, profile)
    report["count_check"] = _count_check_section(g, profile, census)
    return _finish(args, report, phases)


def _cmd_spectral(args) -> int:
    g = _read_graph(args.graph)
    phases = _Phases()
    profile, _ = phases.run("census", profile_and_census, g)
    report = _base_report(args.graph, g, profile)
    report["spectral"] = phases.run(
        "spectral", _spectral_section, g, profile, args.max_n
    )
    return _finish(args, report, phases)


def _cmd_generate(args) -> int:
    params = list(args.params)
    if args.family == "gnp":
        if len(params) == 2:
            params.append(args.seed)
    graph = generate(args.family, *params)
    print(write_graph6(graph))
    return 0


def _cmd_oracle(args) -> int:
    g = _read_graph(args.graph)
    if g.n > DEFAULT_ORACLE_CAP and not args.force:
        raise InvalidParameter(
            f"oracle refused for n={g.n} > {DEFAULT_ORACLE_CAP}; pass --force to override"
        )
    max_len = args.max_len if args.max_len is not None else g.n
    phases = _Phases()
    census = phases.run("oracle", brute_force_convex_cycles, g, max_len)
    profile, _ = profile_and_census(g)
    report = _base_report(args.graph, g, profile)
    report["max_len"] = max_len
    report["census"] = _census_section(census)
    return _finish(args, report, phases)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "table"), default="table",
        help="report format (default: table)",
    )
    common.add_argument(
        "--seed", type=int, default=0, metavar="U64",
        help="seed for randomized generators (default: 0)",
    )
    common.add_argument(
        "--timings", action="store_true",
        help="embed per-phase timings in the report (non-reproducible output)",
    )

    parser = argparse.ArgumentParser(
        prog="convexcycles",
        description="Convex-cycle census, extremal bound, and spectral counts "
        "for simple graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full report for one graph")
    p.add_argument("graph", help="graph6 or edge-list file, '-' for stdin")
    p.add_argument("--spectral", action="store_true", help="include the spectral count")
    p.add_argument("--max-n", type=int, default=DEFAULT_SPECTRAL_CAP,
                   help="spectral size cap (default: %(default)s)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bound", parents=[common], help="extremal bound report only")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("moore", parents=[common],
                       help="Moore test plus the counting criterion")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_moore)

    p = sub.add_parser("spectral", parents=[common],
                       help="characteristic-polynomial girth-cycle count")
    p.add_argument("graph")
    p.add_argument("--max-n", type=int, default=DEFAULT_SPECTRAL_CAP,
                   help="size cap (default: %(default)s)")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("generate", parents=[common], help="emit a named graph as graph6")
    p.add_argument("family", help="cycle | complete | complete_bipartite | "
                                  "petersen | hoffman_singleton | gnp")
    p.add_argument("params", nargs="*", help="family parameters")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", parents=[common],
                       help="brute-force convex-cycle census (small graphs)")
    p.add_argument("graph")
    p.add_argument("--max-len", type=int, default=None,
                   help="longest cycle length to search (default: n)")
    p.add_argument("--force", action="store_true",
                   help=f"allow n > {DEFAULT_ORACLE_CAP}")
    p.set_defaults(func=_cmd_oracle)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 3
    except ConvexCyclesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
