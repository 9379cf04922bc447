from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexcycles as cc
import convexcycles.cli as cli
import convexcycles.spectral as spectral
from convexcycles import convexity

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def run_cli(*args: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "convexcycles.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def petersen_file(tmp_path, petersen) -> str:
    path = tmp_path / "petersen.g6"
    path.write_text(cc.write_graph6(petersen) + "\n")
    return str(path)


@pytest.fixture()
def k23_file(tmp_path, k23) -> str:
    path = tmp_path / "k23.g6"
    path.write_text(cc.write_graph6(k23) + "\n")
    return str(path)


class TestGenerate:
    def test_petersen_emits_graph6(self):
        result = run_cli("generate", "petersen")
        assert result.returncode == 0
        g = cc.parse_graph6(result.stdout.strip())
        assert g == cc.petersen_graph()

    def test_generate_cycle(self):
        result = run_cli("generate", "cycle", "6")
        assert cc.parse_graph6(result.stdout.strip()) == cc.cycle_graph(6)

    def test_generate_gnp_uses_seed_flag(self):
        a = run_cli("generate", "gnp", "12", "0.5", "--seed", "42")
        b = run_cli("generate", "gnp", "12", "0.5", "--seed", "42")
        c = run_cli("generate", "gnp", "12", "0.5", "--seed", "43")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_unknown_family(self):
        assert run_cli("generate", "moebius").returncode == 2


class TestAnalyze:
    def test_pipe_from_generate(self):
        generated = run_cli("generate", "petersen").stdout
        result = run_cli("analyze", "-", "--format", "json", stdin=generated)
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["census"]["total"] == 12
        assert report["extremal"]["equality"] is True
        assert report["extremal"]["classification"] == "MooreGraph"

    def test_k23_file(self, k23_file):
        result = run_cli("analyze", k23_file, "--format", "json")
        report = json.loads(result.stdout)
        assert report["census"]["total"] == 0
        assert report["extremal"]["classification"] == "Strict"

    def test_schema_valid(self, petersen_file):
        result = run_cli("analyze", petersen_file, "--format", "json")
        jsonschema.validate(json.loads(result.stdout), SCHEMA)

    def test_schema_valid_with_spectral_and_timings(self, petersen_file):
        result = run_cli(
            "analyze", petersen_file, "--format", "json", "--spectral"
        )
        report = json.loads(result.stdout)
        jsonschema.validate(report, SCHEMA)
        assert report["spectral"]["count"] == 12
        # timings go to stderr only, so that reports stay byte-reproducible
        assert "timings" not in report
        assert result.stderr.startswith("timings: census=")

    def test_schema_valid_on_forest(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("0 1\n1 2\n")
        result = run_cli("analyze", str(path), "--format", "json")
        report = json.loads(result.stdout)
        jsonschema.validate(report, SCHEMA)
        assert report["girth"] is None
        assert report["extremal"]["classification"] == "NotApplicable"

    def test_byte_identical_across_runs(self, petersen_file):
        runs = [
            run_cli("analyze", petersen_file, "--format", "json") for _ in range(3)
        ]
        assert all(r.returncode == 0 and r.stdout for r in runs)
        assert len({r.stdout for r in runs}) == 1

    @pytest.mark.parametrize(
        "n, classification", [(2000, "EvenCycle"), (2001, "MooreGraph")]
    )
    def test_long_cycle(self, tmp_path, capsys, n, classification):
        # shortest paths of length ~n/2 must not hit the recursion limit
        path = tmp_path / f"c{n}.g6"
        path.write_text(cc.write_graph6(cc.cycle_graph(n)) + "\n")
        assert cc.cli_run(["analyze", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["census"]["total"] == 1
        assert report["extremal"]["classification"] == classification

    def test_table_and_json_report_identical_numbers(self, petersen_file):
        as_json = json.loads(
            run_cli("analyze", petersen_file, "--format", "json").stdout
        )
        table = run_cli("analyze", petersen_file, "--format", "table").stdout
        rows = {}
        for line in table.splitlines():
            parts = line.split()
            if len(parts) == 2:
                rows[parts[0]] = parts[1]
        assert int(rows["n"]) == as_json["n"]
        assert int(rows["m"]) == as_json["m"]
        assert int(rows["girth"]) == as_json["girth"]
        assert int(rows["total"]) == as_json["census"]["total"]
        assert rows["bound"] == as_json["extremal"]["bound"]
        assert (rows["equality"] == "yes") == as_json["extremal"]["equality"]

    @pytest.mark.parametrize("command", ["analyze", "bound", "moore"])
    def test_report_never_orders_the_cycles(self, tmp_path, capsys, monkeypatch, command):
        # the report reads only the census's counts, so the cycles stay as
        # the kernels found them, out of (length, vertices) order here
        censuses = []

        def census_pass(g, kernel=cli.profile_and_census):
            profile, census = kernel(g)
            censuses.append(census)
            return profile, census

        monkeypatch.setattr(cli, "profile_and_census", census_pass)
        path = tmp_path / "gnp.g6"
        path.write_text(cc.write_graph6(cc.gnp_random_graph(60, 0.1, 32)) + "\n")
        assert cc.cli_run([command, str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 60
        (census,) = censuses
        found = convexity._cycles_slot.__get__(census)
        assert type(found) is convexity._Found
        assert found != sorted(found, key=lambda c: (len(c), c))

    def test_edge_list_input(self, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("# triangle\n0 1\n1 2\n2 0\n")
        report = json.loads(run_cli("analyze", str(path), "--format", "json").stdout)
        assert report["n"] == 3
        assert report["census"]["total"] == 1


class TestOtherSubcommands:
    def test_bound(self, petersen_file):
        report = json.loads(run_cli("bound", petersen_file, "--format", "json").stdout)
        assert report["extremal"]["bound"] == "12"
        assert "moore" not in report

    def test_moore(self, petersen_file):
        report = json.loads(run_cli("moore", petersen_file, "--format", "json").stdout)
        assert report["moore"]["is_moore"] is True
        assert report["count_check"]["is_moore_by_count"] is True

    def test_spectral(self, petersen_file):
        report = json.loads(
            run_cli("spectral", petersen_file, "--format", "json").stdout
        )
        assert report["spectral"]["count"] == 12
        assert report["spectral"]["coefficient"] == -24

    def test_spectral_hoffman_singleton(self, tmp_path, hoffman_singleton):
        path = tmp_path / "hs.g6"
        path.write_text(cc.write_graph6(hoffman_singleton) + "\n")
        report = json.loads(
            run_cli("spectral", str(path), "--format", "json").stdout
        )
        assert report["spectral"]["count"] == 1260

    def test_spectral_cap(self, petersen_file):
        assert run_cli("spectral", petersen_file, "--max-n", "5").returncode == 2

    def test_oracle(self, petersen_file):
        report = json.loads(
            run_cli("oracle", petersen_file, "--format", "json").stdout
        )
        assert report["census"]["total"] == 12

    def test_oracle_max_len(self, petersen_file):
        report = json.loads(
            run_cli(
                "oracle", petersen_file, "--max-len", "4", "--format", "json"
            ).stdout
        )
        assert report["census"]["total"] == 0

    def test_oracle_size_guard(self, tmp_path):
        path = tmp_path / "big.g6"
        path.write_text(cc.write_graph6(cc.cycle_graph(13)) + "\n")
        refused = run_cli("oracle", str(path))
        assert refused.returncode == 2
        forced = run_cli("oracle", str(path), "--force", "--format", "json")
        assert forced.returncode == 0
        assert json.loads(forced.stdout)["census"]["total"] == 1

    def test_oracle_long_cycle(self, tmp_path, capsys):
        path = tmp_path / "c1200.g6"
        path.write_text(cc.write_graph6(cc.cycle_graph(1200)) + "\n")
        assert cc.cli_run(["oracle", str(path), "--force", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["census"]["total"] == 1


class TestExitCodes:
    def test_missing_file(self):
        assert run_cli("analyze", "/no/such/file.g6").returncode == 2

    def test_malformed_graph6(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C\n")
        assert run_cli("analyze", str(path)).returncode == 2

    def test_non_utf8_file_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe0 1\n")
        assert cc.cli_run(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "UTF-8" in captured.err

    def test_non_utf8_stdin_refused(self):
        # stdin is decoded as strict UTF-8 whatever the locale, so no
        # surrogate escape such as '\udcff' leaks into the message
        result = subprocess.run(
            [sys.executable, "-m", "convexcycles", "analyze", "-"],
            input=b"\xff\xfe0 1\n",
            capture_output=True,
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert len(result.stderr.splitlines()) == 1
        assert b"UTF-8" in result.stderr and b"udcff" not in result.stderr

    @pytest.mark.parametrize("max_len", ["-5", "0", "2"])
    def test_oracle_max_len_below_three_refused(self, petersen_file, capsys, max_len):
        # no cycle is shorter than 3, so a shorter bound is a mistake
        assert cc.cli_run(["oracle", petersen_file, "--max-len", max_len]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-len must be at least 3, got {max_len}\n"

    def test_edge_list_order_refused(self, tmp_path, capsys):
        # refused before 10**8 adjacency lists are allocated
        path = tmp_path / "huge.txt"
        path.write_text("0 100000000\n")
        assert cc.cli_run(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("0 1\n1 2\n2 1\n3 3\n", "edge (1, 2) supplied more than once"),
            ("0 1\n3 3\n1 0\n", "loop edge (3, 3) is not allowed in a simple graph"),
            ("0 1\n0 1\n", "edge (0, 1) supplied more than once"),
        ],
    )
    def test_first_bad_edge_is_the_one_reported(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert cc.cli_run(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("module", ["convexcycles.cli", "convexcycles"])
    def test_refusal_is_one_stderr_line(self, tmp_path, module):
        path = tmp_path / "huge.txt"
        path.write_text("0 100000000\n")
        result = subprocess.run(
            [sys.executable, "-m", module, "analyze", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1, result.stderr

    def test_graph6_with_other_blanks_refused(self, tmp_path):
        # a graph6 line sheds only the blanks an edge-list line may hold
        path = tmp_path / "k4.g6"
        path.write_text("C~\x1c")
        result = run_cli("bound", str(path))
        assert result.returncode == 2
        assert result.stdout == ""

    @staticmethod
    def run_into(fd: int, *args: str, unbuffered: bool) -> subprocess.CompletedProcess:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            [sys.executable, "-m", "convexcycles", *args],
            stdout=fd, stderr=subprocess.PIPE, text=True, env=env,
        )

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "args", [("analyze", "GRAPH", "--format", "json"), ("generate", "petersen")]
    )
    def test_closed_stdout_ends_quietly(self, petersen_file, args, unbuffered):
        # the reader is gone before the run writes, as in `... | head -0`
        args = [petersen_file if a == "GRAPH" else a for a in args]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_into(write_end, *args, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert result.returncode == 0
        assert result.stderr == ""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_failed_stdout_write_is_one_stderr_line(self, petersen_file, unbuffered):
        with open("/dev/full", "w") as full:
            result = self.run_into(
                full.fileno(), "analyze", petersen_file, unbuffered=unbuffered
            )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: [Errno 28] No space left on device"
        ]

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_unknown_flag(self):
        assert run_cli("analyze", "-", "--no-such-flag").returncode == 2

    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    @staticmethod
    def check_flags_follow(command, flags, capsys):
        # after the subcommand a flag applies; before it, it is refused
        # rather than silently replaced by the subcommand's default
        assert cc.cli_run(command) == 0
        default = capsys.readouterr().out
        assert cc.cli_run(command + flags) == 0
        assert capsys.readouterr().out != default
        assert cc.cli_run(flags + command) == 2
        assert capsys.readouterr().out == ""

    def test_seed_follows_the_subcommand(self, capsys):
        self.check_flags_follow(["generate", "gnp", "12", "0.5"], ["--seed", "5"], capsys)

    @pytest.mark.parametrize("flags", [["--format", "json"], ["--spectral"]])
    def test_report_flags_follow_the_subcommand(self, petersen_file, capsys, flags):
        self.check_flags_follow(["analyze", petersen_file], flags, capsys)

    def test_gnp_seed_defaults_to_zero(self, capsys):
        assert cc.cli_run(["generate", "gnp", "12", "0.5"]) == 0
        default = capsys.readouterr().out
        assert cc.cli_run(["generate", "gnp", "12", "0.5", "--seed", "0"]) == 0
        assert capsys.readouterr().out == default

    def test_run_function_returns_codes(self, capsys):
        assert cc.cli_run(["generate", "petersen"]) == 0
        capsys.readouterr()
        assert cc.cli_run(["generate", "nope"]) == 2

    @staticmethod
    def drop_first_cycle(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
        """Make each census kernel lose the first cycle it hands to the
        shared checks; returns the list that receives (kernel, lost cycle)."""
        dropped = []
        for name in ("_census_planes", "_census_chains", "_census_rows"):

            def drop_first(*args, name=name, kernel=getattr(convexity, name)):
                cycles, *found = kernel(*args)
                dropped.append((name, cycles.pop(0)))
                return cycles, *found

            monkeypatch.setattr(convexity, name, drop_first)
        return dropped

    @staticmethod
    def write(tmp_path, g: cc.Graph, name: str) -> str:
        path = tmp_path / name
        path.write_text(cc.write_graph6(g) + "\n")
        return str(path)

    def test_dropped_girth_cycle_maps_to_three(
        self, petersen_file, tmp_path, monkeypatch, capsys
    ):
        # the far-edge count reads only BFS levels or the junction table,
        # so it notices a census that lost a girth cycle in every kernel:
        # Petersen (diameter 2) takes the planes kernel, C9 (7 chain roots
        # for its one junction) the chains kernel, and the square of C40
        # (diameter 10 > log2 40, no vertex of degree 2) the rows kernel
        c9_file = self.write(tmp_path, cc.cycle_graph(9), "c9.g6")
        square = cc.Graph(40, [(i, (i + k) % 40) for i in range(40) for k in (1, 2)])
        square_file = self.write(tmp_path, square, "c40-squared.g6")
        dropped = self.drop_first_cycle(monkeypatch)
        for path, kernel, length in [
            (petersen_file, "_census_planes", 5), (c9_file, "_census_chains", 9),
            (square_file, "_census_rows", 3),
        ]:
            assert cc.cli_run(["analyze", path]) == 3
            assert dropped[-1][0] == kernel and len(dropped[-1][1]) == length
            assert "same-level edges" in capsys.readouterr().err

    def test_oracle_disagreement_maps_to_three(self, tmp_path, q3, monkeypatch, capsys):
        # Q3, C8 and grids have even girth, so the far-edge count is silent
        # on a lost cycle; the brute-force census still has it.  Q3
        # (diameter 3) takes the planes kernel, C8 (6 chain roots for its
        # one junction) the chains kernel, and the 3 x 4 grid (diameter 5 >
        # log2 12, no two adjacent vertices of degree 2) the rows kernel
        q3_file = self.write(tmp_path, q3, "q3.g6")
        c8_file = self.write(tmp_path, cc.cycle_graph(8), "c8.g6")
        grid = cc.Graph(12, [(v, v + 1) for v in range(12) if v % 4 < 3]
                        + [(v, v + 4) for v in range(8)])
        grid_file = self.write(tmp_path, grid, "grid-3x4.g6")
        dropped = self.drop_first_cycle(monkeypatch)
        for path, kernel, length in [
            (q3_file, "_census_planes", 4), (c8_file, "_census_chains", 8),
            (grid_file, "_census_rows", 4),
        ]:
            assert cc.cli_run(["oracle", path]) == 3
            assert dropped[-1][0] == kernel and len(dropped[-1][1]) == length
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "differs from the census pass" in captured.err

    @pytest.mark.parametrize(
        "command", [["analyze", "GRAPH", "--spectral"], ["spectral", "GRAPH"]]
    )
    def test_spectral_count_disagreement_maps_to_three(
        self, petersen_file, monkeypatch, capsys, command
    ):
        # -c/2 counts girth cycles, so lowering c by 2 adds one 5-cycle
        char_poly = spectral.char_poly

        def one_more_five_cycle(g):
            coeffs = list(char_poly(g).coeffs)
            coeffs[g.n - 5] -= 2
            return cc.IntPolynomial(tuple(coeffs))

        monkeypatch.setattr(spectral, "char_poly", one_more_five_cycle)
        argv = [petersen_file if a == "GRAPH" else a for a in command]
        assert cc.cli_run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spectral count of 5-cycles 13 differs from the census count 12" in (
            captured.err
        )

    def test_consistency_violation_maps_to_three(
        self, petersen_file, monkeypatch, capsys
    ):
        def explode(*args, **kwargs):
            raise cc.ConsistencyError("forced for the exit-code test")

        monkeypatch.setattr(cli, "check_extremal", explode)
        assert cc.cli_run(["analyze", petersen_file]) == 3
        capsys.readouterr()

    def test_memory_error_maps_to_two(self, petersen_file, monkeypatch, capsys):
        # running out of memory is a resource refusal: one line, exit 2
        def exhaust(adjacency):
            raise MemoryError

        monkeypatch.setattr(convexity, "_census_planes", exhaust)
        assert cc.cli_run(["analyze", petersen_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory for this graph\n"


class TestFlags:
    """Each subcommand takes only the flags it reads."""

    OPTIONS = {
        "analyze": {"--format", "--spectral", "--max-n"},
        "bound": {"--format"},
        "moore": {"--format"},
        "spectral": {"--format", "--max-n"},
        "generate": {"--seed"},
        "oracle": {"--format", "--max-len", "--force"},
    }

    def test_option_strings(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert found == self.OPTIONS

    def test_parser_kept_across_runs(self, petersen_file):
        # the parser is built once per process, and a run leaves nothing in
        # it: --spectral adds its section to one report only
        assert cli._build_parser() is cli._build_parser()
        sections = []
        for argv in (["analyze", "--spectral"], ["analyze"], ["bound"]):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                assert cc.cli_run([*argv, petersen_file, "--format", "json"]) == 0
            report = json.loads(out.getvalue())
            sections.append([k for k, v in report.items() if isinstance(v, dict)])
        assert sections == [
            ["census", "extremal", "moore", "count_check", "spectral"],
            ["census", "extremal", "moore", "count_check"],
            ["census", "extremal"],
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "GRAPH", "--seed", "5"],
            ["bound", "GRAPH", "--seed", "5"],
            ["generate", "petersen", "--format", "json"],
            ["generate", "petersen", "--timings"],
            # --seed is read by gnp only
            ["generate", "petersen", "--seed", "3"],
            ["generate", "cycle", "6", "--seed", "3"],
            # gnp takes its seed from --seed only
            ["generate", "gnp", "12", "0.5", "7"],
        ],
        ids=" ".join,
    )
    def test_refused(self, petersen_file, capsys, argv):
        argv = [petersen_file if a == "GRAPH" else a for a in argv]
        assert cc.cli_run(argv) == 2
        assert capsys.readouterr().out == ""


def _readme_command_lines() -> list[str]:
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_line(petersen_file, line):
    """Each README example exits 0, a Petersen graph standing in for
    graph.g6; the stages of a pipe run in turn, each fed the last one's
    output."""
    stdin = None
    for stage in line.split("|"):
        argv = shlex.split(stage, comments=True)
        assert argv[0] == "convexcycles", line
        argv = [petersen_file if a == "graph.g6" else a for a in argv[1:]]
        result = subprocess.run(
            [sys.executable, "-m", "convexcycles", *argv],
            input=stdin, capture_output=True, text=True,
        )
        assert result.returncode == 0, (stage, result.stderr)
        stdin = result.stdout
    assert stdin


# ---------------------------------------------------------------- fuzz

_JUNK = ["#", "-1", "+1", "1_0", "-0", "x", "٣", "０", "258047", "1e3", "\x00"]
_EDGE_TOKENS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(_JUNK))
_EDGE_PAIRS = st.tuples(st.integers(0, 12), st.integers(0, 12)).map("%d %d".__mod__)
# two lines in three are plain pairs, so that some inputs parse
_EDGE_LINES = st.one_of(
    _EDGE_PAIRS, _EDGE_PAIRS, st.lists(_EDGE_TOKENS, max_size=4).map(" ".join)
)
_EDGE_LISTS = st.lists(_EDGE_LINES, max_size=12).map(lambda lines: "\n".join(lines).encode())
_G6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)
# built once: jsonschema.validate re-checks the schema on every call
_REPORT_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _g6_sized(n: int):
    """A size byte for order n and a payload of the length n needs."""
    need = (n * (n - 1) // 2 + 5) // 6
    return st.text(_G6_CHARS, min_size=need, max_size=need).map(lambda p: chr(63 + n) + p)


_GRAPH6_LINES = st.tuples(
    st.sampled_from(["", ">>graph6<<"]),
    st.one_of(st.text(_G6_CHARS, max_size=40), st.integers(0, 12).flatmap(_g6_sized)),
).map(lambda parts: "".join(parts).encode())


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "input"


class TestRunFuzz:
    """`analyze --format json` on arbitrary input exits 0 with a report
    that fits the schema, or 2 with one stderr line and no report."""

    @staticmethod
    def check(path: Path, data: bytes) -> None:
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cc.cli_run(["analyze", str(path), "--format", "json"])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            _REPORT_VALIDATOR.validate(json.loads(out.getvalue()))
        else:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()

    @settings(max_examples=300)
    @given(st.binary(max_size=48))
    def test_arbitrary_bytes(self, fuzz_path, data):
        self.check(fuzz_path, data)

    @settings(max_examples=300)
    @given(_EDGE_LISTS)
    def test_edge_lists_with_junk(self, fuzz_path, data):
        self.check(fuzz_path, data)

    @settings(max_examples=300)
    @given(_GRAPH6_LINES)
    def test_graph6_alphabet(self, fuzz_path, data):
        self.check(fuzz_path, data)


def _benchmark_workloads():
    """benchmark/workloads.py, imported by path; its dataclasses look their
    module up in sys.modules, so it is registered there first."""
    name = "convexcycles_benchmark_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "benchmark" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


class TestGoldenReports:
    """The census workloads' seed-1 inputs, built by the benchmark's own
    generator, print reports byte-identical to benchmark/golden."""

    @pytest.mark.parametrize("workload", ["census-random", "census-grid", "census-long"])
    def test_reports_match_golden(self, workload, tmp_path, monkeypatch, capsys):
        workloads = _benchmark_workloads()
        golden = json.loads((ROOT / "benchmark" / "golden" / f"{workload}.json").read_text())
        cases = workloads.build(workload, 1)
        assert sorted(case.name for case in cases) == sorted(golden)
        monkeypatch.chdir(tmp_path)
        for case in cases:
            (tmp_path / case.name).write_text(workloads.graph6(case.n, case.edges))
            assert cc.cli_run(["analyze", case.name, "--format", "json"]) == 0
            assert capsys.readouterr().out == golden[case.name], case.name
