"""Seeded inputs, the timed operation and the output checks of each workload.

Every workload builds a fixed number of cases from the seed.  Case sizes are
stratified: each seed draws one case from every stratum, so two seeds give
different graphs of the same size mix and a run's median does not move with
the seed.  Expected values are computed here, independently of the package,
from the construction of each input.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("census-random", "census-grid", "census-long", "spectral")

# Evaluation points of the spectral check; none is a root of any generated
# factor, so every check compares two non-zero integers.
SPECTRAL_POINTS = (2, -3, 13)


@dataclass(frozen=True)
class GraphCase:
    """One graph6 input of a census workload and what its report must say."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    girth: int
    by_length: dict[str, int] | None = None  # the whole census, when known
    triangles: int | None = None  # census.by_length["3"], when girth is 3
    classification: str | None = None

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class SpectralCase:
    """A factored spectrum prod (x - root)**mult to expand."""

    name: str
    factors: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------- graphs


def _relabel(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def _triangles(n: int, edges) -> int:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return sum(len(nbrs[u] & nbrs[v]) for u, v in edges) // 3


def _girth(n: int, edges) -> int:
    """Shortest cycle by BFS from every vertex (inputs here are tiny)."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = n + 1
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        for u in queue:
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def _subdivide(n: int, edges, s: int) -> tuple[int, list[tuple[int, int]]]:
    """Replace every edge by a path of s edges."""
    out = []
    nxt = n
    for u, v in edges:
        prev = u
        for _ in range(s - 1):
            out.append((prev, nxt))
            prev = nxt
            nxt += 1
        out.append((prev, v))
    return nxt, out


def _random_cubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple cubic graph by the pairing model with rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            e = (min(a, b), max(a, b))
            if a == b or e in edges:
                break
            edges.add(e)
        else:
            if _connected(n, edges):
                return sorted(edges)


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]
K4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
K33 = [(u, 3 + v) for u in range(3) for v in range(3)]


def _census_random(seed: int) -> list[GraphCase]:
    """Connected G(270, p) at mean degree 9, with at least one triangle."""
    cases = []
    n = 270
    for i in range(6):
        rng = random.Random(f"census-random:{seed}:{i}")
        while True:
            edges = [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 9 / (n - 1)
            ]
            triangles = _triangles(n, edges)
            if triangles and _connected(n, edges):
                break
        cases.append(
            GraphCase(f"gnp-{i}.g6", n, tuple(edges), 3, triangles=triangles)
        )
    return cases


def _census_grid(seed: int) -> list[GraphCase]:
    """r x c grids with n = 480..484, shape, orientation and vertex labels
    drawn from the seed."""
    cases = []
    for i in range(6):
        rng = random.Random(f"census-grid:{seed}:{i}")
        r, c = rng.choice(((20, 24), (21, 23), (22, 22)))
        if rng.random() < 0.5:
            r, c = c, r
        edges = [(x * c + y, x * c + y + 1) for x in range(r) for y in range(c - 1)]
        edges += [(x * c + y, (x + 1) * c + y) for x in range(r - 1) for y in range(c)]
        squares = (r - 1) * (c - 1)
        cases.append(
            GraphCase(
                f"grid-{i}-{r}x{c}.g6",
                r * c,
                _relabel(r * c, edges, rng),
                4,
                by_length={"4": squares},
                classification="Strict",
            )
        )
    return cases


def _census_long(seed: int) -> list[GraphCase]:
    """Long cycles C_L of both parities and uniformly subdivided cubic graphs.

    A uniform subdivision keeps the convex cycles of the base graph, each
    s times longer: Petersen keeps its 12 pentagons, K4 its 4 triangles,
    and K3,3 has none.
    """
    cases = []
    rng = random.Random(f"census-long:{seed}")
    for lo, parity in ((291, 1), (340, 0)):
        length = rng.randrange(lo, lo + 8, 2)
        edges = [(i, (i + 1) % length) for i in range(length)]
        cases.append(
            GraphCase(
                f"cycle-{length}.g6",
                length,
                _relabel(length, edges, rng),
                length,
                by_length={str(length): 1},
                classification="MooreGraph" if parity else "EvenCycle",
            )
        )
    # (label, base order, base edges, subdivision, base girth, convex cycles);
    # subdivisions are odd so that odd and even candidates both occur.
    bases = (
        ("petersen", 10, PETERSEN, 23, 5, 12),
        ("k4", 4, K4, 57, 3, 4),
        ("k33", 6, K33, 39, 4, 0),
        ("cubic", 10, None, 23, None, None),
    )
    for label, n0, base, s, girth0, convex in bases:
        if base is None:
            base = _random_cubic(n0, rng)
            girth0 = _girth(n0, base)
        n, edges = _subdivide(n0, base, s)
        by_length = None
        if convex is not None:
            by_length = {str(girth0 * s): convex} if convex else {}
        cases.append(
            GraphCase(f"{label}-s{s}.g6", n, _relabel(n, edges, rng), girth0 * s, by_length)
        )
    return cases


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 258047), written here so that the package's
    own encoder is not trusted to build its inputs."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = bytearray(n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits.extend(b"\0" * (-len(bits) % 6))
    body = "".join(
        chr(63 + int("".join("1" if b else "0" for b in bits[i:i + 6]), 2))
        for i in range(0, len(bits), 6)
    )
    return head + body + "\n"


# ---------------------------------------------------------------- spectra


def _spectral(seed: int) -> list[SpectralCase]:
    """Moore-shaped spectra (x-k)(x-r)^a(x-s)^b, k = 33, r in {7, 8},
    s = -(r+1), of degree k^2+1 = 1090; the seed splits a and b."""
    cases = []
    k = 33
    rest = k * k
    for i in range(6):
        rng = random.Random(f"spectral:{seed}:{i}")
        r = 7 + i % 2
        a = rng.randrange(rest * 43 // 100, rest * 47 // 100)
        cases.append(
            SpectralCase(f"moore-{i}-{k}-{r}-{a}", ((k, 1), (r, a), (-(r + 1), rest - a)))
        )
    return cases


def build(workload: str, seed: int) -> list:
    return {
        "census-random": _census_random,
        "census-grid": _census_grid,
        "census-long": _census_long,
        "spectral": _spectral,
    }[workload](seed)


# ---------------------------------------------------------------- operations


class CensusOp:
    """`convexcycles analyze <file> --format json` in-process, default flags."""

    def __init__(self, cc, golden: dict[str, str] | None):
        self.cc = cc
        self.golden = golden

    def run(self, case: GraphCase):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cc.cli_run(["analyze", case.name, "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, case: GraphCase, result) -> list[str]:
        code, stdout, stderr = result
        if code != 0:
            first = stderr.strip().splitlines()[:1]
            return [f"exit code {code}: {first[0] if first else '(no stderr)'}"]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        problems = []

        def expect(path: str, got, want) -> None:
            if got != want:
                problems.append(f"{path}: got {got!r}, expected {want!r}")

        census = report.get("census", {})
        extremal = report.get("extremal", {})
        expect("input", report.get("input"), case.name)
        expect("n", report.get("n"), case.n)
        expect("m", report.get("m"), case.m)
        expect("girth", report.get("girth"), case.girth)
        expect("connected", report.get("connected"), True)
        total = census.get("total")
        by_length = census.get("by_length", {})
        expect("census.odd+even", (census.get("odd"), census.get("even")),
               (sum(v for k, v in by_length.items() if int(k) % 2),
                sum(v for k, v in by_length.items() if int(k) % 2 == 0)))
        expect("census.sum(by_length)", sum(by_length.values()), total)
        bound = Fraction(case.n * (case.m - case.n + 1), case.girth)
        expect("extremal.bound", extremal.get("bound"), str(bound))
        if not isinstance(total, int) or total > bound:
            problems.append(f"census.total: {total!r} exceeds the bound {bound}")
        if case.by_length is not None:
            expect("census.total", total, sum(case.by_length.values()))
            expect("census.by_length", by_length, case.by_length)
        if case.triangles is not None:
            expect("census.by_length.3", by_length.get("3"), case.triangles)
        if case.classification is not None:
            expect("extremal.classification", extremal.get("classification"),
                   case.classification)
        if self.golden is not None and not problems:
            problems += _compare_golden(case.name, stdout, self.golden.get(case.name))
        return problems


class SpectralOp:
    """`convexcycles.expand_factored` on one factored spectrum."""

    def __init__(self, cc, golden: dict[str, str] | None):
        self.cc = cc
        self.golden = golden

    def run(self, case: SpectralCase):
        return self.cc.expand_factored(list(case.factors))

    def check(self, case: SpectralCase, poly) -> list[str]:
        coeffs = poly.coeffs
        degree = sum(mult for _, mult in case.factors)
        if len(coeffs) != degree + 1:
            return [f"degree: got {len(coeffs) - 1}, expected {degree}"]
        problems = []
        if coeffs[-1] != 1:
            problems.append(f"coefficient x^{degree}: got {coeffs[-1]}, expected 1")
        for x in (0,) + SPECTRAL_POINTS:
            want = 1
            for root, mult in case.factors:
                want *= (x - root) ** mult
            got = 0
            for c in reversed(coeffs):
                got = got * x + c
            if got != want:
                problems.append(f"coefficients: P({x}) differs from the factored product")
        if self.golden is not None and not problems:
            digest = hashlib.sha256(poly.to_text().encode()).hexdigest()
            want = self.golden.get(case.name)
            if digest != want:
                problems.append(f"golden: coefficient text sha256 {digest[:16]}, "
                                f"committed {str(want)[:16]}")
        return problems


def _compare_golden(name: str, text: str, golden: str | None) -> list[str]:
    if golden is None:
        return [f"golden: no committed report for {name}"]
    if text == golden:
        return []
    got, want = json.loads(text), json.loads(golden)

    def first_difference(a, b, path: str) -> str:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if a.get(key, None) != b.get(key, None) or (key in a) != (key in b):
                    return first_difference(a.get(key), b.get(key), f"{path}.{key}")
        return f"{path[1:] or 'report'}: got {a!r}, committed {b!r}"

    if got == want:
        return ["golden: same fields, different bytes"]
    return ["golden: " + first_difference(got, want, "")]


def make_op(workload: str, cc, golden):
    return (SpectralOp if workload == "spectral" else CensusOp)(cc, golden)
