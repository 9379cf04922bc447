from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

import convexcycles as cc

settings.register_profile("default", deadline=None)
settings.load_profile("default")

DATA_DIR = Path(__file__).parent / "data"
CORPUS_FILE = DATA_DIR / "connected_upto7.g6"

# connected graphs up to isomorphism per order (exhaustiveness guard)
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def q3_graph() -> cc.Graph:
    edges = [
        (a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)
    ]
    return cc.Graph(8, edges)


def subdivided(g: cc.Graph, pieces: int) -> cc.Graph:
    """g with every edge cut into `pieces` edges by new inner vertices."""
    n = g.n
    edges = []
    for u, v in g.edge_list:
        chain = [u, *range(n, n + pieces - 1), v]
        n += pieces - 1
        edges += zip(chain, chain[1:])
    return cc.Graph(n, edges)


@pytest.fixture(scope="session")
def petersen() -> cc.Graph:
    return cc.petersen_graph()


@pytest.fixture(scope="session")
def petersen_analysis(petersen) -> tuple[cc.MetricProfile, cc.CycleCensus]:
    return cc.profile_and_census(petersen)


@pytest.fixture(scope="session")
def hoffman_singleton() -> cc.Graph:
    return cc.hoffman_singleton_graph()


@pytest.fixture(scope="session")
def hoffman_singleton_analysis(
    hoffman_singleton,
) -> tuple[cc.MetricProfile, cc.CycleCensus]:
    return cc.profile_and_census(hoffman_singleton)


@pytest.fixture(scope="session")
def q3() -> cc.Graph:
    return q3_graph()


@pytest.fixture(scope="session")
def k23() -> cc.Graph:
    return cc.complete_bipartite_graph(2, 3)


@pytest.fixture(scope="session")
def corpus() -> list[cc.Graph]:
    lines = CORPUS_FILE.read_text().splitlines()
    return [cc.parse_graph6(line) for line in lines if line.strip()]


Analyzed = tuple[cc.Graph, cc.MetricProfile, cc.CycleCensus]


def analyzed_all(graphs: list[cc.Graph]) -> list[Analyzed]:
    return [(g, *cc.profile_and_census(g)) for g in graphs]


@pytest.fixture(scope="session")
def corpus_profiles(corpus) -> list[Analyzed]:
    return analyzed_all(corpus)


@pytest.fixture(scope="session")
def beyond_corpus_profiles(petersen, q3) -> list[Analyzed]:
    """Graphs past the n <= 7 corpus, which has no even girth above 6 and
    no convex cycle longer than 7.  Subdivided Petersen (girth 10) has 12
    convex 10-cycles, K4 with each edge cut in 3 has 4 convex 9-cycles and
    subdivided K3,3 has none."""
    c5_and_c8 = cc.Graph(
        13, [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 8) for i in range(8)],
    )
    graphs = [
        cc.cycle_graph(8),
        cc.cycle_graph(11),
        cc.cycle_graph(12),
        q3,
        c5_and_c8,
        subdivided(petersen, 2),
        subdivided(cc.complete_graph(4), 3),
        subdivided(cc.complete_bipartite_graph(3, 3), 2),
    ]
    return analyzed_all(graphs)
