"""The convex-cycle bound n(m-n+1)/g, its equality classification, and the
Moore-graph tests.

All comparisons are exact: the bound is a Fraction and the censuses are
integers, so equality detection never touches floating point.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .convexity import CycleCensus, girth_cycle_count
from .errors import ConsistencyError, Disconnected, InvalidParameter, NotApplicable
from .graphs import Graph, _Record
from .metric import MetricProfile


class Classification(enum.Enum):
    EVEN_CYCLE = "EvenCycle"
    MOORE_GRAPH = "MooreGraph"
    STRICT = "Strict"
    NOT_APPLICABLE = "NotApplicable"


class ExtremalReport(_Record):
    __slots__ = ("n", "m", "girth", "total", "bound", "equality", "classification")
    n: int
    m: int
    girth: int
    total: int
    bound: Fraction
    equality: bool
    classification: Classification


class MooreReport(_Record):
    """Diameter/girth Moore test; degree is the common degree when the
    graph is regular, else None."""

    __slots__ = ("is_moore", "diameter", "girth", "degree")
    is_moore: bool
    diameter: int
    girth: int | float
    degree: int | None


class MooreCountCheck(_Record):
    """Result of the counting criterion: a connected graph of odd girth is
    a Moore graph exactly when its girth-cycle count hits n(m-n+1)/g."""

    __slots__ = ("count", "target", "is_moore_by_count")
    count: int
    target: Fraction
    is_moore_by_count: bool


def convex_cycle_bound(n: int, m: int, girth: int | float) -> Fraction:
    """Exact value of n(m-n+1)/girth."""
    if girth == math.inf:
        raise NotApplicable("bound undefined for acyclic graphs")
    if girth < 3 or n < girth or m < n - 1:
        raise InvalidParameter(
            f"bound needs girth >= 3, n >= girth, m >= n-1; got n={n}, m={m}, girth={girth}"
        )
    return Fraction(n * (m - n + 1), int(girth))


def is_moore(g: Graph, profile: MetricProfile) -> MooreReport:
    """Diameter r with girth 2r+1; such graphs are necessarily regular, and
    a regularity failure is reported as an internal inconsistency."""
    if not profile.connected:
        raise Disconnected("Moore test needs a connected graph")
    degree = g.regular_degree()
    moore = profile.girth != math.inf and profile.girth == 2 * profile.diameter + 1
    if moore and degree is None:
        raise ConsistencyError(
            "girth equals 2*diameter+1 but the graph is not regular"
        )
    return MooreReport(moore, int(profile.diameter), profile.girth, degree)


def check_moore_by_count(
    g: Graph, profile: MetricProfile, census: CycleCensus
) -> MooreCountCheck:
    """Count girth cycles and compare with the exact target n(m-n+1)/g.

    The verdict must agree with is_moore on every connected odd-girth
    graph; a disagreement raises ConsistencyError.
    """
    if not profile.connected:
        raise Disconnected("counting criterion needs a connected graph")
    if profile.girth == math.inf or profile.girth % 2 == 0:
        raise NotApplicable(f"girth {profile.girth} is not odd and finite")
    count = girth_cycle_count(profile, census)
    target = convex_cycle_bound(g.n, g.m, profile.girth)
    verdict = count == target
    if verdict != is_moore(g, profile).is_moore:
        raise ConsistencyError(
            f"count criterion ({verdict}) disagrees with the diameter/girth "
            f"Moore test on n={g.n}, m={g.m}"
        )
    return MooreCountCheck(count, target, verdict)


def _is_cycle_graph(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and g.regular_degree() == 2


def check_extremal(
    g: Graph, profile: MetricProfile, census: CycleCensus
) -> ExtremalReport:
    """Bound, equality flag, and equality classification for one graph.

    Equality must coincide with the graph being an even cycle or a Moore
    graph; any mismatch, or a census exceeding the bound, raises
    ConsistencyError because it would disprove a verified identity.
    """
    if not profile.connected:
        raise Disconnected("extremal report needs a connected graph")
    if profile.girth == math.inf:
        raise NotApplicable("extremal report undefined for forests")
    bound = convex_cycle_bound(g.n, g.m, profile.girth)
    if census.total > bound:
        raise ConsistencyError(
            f"census {census.total} exceeds the bound {bound} on n={g.n}, m={g.m}"
        )
    equality = census.total == bound
    if is_moore(g, profile).is_moore:
        classification = Classification.MOORE_GRAPH
    elif _is_cycle_graph(g) and g.n % 2 == 0:
        classification = Classification.EVEN_CYCLE
    else:
        classification = Classification.STRICT
    if equality != (classification is not Classification.STRICT):
        raise ConsistencyError(
            f"equality={equality} contradicts classification={classification.value} "
            f"on n={g.n}, m={g.m}"
        )
    return ExtremalReport(
        n=g.n,
        m=g.m,
        girth=int(profile.girth),
        total=census.total,
        bound=bound,
        equality=equality,
        classification=classification,
    )
