"""Exact integer characteristic polynomials and coefficient-based counting
of shortest cycles.

char_poly runs the division-free Berkowitz recurrence over Python integers,
so every coefficient is exact at any order.  expand_factored never multiplies
two large polynomials: a product of integer-root powers P satisfies the
first-order differential equation Q*P' = R*P with small Q and R, so its
coefficients follow a linear recurrence with one exact division each
(Stanley, "Differentiably finite power series", 1980).  Integer graph
spectra have few distinct eigenvalues, which keeps the recurrence short.
"""

from __future__ import annotations

from decimal import Decimal

from .errors import ConsistencyError, InconsistentInput, InvalidParameter, NotApplicable
from .graphs import Graph, _Record


class IntPolynomial(_Record):
    """Dense integer polynomial; coeffs[j] multiplies x**j."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise InvalidParameter("a polynomial needs at least one coefficient")
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> int:
        if not 0 <= power <= self.degree:
            return 0
        return self.coeffs[power]

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def to_text(self) -> str:
        """Space-separated exact decimal coefficients, constant first."""
        return " ".join(map(_digits, self.coeffs))


def char_poly(g: Graph) -> IntPolynomial:
    """det(xI - A) of the adjacency matrix by the Berkowitz recurrence.

    Division-free: only integer multiply/add, hence exact for any order.
    Adjacency entries are 0/1, so the inner vector-matrix steps reduce to
    sums over neighbor lists.
    """
    n = g.n
    if n < 1:
        raise InvalidParameter("characteristic polynomial needs at least one vertex")
    adjacency = g.adjacency
    # coefficients of the leading k-by-k principal submatrix, highest power first
    coeffs = [1, 0]  # diagonal entries are 0: x - a_00 = x
    for k in range(1, n):
        nbrs = [w for w in adjacency[k] if w < k]
        toeplitz = [1, 0]  # 1, -a_kk
        row = [0] * k
        for w in nbrs:
            row[w] = 1
        for step in range(k):
            toeplitz.append(-sum(row[w] for w in nbrs))
            if step == k - 1:
                break
            row = [
                sum(row[w] for w in adjacency[i] if w < k) for i in range(k)
            ]
        new = [0] * (k + 2)
        for i in range(k + 2):
            top = min(i, k)
            acc = 0
            for j in range(max(0, i - k - 1), top + 1):
                t = toeplitz[i - j]
                if t:
                    acc += t * coeffs[j]
            new[i] = acc
        coeffs = new
    return IntPolynomial(tuple(reversed(coeffs)))


def _digits(value: int) -> str:
    """str(value) for an int of any size, '-' included when negative.
    str(value) refuses ints past the interpreter's str-digits limit; the
    Decimal conversion does not."""
    return str(Decimal(value))


def expand_factored(factors: list[tuple[int, int]]) -> IntPolynomial:
    """Expand a product of integer-root powers P = prod (x - a)**k exactly.

    With Q = prod (x - a) over the t distinct roots and R = sum k*Q/(x - a),
    P satisfies Q*P' = R*P.  Comparing the coefficients of x**(J+t-1) gives,
    for N = deg P and J < N,
        (N - J)*p_J = sum_{d=1..t} (q_{t-d}*(J + d) - r_{t-1-d})*p_{J+d}
    (r_{-1} = 0), so each coefficient costs t big-by-small products and one
    division by N - J.  The division is exact; a remainder raises
    ConsistencyError.
    """
    merged: dict[int, int] = {}
    for root, multiplicity in factors:
        if multiplicity < 1:
            raise InvalidParameter(
                f"multiplicity must be >= 1, got {multiplicity} for root {root}"
            )
        merged[root] = merged.get(root, 0) + multiplicity
    # ascending coefficients of Q and R; both multiply by (x - a) per root
    q, r = [1], [0]
    for a, k in merged.items():
        r = [s - a * c + k * b for s, c, b in zip([0] + r, r + [0], q + [0])]
        q = [s - a * c for s, c in zip([0] + q, q + [0])]
    t = len(merged)
    n = sum(merged.values())
    steps = [(q[t - d], r[t - 1 - d] if d < t else 0) for d in range(1, t + 1)]
    p = [0] * (n + t + 1)
    p[n] = 1
    for j in range(n - 1, -1, -1):
        acc = 0
        for d, (qd, rd) in enumerate(steps, 1):
            acc += (qd * (j + d) - rd) * p[j + d]
        p[j], rem = divmod(acc, n - j)
        if rem:
            raise ConsistencyError(
                f"coefficient x^{j}: division by {n - j} leaves remainder {rem}"
            )
    return IntPolynomial(tuple(p[:n + 1]))


def girth_cycle_count_spectral(p: IntPolynomial, n: int, g: int) -> int:
    """Count girth cycles as -c/2, c the coefficient of x**(n-g).

    Valid for odd girth g of an order-n graph whose characteristic
    polynomial is p; a coefficient that is odd, or a non-positive count,
    cannot come from such a graph and raises InconsistentInput.
    """
    if g % 2 == 0:
        raise NotApplicable(f"girth {g} is even")
    if not 3 <= g <= n:
        raise InvalidParameter(f"need 3 <= girth <= n, got girth={g}, n={n}")
    if p.degree != n:
        raise InvalidParameter(f"polynomial degree {p.degree} does not match n={n}")
    c = p.coefficient(n - g)
    if c % 2 != 0:
        raise InconsistentInput(f"coefficient {c} at x^{n - g} is odd")
    count = -c // 2
    if count <= 0:
        raise InconsistentInput(
            f"coefficient {c} at x^{n - g} yields non-positive count {count}"
        )
    return count
