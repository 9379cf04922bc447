"""Exact integer characteristic polynomials and coefficient-based counting
of shortest cycles.

char_poly runs the division-free Berkowitz recurrence over Python integers,
so every coefficient is exact at any order.  expand_factored multiplies
binomial powers; large products go through decimal Kronecker substitution:
each polynomial is packed into one exact Decimal with a fixed number of
decimal digits per coefficient, the two are multiplied once (libmpdec uses a
number-theoretic transform for huge operands, where int multiplication is
Karatsuba), and the coefficients are read back from the product's digits.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from math import comb

from .errors import InconsistentInput, InvalidParameter, NotApplicable, ParseError
from .graphs import Graph

# Exact integer arithmetic on Decimals of any size, in a private context so
# the caller's decimal settings neither apply nor change.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; coeffs[j] multiplies x**j."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InvalidParameter("a polynomial needs at least one coefficient")

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

    @classmethod
    def from_text(cls, text: str) -> "IntPolynomial":
        coeffs = []
        for tok in text.split():
            digits = tok[1:] if tok[0] in "+-" else tok
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(f"non-integer coefficient {tok[:40]!r}")
            coeffs.append(-_int(digits) if tok[0] == "-" else _int(digits))
        if not coeffs:
            raise ParseError("empty polynomial text")
        return cls(tuple(coeffs))


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


def _schoolbook_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def _digits(value: int) -> str:
    """str(value) for an int of any size, '-' included when negative.
    str(value) refuses ints past the interpreter's str-digits limit; the
    Decimal conversion does not."""
    return str(Decimal(value))


def _int(digits: str) -> int:
    """int(digits) for a digit string of any length.  int() refuses strings
    longer than sys.get_int_max_str_digits() (4300 by default, 0 meaning no
    limit, absent before Python 3.10.7), so longer ones are read in chunks
    of that many digits."""
    step = getattr(sys, "get_int_max_str_digits", int)() or len(digits) or 1
    value = 0
    for i in range(0, len(digits), step):
        chunk = digits[i:i + step]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _pack_decimal(coeffs: list[int], width: int) -> Decimal:
    """sum(c * 10**(width*i) for i, c in enumerate(coeffs)) as an exact
    Decimal: the positive and the negated negative coefficients are written
    as zero-padded width-digit slots, highest power first, and subtracted."""
    zero = "0" * width
    pos = "".join(
        _digits(c).zfill(width) if c > 0 else zero for c in reversed(coeffs)
    )
    neg = "".join(
        _digits(-c).zfill(width) if c < 0 else zero for c in reversed(coeffs)
    )
    return _EXACT.subtract(Decimal(pos), Decimal(neg))


def _kronecker_mul(p: list[int], q: list[int]) -> list[int]:
    """Multiply by decimal Kronecker substitution, signs included.

    Every product coefficient is at most sum|p| * sum|q| in magnitude, which
    is below half of 10**width, so each one is the balanced residue of its
    width-digit slot plus the carry the slot below it borrowed."""
    width = len(_digits(sum(map(abs, p)) * sum(map(abs, q)))) + 1
    product = _EXACT.multiply(_pack_decimal(p, width), _pack_decimal(q, width))
    digits = str(_EXACT.abs(product))
    sign = -1 if product.is_signed() else 1
    full = 10 ** width
    half = full // 2
    out = []
    carry = 0
    end = len(digits)
    for _ in range(len(p) + len(q) - 1):
        start = max(0, end - width)
        c = carry + sign * _int(digits[start:end])
        end = start
        if c >= half:
            c -= full
            carry = 1
        elif c < -half:
            c += full
            carry = -1
        else:
            carry = 0
        out.append(c)
    return out


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    if min(len(p), len(q)) <= 16:
        return _schoolbook_mul(p, q)
    return _kronecker_mul(p, q)


def _binomial_power(root: int, multiplicity: int) -> list[int]:
    """(x - root)**multiplicity as an ascending coefficient list."""
    powers = [1]
    for _ in range(multiplicity):
        powers.append(powers[-1] * -root)
    return [
        comb(multiplicity, j) * powers[multiplicity - j]
        for j in range(multiplicity + 1)
    ]


def expand_factored(factors: list[tuple[int, int]]) -> IntPolynomial:
    """Expand a product of integer-root powers prod (x - a)**k exactly."""
    expanded = []
    for root, multiplicity in factors:
        if multiplicity < 1:
            raise InvalidParameter(
                f"multiplicity must be >= 1, got {multiplicity} for root {root}"
            )
        expanded.append(_binomial_power(root, multiplicity))
    if not expanded:
        return IntPolynomial((1,))
    expanded.sort(key=len)
    acc = expanded[0]
    for poly in expanded[1:]:
        acc = _poly_mul(acc, poly)
    return IntPolynomial(tuple(acc))


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
