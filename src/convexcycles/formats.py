"""graph6 and plain edge-list text formats.

graph6 packs the upper triangle of the adjacency matrix, column by column,
into 6-bit groups offset by 63; the short header covers n <= 62 and the
'~'-prefixed long headers cover larger orders.  The edge-list format is one
"u v" pair per line with '#' comments; the vertex count is taken to be
1 + the largest endpoint mentioned, and may not exceed the largest order a
4-byte graph6 header holds.  Lines end only at '\n' (a '\r' before it is
dropped), and tokens are separated only by spaces and tabs; a graph6 line
sheds only the same blanks and its line end.

An edge list is checked edge by edge in `Graph()`.  A graph6 line is
decoded straight into sorted neighbor lists and frozen by the trusted
builder `Graph._from_sorted`: every set bit is one pair u < v < n, so
the decoded graph has no fault for `Graph()` to find.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graphs import Graph

GRAPH6_HEADER = ">>graph6<<"
# Largest order the 4-byte graph6 size header holds: '~' and three 6-bit
# groups, the first below 63 so that it cannot read as the '~~' marker.  An
# edge list implies its order from its largest label, so one stray label
# could otherwise allocate millions of adjacency lists; it gets this limit.
FOUR_BYTE_MAX_ORDER = 258047

_OUTSIDE_ALPHABET = re.compile(r"[^?-~]")
_ALPHABET = bytes(range(63, 127))
_BLANKS = re.compile("[ \t]+")
_FROM_GRAPH6 = bytes((c - 63) % 256 for c in range(256))
_TO_GRAPH6 = bytes((c + 63) % 256 for c in range(256))
_NONZERO = re.compile(rb"[^\x00]")
# offsets, most significant first, of the set bits of each 6-bit group
_SET_BITS = tuple(
    tuple(j for j in range(6) if group >> (5 - j) & 1) for group in range(64)
)


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, index of first payload byte)."""
    if not data:
        raise ParseError("empty graph6 line")
    if data[0] < 63:
        n = data[0]
        if n > 62:
            raise ParseError(f"short-form order {n} exceeds 62")
        return n, 1
    # long forms: '~' + 3 bytes (18 bits), '~~' + 6 bytes (36 bits)
    if len(data) >= 2 and data[1] == 63:
        if len(data) < 8:
            raise ParseError("truncated 8-byte graph6 size header")
        n = 0
        for b in data[2:8]:
            n = (n << 6) | b
        return n, 8
    if len(data) < 4:
        raise ParseError("truncated 4-byte graph6 size header")
    n = (data[1] << 12) | (data[2] << 6) | data[3]
    return n, 4


def _graph6_line(text: str) -> str:
    return text.removesuffix("\n").removesuffix("\r").strip(" \t")


def _in_alphabet(s: str) -> bool:
    """Whether every character of s lies in graph6's '?'..'~'."""
    return s.isascii() and not s.encode("ascii").translate(None, _ALPHABET)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a labeled graph.

    The neighbor lists are filled in the decode loop and frozen by
    `Graph._from_sorted`, unchecked; the payload length is checked before
    any per-vertex list is allocated.
    """
    line = _graph6_line(text)
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise ParseError("empty graph6 line")
    if not _in_alphabet(line):
        bad = _OUTSIDE_ALPHABET.search(line).group()
        raise ParseError(f"character {bad!r} outside the graph6 alphabet")
    data = line.encode("ascii").translate(_FROM_GRAPH6)
    # the '~' marker itself decodes to 63, only legal inside the size header
    n, start = _decode_size(data)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    payload = data[start:]
    if len(payload) < need:
        raise ParseError(f"graph6 payload too short: {len(payload)} bytes, need {need}")
    if len(payload) > need:
        raise ParseError(f"graph6 payload too long: {len(payload)} bytes, need {need}")
    # bit b of the payload is the pair (u, v), u < v, with b = row + u for
    # column v's first bit row = v(v-1)/2; set bits come in increasing
    # order, so the column only moves on; bits at or past nbits are padding.
    # Each list comes out sorted: vertex x gets its neighbors u < x in
    # increasing u during column x, then its neighbors v > x in increasing
    # v in the later columns.  Each bit is one pair u < v < n, so no list
    # holds a loop, a repeat or a label out of range.
    neighbors: list = [[] for _ in range(n)]
    row, v = 0, 1
    for match in _NONZERO.finditer(payload):
        i = match.start()
        for offset in _SET_BITS[payload[i]]:
            b = 6 * i + offset
            if b >= nbits:
                break
            while b - row >= v:
                row += v
                v += 1
            u = b - row
            neighbors[u].append(v)
            neighbors[v].append(u)
    return Graph._from_sorted(neighbors)


def _encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= FOUR_BYTE_MAX_ORDER:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ParseError(f"order {n} exceeds the graph6 limit")


def write_graph6(g: Graph) -> str:
    """Encode a labeled graph as one graph6 line (no trailing newline)."""
    payload = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for v, nbrs in enumerate(g.adjacency):
        row = v * (v - 1) // 2
        # adjacency lists are sorted, so the neighbors below v come first
        for u in nbrs:
            if u >= v:
                break
            b = row + u
            payload[b // 6] |= 32 >> b % 6
    return _encode_size(g.n) + payload.translate(_TO_GRAPH6).decode("ascii")


def _lines(text: str) -> list[str]:
    """Lines split at '\n' only, each without a trailing '\r'.  Unlike
    str.splitlines, no other control or Unicode separator ends a line."""
    return [line.removesuffix("\r") for line in text.split("\n")]


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines; '#' starts a comment, blank lines are skipped."""
    edges = []
    top = -1
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        parts = _BLANKS.split(line)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer endpoint in {raw!r}") from exc
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex in {raw!r}")
        if max(u, v) >= FOUR_BYTE_MAX_ORDER:
            raise ParseError(
                f"line {lineno}: vertex {max(u, v)} implies order above {FOUR_BYTE_MAX_ORDER}"
            )
        # int() also accepts signs, underscores and non-ASCII digits; this
        # check comes last so that the refusals above keep their messages
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ParseError(f"line {lineno}: endpoint not in ASCII digits in {raw!r}")
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1, edges)


def looks_like_graph6(line: str) -> bool:
    s = _graph6_line(line)
    if s.startswith(GRAPH6_HEADER):
        return True
    return bool(s) and _in_alphabet(s)


def load_graph_text(text: str) -> Graph:
    """Auto-detect graph6 versus edge-list and parse accordingly.

    graph6 input is taken from the first non-blank line; edge-list input
    consumes the whole text.
    """
    for raw in _lines(text):
        line = raw.strip(" \t")
        if not line:
            continue
        # digits, spaces, and '#' all fall outside the graph6 alphabet, so
        # edge-list lines can never be mistaken for graph6
        if looks_like_graph6(line):
            return parse_graph6(line)
        break
    return parse_edge_list(text)
