from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given

import convexcycles as cc
from convexcycles import formats

from . import oracles
from .conftest import CORPUS_FILE
from .strategies import graphs

# graph6 lines of K4 wrapped in blanks that an edge-list line may not hold
OTHER_BLANKS = ["\x1cC~\n", "C~\u3000\n", " C~\x0b\n"]

# a long-form line (n = 100) whose first fault is far into the payload
_LONG = cc.write_graph6(cc.gnp_random_graph(100, 0.3, 8))


class TestParseGraph6:
    def test_k2(self):
        g = cc.parse_graph6("A_")
        assert g == cc.Graph(2, [(0, 1)])

    def test_k4(self):
        g = cc.parse_graph6("C~")
        assert g.n == 4 and g.m == 6

    def test_petersen_string(self):
        # validated by invariants rather than by trusting the string
        g = cc.parse_graph6("IsP@OkWHG")
        profile, _ = cc.profile_and_census(g)
        assert g.n == 10
        assert g.m == 15
        assert g.regular_degree() == 3
        assert profile.girth == 5

    def test_header_prefix(self):
        assert cc.parse_graph6(">>graph6<<A_") == cc.parse_graph6("A_")

    def test_empty_graph(self):
        g = cc.parse_graph6("?")
        assert g.n == 0 and g.m == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "A",          # payload missing
            "A__",        # payload too long
            "C~~",        # payload too long
            "A *",        # character below the alphabet
            "~??",        # truncated long header
            "~~????",     # truncated 8-byte header
            *OTHER_BLANKS,
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(cc.ParseError):
            cc.parse_graph6(bad)

    @pytest.mark.parametrize(
        "bad, char",
        [
            ("A *", " "),  # below the alphabet, with a payload of valid length
            ("C~>", ">"),  # one below '?'
            ("A\x7f", "\x7f"),  # one above '~'
            ("A\u00e9", "\u00e9"),  # not ASCII
            (_LONG[:-40] + ">" + _LONG[-39:-1] + "\u00e9", ">"),
        ],
        ids=["space", "gt", "del", "non-ascii", "long-prefix"],
    )
    def test_alphabet_refusal_names_first_bad_character(self, bad, char):
        message = f"character {char!r} outside the graph6 alphabet"
        with pytest.raises(cc.ParseError) as parsed:
            cc.parse_graph6(bad)
        assert str(parsed.value) == message
        # the header marks the line as graph6, so the loader parses it too
        with pytest.raises(cc.ParseError) as loaded:
            cc.load_graph_text(formats.GRAPH6_HEADER + bad + "\n")
        assert str(loaded.value) == message

    def test_forged_order_allocates_nothing(self):
        # 8-byte headers before a one-byte payload; n = 2**20 comes first so
        # that a decoder allocating before the length check fails on tens
        # of MiB before it can try 2**36 - 1 lists
        tracemalloc.start()
        try:
            for n in (2**20, 2**36 - 1):
                tracemalloc.reset_peak()
                with pytest.raises(cc.ParseError, match="payload too short"):
                    cc.parse_graph6(formats._encode_size(n) + "?")
                assert tracemalloc.get_traced_memory()[1] < 2**20, n
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("bad", OTHER_BLANKS)
    def test_load_refuses_other_blanks(self, bad):
        with pytest.raises(cc.ParseError):
            cc.load_graph_text(bad)

    def test_blanks_and_line_end_stripped(self):
        k4 = cc.complete_graph(4)
        assert cc.parse_graph6(" \tC~ \r\n") == k4
        assert cc.load_graph_text(" \tC~ \r\n") == k4


class TestWriteGraph6:
    def test_k2_k4(self):
        assert cc.write_graph6(cc.complete_graph(2)) == "A_"
        assert cc.write_graph6(cc.complete_graph(4)) == "C~"

    def test_roundtrip_random_sizes(self):
        # labeled identity for orders up to 200, including the long form
        for i, n in enumerate([0, 1, 2, 3, 10, 30, 62, 63, 64, 100, 200]):
            g = cc.gnp_random_graph(n, 0.31, 1000 + i)
            assert cc.parse_graph6(cc.write_graph6(g)) == g

    def test_long_form_header(self):
        g = cc.gnp_random_graph(63, 0.2, 5)
        text = cc.write_graph6(g)
        assert text.startswith("~")
        assert cc.parse_graph6(text) == g

    @given(graphs())
    def test_roundtrip(self, g: cc.Graph):
        assert cc.parse_graph6(cc.write_graph6(g)) == g


class TestGraph6AgainstPerBitReference:
    """The set-bit decoder and the adjacency encoder against per-bit and
    per-pair references."""

    @staticmethod
    def check(text: str) -> cc.Graph:
        # the trusted decoder against the checked constructor, whole graphs
        g = cc.parse_graph6(text)
        n, edges = oracles.graph6_per_bit(text)
        expected = cc.Graph(n, sorted(edges))
        assert (g.n, g.m, g.adjacency) == (expected.n, expected.m, expected.adjacency)
        return g

    def test_corpus(self):
        lines = CORPUS_FILE.read_text().split()
        assert len(lines) == 996
        for line in lines:
            self.check(line)

    def test_seeded_graphs_to_300(self):
        # short headers up to n = 62, the 4-byte long form from 63 on
        sizes = [0, 1, 2, 5, 6, 7, 61, 62, 63, 64, 97, 150, 233, 299, 300]
        for i, n in enumerate(sizes):
            for p in (0.0, 0.03, 0.4, 1.0):
                g = cc.gnp_random_graph(n, p, 5000 + 10 * i + int(10 * p))
                text = cc.write_graph6(g)
                assert text == oracles.graph6_per_pair(g)
                assert text.startswith("~") == (n > 62)
                assert self.check(text) == g

    def test_eight_byte_header(self):
        # the 8-byte form for a small order is not what the writer emits,
        # but it is a valid header
        g = cc.petersen_graph()
        text = "~~" + "?????I" + cc.write_graph6(g)[1:]
        assert self.check(text) == g

    def test_set_padding_bit_ignored(self):
        # n = 5 has 10 pair bits in two 6-bit groups; the last two are padding
        g = cc.gnp_random_graph(5, 0.5, 3)
        text = cc.write_graph6(g)
        padded = text[:-1] + chr((ord(text[-1]) - 63 | 0b11) + 63)
        assert padded != text
        assert self.check(padded) == g


class TestEdgeList:
    def test_parse_with_comments(self):
        text = "# a triangle plus a chord target\n0 1\n1 2\n2 0  # closing edge\n\n2 3\n"
        g = cc.parse_edge_list(text)
        assert g.n == 4 and g.m == 4

    def test_vertex_count_is_max_plus_one(self):
        assert cc.parse_edge_list("0 5\n").n == 6

    def test_roundtrip(self):
        g = cc.gnp_random_graph(9, 0.5, 77)
        text = "".join(f"{u} {v}\n" for u, v in g.edge_list)
        assert cc.parse_edge_list(text) == g

    @pytest.mark.parametrize(
        "bad",
        [
            "0\n", "0 1 2\n", "a b\n", "-1 2\n", "0 258047\n",
            "0 1_0\n", "0 +1\n", "0 \u0661\n", "\uff10 \uff12\n",
            # only spaces and tabs separate tokens, only '\n' ends a line
            "0\u30001\n", "0\xa01\n", "0 1\x1c1 2\n", "0 1\u20281 2\n", "0 1\x0b1 2\n",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(cc.ParseError):
            cc.parse_edge_list(bad)
        with pytest.raises(cc.ParseError):
            cc.load_graph_text(bad)

    def test_crlf_tabs_and_comments_of_any_text(self):
        text = "# \x1c\u2028 any text\r\n0\t1\r\n 1  2 # \u3000\x0b\n"
        assert cc.parse_edge_list(text) == cc.Graph(3, [(0, 1), (1, 2)])
        assert cc.load_graph_text(text) == cc.Graph(3, [(0, 1), (1, 2)])

    def test_duplicate_edge_propagates(self):
        with pytest.raises(cc.DuplicateEdge):
            cc.parse_edge_list("0 1\n1 0\n")


class TestAutoDetect:
    def test_graph6_line(self):
        assert cc.load_graph_text("C~\n").m == 6

    def test_edge_list_text(self):
        g = cc.load_graph_text("# comment first\n0 1\n1 2\n")
        assert g.n == 3 and g.m == 2

    def test_header_line(self):
        assert cc.load_graph_text(">>graph6<<A_\n").m == 1

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("C~", True),
            ("?", True),  # 63, the alphabet's first character
            (">>graph6<<C~", True),
            ("C>", False),  # '>' is 62, one below the alphabet
            ("C\x7f", False),  # 127, one above it
            ("C\u00e9", False),  # not ASCII
            ("0 1", False),
            ("", False),
        ],
    )
    def test_looks_like_graph6(self, line, expected):
        assert formats.looks_like_graph6(line) is expected
