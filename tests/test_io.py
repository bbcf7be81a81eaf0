"""Graph file parsing, emission, and the fixture catalogue."""

import pytest

from signedconn import GraphSyntaxError, VertexOutOfRange
from signedconn.io import FIXTURE_NAMES, emit, fixture, fixtures, parse


class TestParse:
    def test_single_negative_edge(self):
        g = parse("signed-graph n=2\n0 1 -\n")
        assert g == fixture("N2")

    def test_negative_loop(self):
        g = parse("signed-graph n=1\n0 0 -\n")
        assert g == fixture("NEGLOOP")

    def test_comments_and_blank_lines(self):
        g = parse("# a triangle\nsigned-graph n=3\n\n0 1 +\n1 2 +\n# last edge\n2 0 -\n")
        assert g == fixture("T-")

    def test_repeated_lines_are_parallel_edges(self):
        g = parse("signed-graph n=2\n0 1 +\n0 1 +\n")
        assert g.m == 2

    def test_missing_header(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("0 1 +\n")
        assert exc.value.line == 1

    def test_bad_edge_line(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("signed-graph n=2\n0 1 ?\n")
        assert exc.value.line == 2

    def test_vertex_out_of_range_carries_line(self):
        with pytest.raises(VertexOutOfRange) as exc:
            parse("signed-graph n=2\n0 5 +\n")
        assert exc.value.line == 2

    def test_empty_file(self):
        with pytest.raises(GraphSyntaxError):
            parse("")

    def test_vertex_count_above_cap_fails_on_header(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("# too many vertices\nsigned-graph n=1000001\n0 1 +\n")
        assert exc.value.line == 2

    def test_vertex_count_at_cap_parses(self):
        g = parse("signed-graph n=1000000\n0 999999 -\n")
        assert (g.n, g.m) == (10**6, 1)
        assert "adjacency" not in vars(g)  # parsing builds no adjacency


    def test_blank_prefixed_comments_and_tab_separated_lines(self):
        g = parse("  # a comment\n\t# another\nsigned-graph n=3\n   \n0\t1\t+\n 1  2\t+ \n\t2 0 -\n")
        assert g == fixture("T-")

    def test_vertex_count_with_an_underscore_is_refused(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("signed-graph n=1_0\n")
        assert str(exc.value) == "line 1: bad vertex count in 'signed-graph n=1_0'"

    def test_vertex_count_with_a_plus_sign_is_refused(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("# c\nsigned-graph n=+3\n")
        assert str(exc.value) == "line 2: bad vertex count in 'signed-graph n=+3'"

    def test_vertex_minus_zero_is_refused(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("signed-graph n=2\n-0 1 +\n")
        assert str(exc.value) == "line 2: bad vertex in '-0 1 +'"

    def test_vertices_in_arabic_indic_digits_are_refused(self):
        with pytest.raises(GraphSyntaxError) as exc:
            parse("signed-graph n=2\n0 1 +\n\u0660 \u0661 -\n")
        assert str(exc.value) == "line 3: bad vertex in '\u0660 \u0661 -'"

    @pytest.mark.parametrize(
        "text, error, line, message",
        [
            ("  # c\n0 1 +\n", GraphSyntaxError, 2, "expected header 'signed-graph n=<int>'"),
            ("signed-graph n=x\n", GraphSyntaxError, 1, "bad vertex count in 'signed-graph n=x'"),
            ("signed-graph n=-1\n", GraphSyntaxError, 1, "vertex count must be nonnegative"),
            ("  # c\nsigned-graph n=2\n\t0\t1\t*\n", GraphSyntaxError, 3,
             "expected '<u> <v> <+|->', got '0\\t1\\t*'"),
            ("signed-graph n=2\n0 1 +-\n", GraphSyntaxError, 2, "expected '<u> <v> <+|->', got '0 1 +-'"),
            ("signed-graph n=2\n0 1 + +\n", GraphSyntaxError, 2, "expected '<u> <v> <+|->', got '0 1 + +'"),
            ("signed-graph n=2\n  # c\n a 1 -\n", GraphSyntaxError, 3, "bad vertex in 'a 1 -'"),
            ("signed-graph n=2\n\t0\t2\t-\n", VertexOutOfRange, 2, "vertex out of range in '0\\t2\\t-'"),
        ],
    )
    def test_errors_keep_their_messages_and_line_numbers(self, text, error, line, message):
        with pytest.raises(error) as exc:
            parse(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {message}"


class TestRoundTrip:
    def test_emit_parse_identity(self):
        for name in FIXTURE_NAMES:
            g = fixture(name)
            assert parse(emit(g)) == g

    def test_parse_emit_identity_on_canonical_file(self):
        text = emit(fixture("T-"))
        assert emit(parse(text)) == text


class TestFixtures:
    def test_catalogue_is_complete(self):
        assert set(FIXTURE_NAMES) == {
            "P2", "N2", "T+", "T-", "NEGLOOP", "NECK2", "TIGHT",
            "LOOSE", "THETA", "UK4", "DISJB", "C4", "C5",
        }
        assert len(fixtures()) == 13

    def test_shapes(self):
        assert fixture("TIGHT").n == 5 and fixture("TIGHT").m == 6
        assert fixture("LOOSE").n == 6 and fixture("LOOSE").m == 7
        assert fixture("C5").m == 5
