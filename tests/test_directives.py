"""The directive reader both file grammars share, the integer literal
cap, and the Brauer edge/vertex name clash.

Every case that exits 2 here names its line and column: the reader owns
the comment, ``field`` and unknown-directive rules for both grammars, and
every integer literal (coefficient, exponent, multiplicity) is refused
past ``MAX_LITERAL_DIGITS`` before ``int()`` reads it.
"""

import pytest

from quiverhh.cli import (
    MAX_LITERAL_DIGITS, ParseError, algebra_to_text, brauer_to_text, parse_algebra, parse_brauer,
)
from quiverhh.exactla import parse_field

from conftest import time_limit
from test_cli import run_cli

ALG_BODY = "vertex e\narrow x: e -> e\nrel x^3\n"
BG_BODY = "vertex v1 mult 2\nvertex v2 mult 1\nedge a v1 v2\n"
GRAMMARS = [(parse_algebra, ALG_BODY), (parse_brauer, BG_BODY)]
GRAMMAR_IDS = ["alg", "bg"]

BIG = "1" + "0" * 4999  # 5000 digits, past int()'s own limit of 4300
CAP_MESSAGE = "integer literal of 5000 digits exceeds the cap of 4000 digits"
BIG_MULT = "field Q\nvertex v1 mult %s\nvertex v2 mult 1\nedge a v1 v2\n" % BIG


class TestReaderErrorsInBothGrammars:
    @pytest.mark.parametrize("parse,body", GRAMMARS, ids=GRAMMAR_IDS)
    @pytest.mark.parametrize("text,line,col,message", [
        ("field Q\n{body}  frobnicate x\n", 5, 3, "unknown directive 'frobnicate'"),
        ("# no field\n\n{body}", 1, 1, "missing field line"),
        ("field Q\n{body}  field GF(2)  # again\n", 5, 3, "duplicate field line"),
    ], ids=["unknown", "missing-field", "duplicate-field"])
    def test_position_and_message(self, parse, body, text, line, col, message):
        with pytest.raises(ParseError) as exc:
            parse(text.format(body=body))
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)

    @pytest.mark.parametrize("parse,body", GRAMMARS, ids=GRAMMAR_IDS)
    def test_first_fault_in_file_order_wins(self, parse, body):
        # an unknown directive before a duplicate field line is reported first
        with pytest.raises(ParseError) as exc:
            parse("field Q\n" + body + "bogus\nfield Q\n")
        assert (exc.value.line, exc.value.message) == (5, "unknown directive 'bogus'")

    @pytest.mark.parametrize("parse,body,to_text", [
        (parse_algebra, ALG_BODY, algebra_to_text),
        (parse_brauer, BG_BODY, brauer_to_text),
    ], ids=GRAMMAR_IDS)
    def test_comments_blank_lines_and_indentation(self, parse, body, to_text):
        plain = to_text(*parse("field GF(3)\n" + body))
        text = "# header\n\n  field   GF(3)   # comment\n" + "".join(
            "\t%s  # note\n\n" % line for line in body.splitlines())
        assert to_text(*parse(text)) == plain
        assert plain.startswith("field GF(3)\n")


class TestLiteralCap:
    @pytest.mark.parametrize("argv,suffix,text,line,col,message", [
        (["gb"], ".alg", "field Q\nvertex e\narrow x: e -> e\nrel x^3 - %s*x^2\n" % BIG,
         4, 11, CAP_MESSAGE),
        (["hh"], ".alg", "field Q\nvertex e\narrow x: e -> e\nrel x^%s\n" % BIG,
         4, 7, CAP_MESSAGE),
        (["report"], ".bg", BIG_MULT, 2, 16, CAP_MESSAGE),
        (["bga"], ".bg", BIG_MULT, 2, 16, CAP_MESSAGE),
        (["gb"], ".alg", "field GF(%s)\nvertex e\n" % BIG,
         1, 7, "field characteristic %s exceeds the cap 2^31" % BIG),
    ], ids=["coefficient", "exponent", "mult-report", "mult-bga", "field"])
    def test_cli_exits_2_with_position_and_cap(self, tmp_path, argv, suffix, text,
                                               line, col, message):
        path = tmp_path / ("big" + suffix)
        path.write_text(text)
        with time_limit(5):
            got = run_cli(*argv, str(path))
        assert got == (2, "", "error: line %d, col %d: %s\n" % (line, col, message))

    def test_leading_zeros_count_toward_the_cap(self):
        with pytest.raises(ParseError) as exc:
            parse_algebra("field Q\nvertex e\narrow x: e -> e\nrel %s2*x^2\n" % ("0" * 4000))
        assert (exc.value.line, exc.value.col) == (4, 5)
        assert exc.value.message == (
            "integer literal of 4001 digits exceeds the cap of 4000 digits")

    def test_a_literal_at_the_cap_parses(self):
        at_cap = "9" * MAX_LITERAL_DIGITS
        _, _, (rel,) = parse_algebra(
            "field Q\nvertex e\narrow x: e -> e\nrel x^3 - %s*x^2\n" % at_cap)
        assert sorted(rel.terms.values()) == [-int(at_cap), 1]

    def test_multiplicity_at_the_cap_reaches_the_caps_after_parsing(self, tmp_path):
        # dim A and the arrows of R1 and R2 both have about 4000 digits:
        # report stops at its dimension cap and bga at the path length cap
        mult = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
        path = tmp_path / "huge.bg"
        path.write_text("field Q\nvertex v1 mult %s\nvertex v2 mult 1\nedge a v1 v2\n" % mult)
        with time_limit(5):
            rc, out, err = run_cli("report", str(path))
        assert (rc, out) == (3, "")
        assert err.startswith("error: Brauer graph algebra dimension exceeds --max-basis 100000: "
                              "the graph gives dimension 1000")
        with time_limit(5):
            rc, out, err = run_cli("bga", str(path))
        assert (rc, out) == (2, "")
        assert err.startswith("error: type I and II relations spell out 1000")
        assert err.endswith(" arrows in all, past the path length cap 1000000\n")

    @pytest.mark.parametrize("inner", ["9" * 11, "9" * 5000, "0" * 20 + "1" + "0" * 10],
                             ids=["11-digits", "5000-digits", "11-after-zeros"])
    def test_field_characteristic_is_refused_by_its_digits(self, inner):
        with time_limit(2), pytest.raises(ValueError, match=r"exceeds the cap 2\^31"):
            parse_field("GF(%s)" % inner)

    def test_leading_zeros_of_a_characteristic_are_not_significant(self):
        assert parse_field("GF(%s7)" % ("0" * 5000)).char == 7

    @pytest.mark.parametrize("text", ["GF(²)", "GF(٣)"])
    def test_field_characteristic_digits_are_ascii(self, text):
        with pytest.raises(ValueError, match="unrecognized field"):
            parse_field(text)

    @pytest.mark.parametrize("mult", ["²", "٣", "0"])
    def test_multiplicity_digits_are_ascii_and_positive(self, mult):
        with pytest.raises(ParseError) as exc:
            parse_brauer("field Q\nvertex v1 mult %s\n" % mult)
        assert (exc.value.line, exc.value.col) == (2, 8)
        assert exc.value.message == "multiplicity must be a positive integer"


class TestNameClash:
    @pytest.mark.parametrize("text,line,col,name", [
        # an edge named after a vertex declared before it
        ("field Q\nvertex v mult 1\nvertex v2 mult 1\nedge v v v2\n", 4, 6, "v"),
        # a vertex named after an edge declared before it
        ("field Q\nvertex v mult 1\nvertex w mult 1\nedge a v w\nvertex a mult 1\n", 5, 8, "a"),
    ], ids=["edge-after-vertex", "vertex-after-edge"])
    def test_clash_is_positioned(self, tmp_path, text, line, col, name):
        with pytest.raises(ParseError) as exc:
            parse_brauer(text)
        assert (exc.value.line, exc.value.col) == (line, col)
        assert exc.value.message == "duplicate name %r" % name
        path = tmp_path / "clash.bg"
        path.write_text(text)
        for command in ("report", "bga"):
            assert run_cli(command, str(path)) == (
                2, "", "error: line %d, col %d: duplicate name %r\n" % (line, col, name))

    def test_clash_is_reported_before_later_lines(self):
        # the clash is found on its own line, ahead of a fault further down
        with pytest.raises(ParseError) as exc:
            parse_brauer("field Q\nvertex v mult 1\nvertex v2 mult 1\nedge v v v2\nbogus\n")
        assert (exc.value.line, exc.value.message) == (4, "duplicate name 'v'")
