"""One message per cap, and the field line's two bounds.

Each exit-3 exception builds its own message, naming the cap by its CLI
flag and the size reached; the CLI prints ``error: <str(exc)>``.  Every
case here is raised from the library and compared with the stderr line
``tests/test_cli.py`` pins for the same input, and with a CLI run.
"""

import os

import pytest

from quiverhh.brauer import DimensionCapExceeded, invariant_report
from quiverhh.cli import ParseError, parse_algebra, parse_brauer
from quiverhh.exactla import Field, parse_field
from quiverhh.groebner import CapExceeded, ChainCapExceeded, Incomplete, complete, uf_chains
from quiverhh.quotient import build_quotient

from conftest import DATA, TESTS, data_text, time_limit
from test_cli import run_cli

GOLDEN = os.path.join(TESTS, "golden")


def completed(text):
    field, quiver, rels = parse_algebra(text)
    return complete(rels, quiver=quiver, field=field)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


WILD = "field Q\nvertex e\narrow y: e -> e\narrow x: e -> e\nrel x^2 - x*y\n"
K_X = "field Q\nvertex e\narrow x: e -> e\n"


def raise_basis_cap():
    build_quotient(completed(read(os.path.join(GOLDEN, "xy4_q.alg"))), max_basis=10)


def raise_proven_infinite():
    build_quotient(completed(K_X))


def raise_tip_length_cap():
    field, quiver, rels = parse_algebra(WILD)
    complete(rels, max_tip_length=6, quiver=quiver, field=field)


def raise_chain_cap():
    uf_chains(completed(data_text("x_cubed_q.alg")), 4, max_basis=15)


def raise_dimension_cap():
    field, graph = parse_brauer(data_text("loop_mult1_val3_dim19.bg"))
    invariant_report(graph, field, max_basis=18)


# (raise the exception, its type, its attributes, the CLI case, the stderr
# line tests/test_cli.py pins for that case)
CASES = {
    "basis": (
        raise_basis_cap, CapExceeded, {"cap": 10, "reached": 13, "window": None},
        ["basis", "--max-basis", "10", os.path.join(GOLDEN, "xy4_q.alg")], None,
        "error: quotient algebra dimension exceeds --max-basis 10: "
        "NonTip enumeration reached 13 paths\n"),
    "infinite": (
        raise_proven_infinite, CapExceeded, {"cap": 100000, "reached": 3},
        ["hh"], K_X,
        "error: quotient algebra is not finite dimensional: proven infinite, "
        "a NonTip path repeats the window x and the stretch between the "
        "repeats pumps (stopped at 3 paths, --max-basis 100000)\n"),
    "tip-length": (
        raise_tip_length_cap, Incomplete, {"cap": 6, "tip_length": 7},
        ["gb", "--max-tip-len", "6"], WILD,
        "error: completion exceeded the tip length cap --max-tip-len 6: "
        "an adjoined element has a tip of length 7 "
        "(offender x*y^5*x - x*y^6)\n"),
    "chains": (
        raise_chain_cap, ChainCapExceeded, {"cap": 15, "reached": 16, "level": 4},
        ["chains", "--n", "4", "--max-basis", "15", os.path.join(DATA, "x_cubed_q.alg")],
        None,
        "error: chain sets exceed --max-basis 15: the paths held reached 16 "
        "while building W[4]\n"),
    "dimension": (
        raise_dimension_cap, DimensionCapExceeded, {"cap": 18, "dim": 19},
        ["report", "--max-basis", "18", os.path.join(DATA, "loop_mult1_val3_dim19.bg")],
        None,
        "error: Brauer graph algebra dimension exceeds --max-basis 18: "
        "the graph gives dimension 19\n"),
}


class TestEachCapStatesItsMessage:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_str_is_the_cli_line(self, name):
        raise_it, kind, attrs, _, _, pinned = CASES[name]
        with time_limit(20), pytest.raises(kind) as info:
            raise_it()
        exc = info.value
        assert "error: %s\n" % exc == pinned
        assert {k: getattr(exc, k) for k in attrs} == attrs

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cli_prints_the_same_line(self, name, tmp_path):
        _, _, _, argv, text, pinned = CASES[name]
        if text is not None:
            path = tmp_path / "case.alg"
            path.write_text(text)
            argv = argv + [str(path)]
        with time_limit(20):
            assert run_cli(*argv) == (3, "", pinned)

    def test_reached_is_required(self):
        with pytest.raises(TypeError):
            CapExceeded(10)


# -- the field line ----------------------------------------------------------

BIG_PRIME = 2 ** 61 - 1


class TestFieldLine:
    def test_gf0_is_not_q(self):
        with pytest.raises(ValueError, match=r"GF\(0\)"):
            parse_field("GF(0)")
        with pytest.raises(ValueError, match=r"GF\(0\)"):
            parse_field("GF( 00 )")

    @pytest.mark.parametrize("p", [1 << 31, 2 ** 31 + 11, BIG_PRIME, 10 ** 40 + 1])
    def test_bound_is_tested_before_primality(self, p):
        with time_limit(2), pytest.raises(ValueError, match="exceeds the cap 2\\^31"):
            parse_field("GF(%d)" % p)
        with time_limit(2), pytest.raises(ValueError, match="exceeds the cap 2\\^31"):
            Field(p)

    def test_largest_prime_below_the_bound_is_a_field(self):
        assert parse_field("GF(2147483647)").char == 2 ** 31 - 1

    @pytest.mark.parametrize("inner", ["0", str(BIG_PRIME)])
    @pytest.mark.parametrize("parse,body", [
        (parse_algebra, "vertex e\narrow x: e -> e\nrel x^3\n"),
        (parse_brauer, "vertex v1 mult 2\nvertex v2 mult 1\nedge a v1 v2\n"),
    ])
    def test_parse_error_names_line_and_column(self, parse, body, inner):
        text = "# a comment\n\nfield   GF(%s)\n" % inner + body
        with time_limit(2), pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.line, info.value.col) == (3, 9)

    @pytest.mark.parametrize("inner,message", [
        ("0", "GF(0) is not a field; write Q for characteristic 0"),
        (str(BIG_PRIME), "field characteristic %d exceeds the cap 2^31" % BIG_PRIME),
    ])
    @pytest.mark.parametrize("argv,suffix,body", [
        (["gb"], ".alg", "vertex e\narrow x: e -> e\nrel x^3\n"),
        (["hh"], ".alg", "vertex e\narrow x: e -> e\nrel x^3\n"),
        (["report"], ".bg", "vertex v1 mult 2\nvertex v2 mult 1\nedge a v1 v2\n"),
    ])
    def test_cli_exits_2_at_once(self, tmp_path, argv, suffix, body, inner, message):
        path = tmp_path / ("field" + suffix)
        path.write_text("field GF(%s)\n" % inner + body)
        with time_limit(2):
            got = run_cli(*argv, str(path))
        assert got == (2, "", "error: line 1, col 7: %s\n" % message)
