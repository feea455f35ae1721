"""Both file grammars on generated inputs: the writers and readers are
inverse on random Brauer graphs and their algebras, and mutated texts keep
the exit-code contract (0 ok, 1 a disagreement, 2 bad input, 3 a cap).

A bad input names its line and column.  The errors raised after parsing
stay unpositioned: the structural Brauer graph checks and the Brauer path
length cap.  A valid result prints in full, however long its coefficients
grow.
"""

import io
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from quiverhh.brauer import random_brauer_graph, relations
from quiverhh.cli import algebra_to_text, brauer_to_text, main, parse_algebra, parse_brauer
from quiverhh.exactla import Field

from conftest import time_limit

FIELDS = [Field(0), Field(2), Field(3)]
seeds = st.integers(0, 2 ** 31)
fields = st.sampled_from(FIELDS)

# facts of the whole graph, with no one line to point at: a fault of one
# vertex's cyclic order is positioned at that line
UNPOSITIONED = (
    "not connected", "needs at least one edge", "type I and II relations spell out",
)
_POSITION = re.compile(r"error: line \d+, col \d+: ")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_.:]*|[0-9]+|\S")
# small caps keep the algebras a mutated input reaches small
CAPS = ["--max-basis", "60", "--max-tip-len", "20"]


def graph(seed):
    return random_brauer_graph(random.Random(seed), max_dim=40)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, field=fields)
    def test_brauer_graph(self, seed, field):
        g = graph(seed)
        again_field, again = parse_brauer(brauer_to_text(field, g))
        assert again_field == field
        assert again.vertex_names == g.vertex_names
        assert again.mult == g.mult
        assert again.edges == g.edges
        assert again.cyclic == g.cyclic

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, field=fields, graded=st.booleans())
    def test_brauer_graph_algebra(self, seed, field, graded):
        quiver, rels = relations(graph(seed), field, graded)
        again_field, again_quiver, again_rels = parse_algebra(
            algebra_to_text(field, quiver, rels))
        assert again_field == field
        assert again_quiver.vertices == quiver.vertices
        assert again_quiver.arrow_names == quiver.arrow_names
        assert again_quiver.arrow_src == quiver.arrow_src
        assert again_quiver.arrow_tgt == quiver.arrow_tgt
        assert again_rels == rels


def mutate(rng, text):
    """text after 1-3 random edits: drop or duplicate a line or a token,
    or insert a long number, an operator or an unknown name."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [""]
        i = rng.randrange(len(lines))
        line = lines[i]
        spans = [m.span() for m in _TOKEN.finditer(line)] or [(0, 0)]
        a, b = rng.choice(spans)
        kind = rng.randrange(5)
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, line)
        elif kind == 2:
            lines[i] = line[:a] + line[b:]
        elif kind == 3:
            lines[i] = line[:b] + rng.choice(["", " "]) + line[a:b] + line[b:]
        else:
            insert = rng.choice([
                "9" * rng.choice([2, 3, 30, 4001, 5000]), "0", "+", "-", "*", "^", ":",
                "->", "#", "(", "nosuch", "a.3", "mult", "rel", "edge", "vertex"])
            pad = rng.choice(["", " "])
            at = rng.choice([a, b])
            lines[i] = line[:at] + pad + insert + pad + line[at:]
    return "\n".join(lines) + "\n"


def check_contract(tmp_path, text, argv):
    path = tmp_path / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with time_limit(20), redirect_stdout(out), redirect_stderr(err):
        rc = main(argv + [str(path)])
    err = err.getvalue()
    assert "no result within" not in err, (text, argv)
    assert rc in (0, 1, 2, 3), (text, argv, err)
    assert "Traceback" not in err + out.getvalue()
    if rc == 2:
        assert _POSITION.match(err) or any(m in err for m in UNPOSITIONED), (text, argv, err)


class TestMutatedInputs:
    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, field=fields, rng=st.randoms(use_true_random=False),
           argv=st.sampled_from([["report"] + CAPS, ["bga"], ["bga", "--gr"]]))
    def test_brauer_files(self, tmp_path_factory, seed, field, rng, argv):
        text = mutate(rng, brauer_to_text(field, graph(seed)))
        check_contract(tmp_path_factory.mktemp("bg"), text, argv)

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, field=fields, graded=st.booleans(), rng=st.randoms(use_true_random=False),
           argv=st.sampled_from([["gb", "--max-tip-len", "20"], ["basis"] + CAPS,
                                 ["hh"] + CAPS, ["chains", "--n", "2"] + CAPS]))
    def test_algebra_files(self, tmp_path_factory, seed, field, graded, rng, argv):
        text = mutate(rng, algebra_to_text(field, *relations(graph(seed), field, graded)))
        check_contract(tmp_path_factory.mktemp("alg"), text, argv)


class TestLongResults:
    """C has 4,000 digits, under the literal cap; the reduced basis holds
    C^2, past the 4,300 digits CPython converts to text by default."""

    C = "9" * 4000
    C_SQUARED = "9" * 3999 + "8" + "0" * 3999 + "1"
    TEXT = ("field Q\nvertex e\narrow z: e -> e\narrow y: e -> e\narrow x: e -> e\n"
            "rel x^2 - %s*y^2\nrel y^2 - %s*z^2\n" % (C, C)
            + "".join("rel %s\n" % m for m in
                      ("x*y", "y*x", "x*z", "z*x", "y*z", "z*y", "z^3")))

    def test_gb_and_hh_print_them(self, tmp_path):
        path = tmp_path / "long.alg"
        path.write_text(self.TEXT)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        for command in ("gb", "hh"):
            out, err = io.StringIO(), io.StringIO()
            with time_limit(20), redirect_stdout(out), redirect_stderr(err):
                rc = main([command, str(path)])
            assert (rc, err.getvalue()) == (0, ""), command
            assert self.C_SQUARED in out.getvalue(), command
            assert limit() == before
