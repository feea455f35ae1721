import argparse
import glob
import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiverhh.brauer import BGAReport, BrauerGraphError, Check
from quiverhh.exactla import Field
from quiverhh import cli, ppcomplex
from quiverhh.cli import (
    ParseError,
    _print_report,
    algebra_to_text,
    brauer_to_text,
    main,
    parse_algebra,
    parse_brauer,
)

from conftest import ALG_FIXTURES, DATA, Overran, data_text, fixture_algebra, time_limit


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_cli_process(argv, stdout, preexec_fn=None):
    """``python -m quiverhh.cli argv`` in a child process, stderr captured."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "quiverhh.cli"] + argv, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60,
                          preexec_fn=preexec_fn)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
LOOP = "field Q\nvertex e\narrow x: e -> e\n"
ARROW = "field Q\nvertex a b\narrow x: a -> b\n"


def fixture(name):
    return os.path.join(DATA, name)


def golden_text(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def alg_name(path):
    return os.path.basename(path)[:-len(".alg")]


def lines_of(text):
    return dict(
        line.split(": ", 1)
        for line in text.splitlines()
        if ": " in line
    )


class TestAlgebraParsing:
    def test_kronecker_fixture(self):
        field, quiver, rels = parse_algebra(data_text("trivial_ext_kronecker.alg"))
        assert field.char == 0
        assert quiver.vertices == ["e1", "e2"]
        assert quiver.arrow_names == ["b2", "b1", "a2", "a1"]
        assert len(rels) == 10

    def test_colons_in_arrow_names(self):
        field, quiver, rels = parse_algebra(
            "field Q\n"
            "vertex a b\n"
            "arrow v:0: a -> b\n"
            "arrow v:1: b -> a\n"
            "rel v:0*v:1\n")
        assert quiver.arrow_names == ["v:0", "v:1"]
        assert len(rels) == 1

    def test_comments_and_blank_lines(self):
        field, quiver, rels = parse_algebra(
            "# a truncated polynomial ring\n"
            "field GF(3)   # ternary\n"
            "\n"
            "vertex e\n"
            "arrow x: e -> e\n"
            "rel x^3  # nilpotency\n")
        assert field.char == 3
        assert len(rels) == 1

    @pytest.mark.parametrize("text,line,col,fragment", [
        ("field Q\nvertex e\narrow x: e -> f\n", 3, 7, "unknown vertex"),
        ("field Q\nvertex e\narrow x: e -> e\nrel x\n", 4, 5, "length < 2"),
        ("field Q\nvertx e\n", 2, 1, "unknown directive"),
        ("vertex e\n", 1, 1, "missing field"),
        ("field Q\nfield Q\nvertex e\n", 2, 1, "duplicate field"),
        ("field R\nvertex e\n", 1, 7, "expected Q or GF(p)"),
        ("field Q\nvertex e1 e2\narrow a: e1 -> e2\nrel a*a\n",
         4, 7, "not composable"),
        ("field Q\nvertex e\narrow x: e -> e\nrel 2x^2\n",
         4, 5, "needs '*'"),
        ("field Q\nvertex e1 e2\narrow a: e1 -> e2\nrel a^2\n",
         4, 5, "non-loop"),
        ("field Q\nvertex e\narrow x: e -> e\nrel x*x - x*x\n",
         4, 5, "reduces to zero"),
    ])
    def test_errors_carry_position(self, text, line, col, fragment):
        with pytest.raises(ParseError) as exc:
            parse_algebra(text)
        assert exc.value.line == line
        assert exc.value.col == col
        assert fragment in exc.value.message

    def test_loop_power_is_the_explicit_product(self):
        head = "field Q\nvertex e\narrow x: e -> e\n"
        _, _, power = parse_algebra(head + "rel x^2000\n")
        _, _, product = parse_algebra(head + "rel " + "*".join(["x"] * 2000) + "\n")
        assert power == product
        (rel,) = power
        (path,) = rel.terms
        assert path.length == 2000

    def test_loop_power_parses_in_linear_time(self):
        with time_limit(5):
            _, _, rels = parse_algebra(
                "field Q\nvertex e\narrow x: e -> e\nrel x^100000 - x^99999\n")
        assert sorted(p.length for p in rels[0].terms) == [99999, 100000]

    def test_product_of_factors_parses_in_linear_time(self, tmp_path):
        # each factor joins the term without rebuilding the path so far
        alg = tmp_path / "long.alg"
        alg.write_text(LOOP + "rel " + "*".join(["x"] * 200000) + "\n")
        with time_limit(10):
            rc, out, err = run_cli("gb", str(alg))
        assert (rc, err) == (0, "")
        assert lines_of(out)["tip[0]"] == "x^200000"

    @pytest.mark.parametrize("rel,col,message", [
        ("x^1000001", 7, "exponent 1000001 exceeds the path length cap 1000000"),
        ("x^999999*x^2", 14, "path of length 1000001 exceeds the path length cap 1000000"),
    ])
    def test_path_past_the_length_cap_fails(self, rel, col, message):
        with pytest.raises(ParseError) as exc:
            parse_algebra("field Q\nvertex e\narrow x: e -> e\nrel %s\n" % rel)
        assert (exc.value.line, exc.value.col) == (4, col)
        assert exc.value.message == message

    def test_vertex_power_is_trivial(self):
        head = "field Q\nvertex e\narrow x: e -> e\n"
        assert parse_algebra(head + "rel e^5*x^2*e^3\n")[2] == \
            parse_algebra(head + "rel x*x\n")[2]

    @pytest.mark.parametrize("rel,col", [("a^2", 5), ("y*a^3", 7), ("y*a^2*e1", 7)])
    def test_non_loop_power_fails_at_its_factor(self, rel, col):
        with pytest.raises(ParseError) as exc:
            parse_algebra("field Q\nvertex e1 e2\narrow a: e1 -> e2\n"
                          "arrow y: e2 -> e2\nrel %s\n" % rel)
        assert (exc.value.line, exc.value.col) == (5, col)
        assert exc.value.message == "power of a non-loop path"

    def test_first_power_of_a_non_loop_arrow_is_the_arrow(self):
        head = "field Q\nvertex e1 e2\narrow a: e1 -> e2\narrow y: e2 -> e2\n"
        assert parse_algebra(head + "rel y*a^1\n")[2] == parse_algebra(head + "rel y*a\n")[2]

    @pytest.mark.parametrize("name", [
        "trivial_ext_kronecker.alg", "x_cubed_f3.alg", "x_cubed_q.alg",
        "loops_char2.alg", "commuting_loops.alg"])
    def test_round_trip(self, name):
        field, quiver, rels = parse_algebra(data_text(name))
        again_field, again_quiver, again_rels = parse_algebra(
            algebra_to_text(field, quiver, rels))
        assert again_field.char == field.char
        assert again_quiver.vertices == quiver.vertices
        assert again_quiver.arrow_names == quiver.arrow_names
        assert again_quiver.arrow_src == quiver.arrow_src
        assert again_quiver.arrow_tgt == quiver.arrow_tgt
        assert again_rels == rels


class TestBrauerParsing:
    @pytest.mark.parametrize("name", [
        "path_graph_113.bg", "single_edge_23.bg", "single_loop.bg",
        "kronecker_ext.bg"])
    def test_round_trip(self, name):
        field, graph = parse_brauer(data_text(name))
        again_field, again = parse_brauer(brauer_to_text(field, graph))
        assert again_field.char == field.char
        assert again.vertex_names == graph.vertex_names
        assert again.mult == graph.mult
        assert again.edges == graph.edges
        assert again.cyclic == graph.cyclic

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ParseError) as exc:
            parse_brauer("field Q\nvertex v mult 2\nedge e v w\n")
        assert exc.value.line == 3
        assert "unknown vertex" in exc.value.message

    def test_graph_errors_surface(self):
        # structural validation happens in the graph constructor
        with pytest.raises(BrauerGraphError, match="connected"):
            parse_brauer(
                "field Q\n"
                "vertex u mult 1\nvertex v mult 1\nvertex w mult 2\n"
                "edge e u v\nedge f u v\n"
                "cyclic u: e f\ncyclic v: e f\n")

    @pytest.mark.parametrize("cyclic,line,col,message", [
        ("cyclic v:  e   g f\ncyclic w: f e\n", 6, 16, "unknown half-edge 'g' at 'v'"),
        ("cyclic v: e e\ncyclic w: f e\n", 6, 8,
         "cyclic order at 'v' must list each incident half-edge exactly once"),
        ("cyclic w: f e\n", 2, 8, "vertex 'v' needs an explicit cyclic order"),
    ])
    def test_cyclic_order_faults_are_positioned(self, cyclic, line, col, message):
        # at the offending token, the vertex's cyclic line, or its vertex
        # line when it has no cyclic line
        with pytest.raises(ParseError) as exc:
            parse_brauer("field Q\nvertex v mult 1\nvertex w mult 2\n"
                         "edge e v w\nedge f v w\n" + cyclic)
        assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


class TestSubcommands:
    def test_gb(self):
        rc, out, _ = run_cli("gb", fixture("trivial_ext_kronecker.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["field"] == "Q"
        assert got["size"] == "8"
        assert got["closure-added"] == "0"
        assert sum(1 for l in out.splitlines() if l.startswith("gb[")) == 8
        assert sum(1 for l in out.splitlines() if l.startswith("tip[")) == 8

    def test_basis(self):
        rc, out, _ = run_cli("basis", fixture("trivial_ext_kronecker.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["dim"] == "8"
        assert got["basis[0]"] == "e1"
        assert sum(1 for l in out.splitlines() if l.startswith("basis[")) == 8

    def test_hh_kronecker(self):
        rc, out, _ = run_cli("hh", fixture("trivial_ext_kronecker.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["hh0"] == "3"
        assert got["hh1"] == "4"
        assert got["h[0]"] == "(b2,a2) - (a1,b1)"
        assert got["h[1]"] == "(b1,b1) + (a1,a1)"
        assert got["[h0,h2]"] == "-2*h3"
        assert got["[h0,h3]"] == "-h0"
        assert got["[h2,h3]"] == "h2"
        assert got["derived"] == "4,3,3"
        assert got["solvable"] == "false"
        assert got["homogeneous"] == "true"
        assert got["L[-1]"] == "0"
        assert got["L[0,0]"] == "2"
        assert got["L[0]"] == "4"
        assert "loop[" not in out

    def test_hh_cube_char3(self):
        rc, out, _ = run_cli("hh", fixture("x_cubed_f3.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["field"] == "GF(3)"
        assert got["hh1"] == "3"
        assert got["[h0,h1]"] == "h0"
        assert got["[h0,h2]"] == "2*h1"
        assert got["[h1,h2]"] == "h2"
        assert got["derived"] == "3,3"
        assert got["L[-1]"] == "1"
        assert got["loop[x]"] == "power=3 char-ok=false"

    def test_hh_cube_char0(self):
        rc, out, _ = run_cli("hh", fixture("x_cubed_q.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["hh1"] == "2"
        assert got["derived"] == "2,1,0"
        assert got["solvable"] == "true"
        assert got["loop[x]"] == "power=3 char-ok=true"

    def test_chains(self):
        rc, out, _ = run_cli("chains", "--n", "2",
                             fixture("commuting_loops.alg"))
        assert rc == 0
        assert out.splitlines() == [
            "W[-1]: 1", "W[0]: 2", "W[1]: 3", "W[2]: 4"]

    def test_oracle_agrees(self):
        rc, out, _ = run_cli("oracle", fixture("loops_char2.alg"))
        assert rc == 0
        got = lines_of(out)
        assert got["pp-hh1"] == got["bar-hh1"] == "10"
        assert got["pp-derived"] == got["bar-derived"] == "10,9,7,6,2,0"
        assert got["verdict"] == "AGREE"

    @pytest.mark.parametrize("bar_dims,bar_derived,verdict", [
        ((6, 11), [11, 9, 7, 6, 2, 0], "hh1 pp=10 bar=11, derived[0] pp=10 bar=11"),
        ((5, 10), [10, 9, 7, 6, 2, 0], "hh0 pp=6 bar=5"),
        ((6, 10), [10, 9, 8, 6, 2, 0], "derived[2] pp=7 bar=8"),
        ((6, 10), [10, 9, 7, 6, 2, 0, 0], "derived[6] pp=- bar=0"),
    ])
    def test_oracle_disagree_names_what_differs(self, monkeypatch, bar_dims, bar_derived,
                                                verdict):
        monkeypatch.setattr(cli, "bar_hh_dims", lambda algebra, sl: bar_dims)
        monkeypatch.setattr(cli, "bar_derived_series", lambda algebra, sl: bar_derived)
        rc, out, _ = run_cli("oracle", fixture("loops_char2.alg"))
        assert rc == 1
        assert out.splitlines()[-1] == "verdict: DISAGREE (%s)" % verdict

    def test_bga_emits_parseable_algebra(self):
        rc, out, _ = run_cli("bga", fixture("path_graph_113.bg"))
        assert rc == 0
        field, quiver, rels = parse_algebra(out)
        assert quiver.vertices == ["e1", "e2"]
        assert quiver.arrow_names == ["v2:0", "v2:1", "v3:0"]
        assert len(rels) == 6

    def test_bga_gr_flag(self):
        rc, out, _ = run_cli("bga", "--gr", fixture("path_graph_113.bg"))
        assert rc == 0
        assert "rel v2:0*v2:1" in out.splitlines()
        assert not any("v3:0^3" in l for l in out.splitlines())

    def test_report(self):
        rc, out, _ = run_cli("report", fixture("path_graph_113.bg"))
        assert rc == 0
        got = lines_of(out)
        assert got["dimA"] == got["dimGr"] == "8"
        assert got["hh1A"] == "3"
        assert got["hh1Gr"] == "4"
        assert got["gamma"] == "2"
        assert got["status"] == "PASS"
        assert got["check[relations-form-gb]"] == "ok"

    def test_report_skips(self):
        rc, out, _ = run_cli("report", fixture("kronecker_ext.bg"))
        assert rc == 0
        got = lines_of(out)
        assert got["check[solvable]"].startswith("skipped")
        rc, out, _ = run_cli("report", fixture("single_loop.bg"))
        assert rc == 0
        got = lines_of(out)
        assert got["check[hh1-formula-no-loops]"].startswith("skipped")

    def test_report_corpus(self):
        rc, out, _ = run_cli("report", "--corpus", "--size", "3")
        assert rc == 0
        body = out.splitlines()
        assert body[-1] == "corpus: PASS"
        assert all(" status=PASS" in l for l in body[:-1])
        assert len(body) >= 4


class TestGolden:
    """Full stdout, captured before the path map and bracket table existed;
    dim19_bga (`bga tests/data/loop_mult1_val3_dim19.bg`, an inhomogeneous
    ideal) before the graded pieces were read off ranks; the five data
    fixtures before the pair spaces were read off the parallel-path index;
    k[x,y]/(x^6,y^6) over Q and GF(3), the largest graded Lie steps, before
    one antisymmetric rule served every bracket; qplane_q, whose HH1 basis
    and brackets have non-integral coefficients, while every Q scalar was
    a Fraction."""

    @pytest.mark.parametrize("path", [
        os.path.join(GOLDEN, "qplane_q.alg"),
        os.path.join(GOLDEN, "xy4_q.alg"),
        os.path.join(GOLDEN, "xy4_gf2.alg"),
        os.path.join(GOLDEN, "dim19_bga.alg"),
        os.path.join(GOLDEN, "xy6_q.alg"),
        os.path.join(GOLDEN, "xy6_gf3.alg"),
        fixture("commuting_loops.alg"),
        fixture("loops_char2.alg"),
        fixture("trivial_ext_kronecker.alg"),
        fixture("x_cubed_f3.alg"),
        fixture("x_cubed_q.alg"),
    ], ids=alg_name)
    def test_hh_stdout(self, path):
        rc, out, err = run_cli("hh", path)
        assert (rc, err) == (0, "")
        with open(os.path.join(GOLDEN, alg_name(path) + ".hh.out"), encoding="utf-8") as fh:
            assert out == fh.read()


class TestGoldenCompletion:
    """Full stdout, captured before the tip index existed: algebras whose
    completion adjoins elements, and two corpus graphs.  The single loop
    over GF(2) and GF(3), on which gr(A) is A, was captured before the
    report shared A's analysis with gr(A)."""

    @pytest.mark.parametrize("name", ["sampled_loops_q", "sampled_loops_gf3"])
    @pytest.mark.parametrize("command", ["gb", "hh"])
    def test_adjoining_completion_stdout(self, name, command):
        rc, out, err = run_cli(command, fixture(name + ".alg"))
        assert (rc, err) == (0, "")
        with open(os.path.join(GOLDEN, "%s.%s.out" % (name, command)), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_fixtures_adjoin_elements(self):
        for name in ("sampled_loops_q", "sampled_loops_gf3"):
            _, out, _ = run_cli("gb", fixture(name + ".alg"))
            assert int(lines_of(out)["closure-added"]) > 0

    @pytest.mark.parametrize("name", ["corpus_g06", "corpus_g12",
                                      "single_loop_gf2", "single_loop_gf3"])
    def test_report_stdout(self, name):
        rc, out, err = run_cli("report", os.path.join(GOLDEN, name + ".bg"))
        assert (rc, err) == (0, "")
        with open(os.path.join(GOLDEN, name + ".report.out"), encoding="utf-8") as fh:
            assert out == fh.read()


class TestGoldenFractions:
    """Full `gb` stdout of qplane_q (k<x,y>/(yx - 2xy, 3x^3 - y^2, x^4)
    over Q), captured while every Q scalar was a Fraction: completion
    divides by 3 and adjoins an element, so the basis prints a fraction."""

    def test_gb_stdout(self):
        rc, out, err = run_cli("gb", os.path.join(GOLDEN, "qplane_q.alg"))
        assert (rc, err) == (0, "")
        assert out == golden_text("qplane_q.gb.out")
        assert "1/3" in out


class TestGoldenOracle:
    """Full `oracle` stdout, captured before the bar oracle read sparse
    products and eliminated each differential once; for the algebras
    after xy4_q, before the pair spaces were read off the parallel-path
    index; qplane_q while every Q scalar was a Fraction; xy6_q and
    xy6_gf3 while D1 held a row for every composable pair of B+."""

    @pytest.mark.parametrize("path", [
        os.path.join(GOLDEN, "qplane_q.alg"),
        fixture("sampled_loops_q.alg"),
        fixture("sampled_loops_gf3.alg"),
        os.path.join(GOLDEN, "xy4_q.alg"),
        os.path.join(GOLDEN, "xy4_gf2.alg"),
        os.path.join(GOLDEN, "dim19_bga.alg"),
        fixture("commuting_loops.alg"),
        fixture("loops_char2.alg"),
        fixture("trivial_ext_kronecker.alg"),
        fixture("x_cubed_f3.alg"),
        fixture("x_cubed_q.alg"),
        os.path.join(GOLDEN, "xy6_q.alg"),
        os.path.join(GOLDEN, "xy6_gf3.alg"),
    ], ids=alg_name)
    def test_oracle_stdout(self, path):
        rc, out, err = run_cli("oracle", path)
        assert (rc, err) == (0, "")
        with open(os.path.join(GOLDEN, alg_name(path) + ".oracle.out"), encoding="utf-8") as fh:
            assert out == fh.read()


class TestOracleMemory:
    def test_xy10_fits_in_120_mb_of_address_space(self, tmp_path):
        # k[x,y]/(x^10,y^10): a D1 row for every composable pair of B+ would
        # be 980,100 rows, and eliminating them overran 160 MB of address
        # space; the 9,900 arrow rows need about 45 MB
        alg = tmp_path / "xy10.alg"
        alg.write_text("field Q\nvertex e\narrow x: e -> e\narrow y: e -> e\n"
                       "rel x*y - y*x\nrel x^10\nrel y^10\n")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (120 << 20, 120 << 20))

        proc = run_cli_process(["oracle", str(alg)], subprocess.PIPE, preexec_fn=limit)
        assert (proc.returncode, proc.stderr) == (0, b"")
        got = lines_of(proc.stdout.decode())
        assert (got["pp-hh0"], got["bar-hh1"], got["verdict"]) == ("100", "180", "AGREE")

    def test_xy12_fits_in_60_mb_of_address_space(self, tmp_path):
        # k[x,y]/(x^12,y^12): eliminating the 41,184 arrow rows over all
        # 20,592 columns of C1 needed 72 MB of address space; on the 288
        # arrow columns the whole oracle fits in 50 MB
        alg = tmp_path / "xy12.alg"
        alg.write_text("field Q\nvertex e\narrow x: e -> e\narrow y: e -> e\n"
                       "rel x*y - y*x\nrel x^12\nrel y^12\n")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (60 << 20, 60 << 20))

        proc = run_cli_process(["oracle", str(alg)], subprocess.PIPE, preexec_fn=limit)
        assert (proc.returncode, proc.stderr) == (0, b"")
        got = lines_of(proc.stdout.decode())
        assert (got["bar-hh0"], got["bar-hh1"], got["verdict"]) == ("144", "264", "AGREE")


class TestOracleWithoutHH1:
    def test_derived_series_is_0_on_both_routes(self, tmp_path):
        # a single arrow between two vertices: HH1 = 0 on both routes, so
        # neither derived series brackets anything
        alg = tmp_path / "arrow.alg"
        alg.write_text(ARROW)
        rc, out, err = run_cli("oracle", str(alg))
        assert (rc, err) == (0, "")
        got = lines_of(out)
        assert (got["pp-hh1"], got["bar-hh1"]) == ("0", "0")
        assert (got["pp-derived"], got["bar-derived"]) == ("0", "0")
        assert got["verdict"] == "AGREE"


class TestGoldenBga:
    """Full `bga` and `bga --gr` stdout for every Brauer graph in the data
    directory, captured before `bga` built its relations the way `report`
    does.  single_edge_11 is the one-edge graph with no relations."""

    @pytest.mark.parametrize("name", sorted(
        os.path.basename(p)[:-len(".bg")] for p in glob.glob(os.path.join(DATA, "*.bg"))))
    @pytest.mark.parametrize("flags,suffix", [([], "bga"), (["--gr"], "bga-gr")],
                             ids=["bga", "bga-gr"])
    def test_bga_stdout(self, name, flags, suffix):
        rc, out, err = run_cli("bga", *flags, fixture(name + ".bg"))
        assert (rc, err) == (0, "")
        with open(os.path.join(GOLDEN, "%s.%s.out" % (name, suffix)), encoding="utf-8") as fh:
            assert out == fh.read()


class TestConsistency:
    """The Brauer pipeline and the emitted algebra file agree."""

    @pytest.mark.parametrize("name,key", [
        ("path_graph_113.bg", "hh1A"),
        ("single_edge_23.bg", "hh1A"),
        ("single_loop.bg", "hh1A"),
    ])
    def test_bga_then_hh_matches_report(self, tmp_path, name, key):
        rc, report_out, _ = run_cli("report", fixture(name))
        assert rc == 0
        rep = lines_of(report_out)

        rc, alg_text, _ = run_cli("bga", fixture(name))
        assert rc == 0
        alg = tmp_path / "emitted.alg"
        alg.write_text(alg_text)
        rc, hh_out, _ = run_cli("hh", str(alg))
        assert rc == 0
        assert lines_of(hh_out)["hh1"] == rep[key]

        rc, gr_text, _ = run_cli("bga", "--gr", fixture(name))
        assert rc == 0
        alg.write_text(gr_text)
        rc, hh_out, _ = run_cli("hh", str(alg))
        assert rc == 0
        assert lines_of(hh_out)["hh1"] == rep["hh1Gr"]


class TestHH0ByRankNullity:
    """hh and oracle print dim HH0 = dim Ker psi0 as |Q0//B| - dim Im psi0,
    reusing the Im psi0 that HH1 needs, and never call compute_hh0."""

    @pytest.mark.parametrize("name", ALG_FIXTURES)
    def test_hh0_equals_compute_hh0(self, name, monkeypatch):
        want = ppcomplex.compute_hh0(fixture_algebra(name))[0]

        def refuse(*args):
            raise AssertionError("compute_hh0 called")

        monkeypatch.setattr(ppcomplex, "compute_hh0", refuse)
        # a module that binds compute_hh0 by name calls its own binding
        monkeypatch.setattr(cli, "compute_hh0", refuse, raising=False)
        for cmd, key in (("hh", "hh0"), ("oracle", "pp-hh0")):
            rc, out, _ = run_cli(cmd, fixture(name))
            assert rc == 0 and lines_of(out)[key] == str(want), (cmd, name)


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("field Q\nvertx e\n")
        rc, _, err = run_cli("gb", str(bad))
        assert rc == 2
        assert "line 2, col 1" in err

    def test_huge_exponent_is_2_before_the_path_is_built(self, tmp_path):
        # x^99999999 would be a path of 10^8 arrows, far past the 512 MB
        # address space the child gets
        alg = tmp_path / "huge.alg"
        alg.write_text("field Q\nvertex e\narrow x: e -> e\nrel x^99999999\n")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = run_cli_process(["gb", str(alg)], subprocess.PIPE, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (b"error: line 4, col 7: exponent 99999999 exceeds "
                               b"the path length cap 1000000\n")

    def test_file_of_long_terms_is_2_before_its_paths_are_built(self, tmp_path):
        # 150 terms, each under the cap, would spell out 1.5 * 10^8 arrows
        alg = tmp_path / "long.alg"
        terms = " + ".join("x^%d" % (999999 - i) for i in range(150))
        alg.write_text("field Q\nvertex e\narrow x: e -> e\nrel %s\n" % terms)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = run_cli_process(["gb", str(alg)], subprocess.PIPE, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (b"error: line 4, col 18: relations spell out 1999997 arrows "
                               b"in all, past the path length cap 1000000\n")

    @pytest.mark.parametrize("argv", [
        ["bga"], ["bga", "--gr"], ["report", "--max-basis", "1000000000"],
    ], ids=["bga", "bga-gr", "report"])
    def test_brauer_multiplicity_is_2_before_its_paths_are_built(self, tmp_path, argv):
        # C_v1(a)^(10^8) would be a path of 10^8 arrows, far past the 512 MB
        # address space the child gets; dim A = 10^8 + 1 is under the report cap
        bg = tmp_path / "big.bg"
        bg.write_text("field Q\nvertex v1 mult 100000000\nvertex v2 mult 1\nedge a v1 v2\n")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        proc = run_cli_process(argv + [str(bg)], subprocess.PIPE, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (b"error: type I and II relations spell out 100000001 arrows "
                               b"in all, past the path length cap 1000000\n")

    @pytest.mark.parametrize("text, col", [
        ("rel x^600000\nrel x^400001\n", 7),
        ("rel x^600000\nrel x^2*x^400000\n", 9),
        ("rel x^999999\nrel x*x\n", 7),
    ])
    def test_arrows_of_a_file_are_capped_in_all(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_algebra("field Q\nvertex e\narrow x: e -> e\n" + text)
        assert (exc.value.line, exc.value.col) == (5, col)
        assert "past the path length cap 1000000" in exc.value.message

    def test_arrows_up_to_the_cap_parse(self):
        _, _, rels = parse_algebra("field Q\nvertex e\narrow x: e -> e\n"
                                   "rel x^600000\nrel x^2*x^399998\n")
        assert [p.length for r in rels for p in r.terms] == [600000, 400000]

    @pytest.mark.parametrize("argv", [
        # all of stdout fits the buffer: the write fails at the final flush
        ["hh", fixture("trivial_ext_kronecker.alg")],
        # 20,000 lines of "W[i]: 0": a write fails mid-run
        ["chains", "--n", "20000", "path.alg"],
    ], ids=["at-flush", "mid-run"])
    def test_closed_pipe_is_0_and_silent(self, argv, tmp_path):
        alg = tmp_path / "path.alg"
        alg.write_text("field Q\nvertex u v w\narrow a: u -> v\narrow b: v -> w\nrel b*a\n")
        argv = [str(alg) if a == "path.alg" else a for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli_process(argv, write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_graph_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.bg"
        bad.write_text(
            "field Q\nvertex u mult 1\nvertex v mult 1\nvertex w mult 2\n"
            "edge e u v\nedge f u v\ncyclic u: e f\ncyclic v: e f\n")
        rc, _, err = run_cli("report", str(bad))
        assert rc == 2
        assert "connected" in err

    def test_missing_file_is_2(self):
        rc, _, err = run_cli("gb", "/no/such/file.alg")
        assert rc == 2
        assert "error" in err

    def test_completion_cap_is_3(self, tmp_path):
        alg = tmp_path / "wild.alg"
        alg.write_text(
            "field Q\nvertex e\narrow y: e -> e\narrow x: e -> e\n"
            "rel x^2 - x*y\n")
        rc, _, err = run_cli("gb", "--max-tip-len", "6", str(alg))
        assert rc == 3
        assert "tip length cap" in err

    def test_infinite_dimension_is_3(self, tmp_path):
        alg = tmp_path / "free.alg"
        alg.write_text(
            "field Q\nvertex e\narrow y: e -> e\narrow x: e -> e\n"
            "rel x*y\n")
        rc, _, err = run_cli("basis", "--max-basis", "50", str(alg))
        assert rc == 3
        assert "not finite dimensional" in err

    def test_completion_cap_names_cap_and_tip_length(self, tmp_path):
        alg = tmp_path / "wild.alg"
        alg.write_text(
            "field Q\nvertex e\narrow y: e -> e\narrow x: e -> e\n"
            "rel x^2 - x*y\n")
        rc, _, err = run_cli("gb", "--max-tip-len", "6", str(alg))
        assert rc == 3
        assert err == ("error: completion exceeded the tip length cap --max-tip-len 6: "
                       "an adjoined element has a tip of length 7 "
                       "(offender x*y^5*x - x*y^6)\n")

    def test_chains_cap_names_cap_level_and_paths_held(self):
        # x^3 = 0 has one i-chain of i+1 paths per level: W[-1..446] hold
        # 1 + 447*448/2 = 100129 paths
        with time_limit(5):
            rc, out, err = run_cli("chains", "--n", "100000", fixture("x_cubed_q.alg"))
        assert (rc, out) == (3, "")
        assert err == ("error: chain sets exceed --max-basis 100000: the paths held "
                       "reached 100129 while building W[446]\n")

    @pytest.mark.parametrize("cap,rc", [(16, 0), (15, 3)])
    def test_chains_below_the_cap_prints_every_level(self, cap, rc):
        # W[-1..4] of x^3 = 0 hold 1 + 1 + 2 + 3 + 4 + 5 = 16 paths
        got = run_cli("chains", "--n", "4", "--max-basis", str(cap), fixture("x_cubed_q.alg"))
        if rc == 0:
            assert got == (0, "".join("W[%d]: 1\n" % i for i in range(-1, 5)), "")
        else:
            assert got == (3, "", "error: chain sets exceed --max-basis 15: the paths "
                                  "held reached 16 while building W[4]\n")

    def test_chains_past_a_long_loop_power_is_0(self, tmp_path):
        # the tip v1:0^992 brings a Uf-graph node for each of its 991 proper
        # prefixes; the successors of all of them ran for minutes
        alg = tmp_path / "power.alg"
        alg.write_text("field Q\nvertex a\narrow v1:0: a -> a\narrow v1:1: a -> a\n"
                       "rel v1:1*v1:0 - v1:0*v1:1\nrel v1:0*v1:1*v1:0\n"
                       "rel v1:1*v1:0*v1:1\nrel v1:0^992\nrel v1:1^2\n")
        with time_limit(20):
            got = run_cli("chains", "--n", "2", "--max-basis", "60", "--max-tip-len", "20",
                          str(alg))
        assert got == (0, "W[-1]: 1\nW[0]: 2\nW[1]: 4\nW[2]: 8\n", "")

    @pytest.mark.parametrize("text,cap,reached", [
        (golden_text("xy4_q.alg"), 10, 13),
        # the trivial paths count too
        (ARROW, 1, 2),
    ])
    def test_basis_cap_names_cap_and_paths_reached(self, tmp_path, text, cap, reached):
        alg = tmp_path / "input.alg"
        alg.write_text(text)
        rc, out, err = run_cli("basis", "--max-basis", str(cap), str(alg))
        assert (rc, out) == (3, "")
        assert err == ("error: quotient algebra dimension exceeds --max-basis %d: "
                       "NonTip enumeration reached %d paths\n" % (cap, reached))

    def test_basis_cap_builds_no_more_than_the_cap(self, tmp_path):
        # the third NonTip level counts 1.7 million paths; built in full,
        # they would overrun the 300 MB address space the child gets
        alg = tmp_path / "loops.alg"
        alg.write_text("field Q\nvertex v\n"
                       + "".join("arrow x%d: v -> v\n" % i for i in range(120))
                       + "rel x0*x0\n")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

        proc = run_cli_process(["basis", str(alg)], subprocess.PIPE, preexec_fn=limit)
        assert (proc.returncode, proc.stdout) == (3, b"")
        assert proc.stderr == (b"error: quotient algebra dimension exceeds --max-basis 100000: "
                               b"NonTip enumeration reached 1742281 paths\n")

    @pytest.mark.parametrize("text,window,reached", [
        ("vertex e\narrow x: e -> e\n", "x", 3),
        ("vertex u\nvertex v\narrow a: u -> v\narrow b: v -> u\n", "a", 8),
    ])
    def test_proven_infinite_is_3_at_once(self, tmp_path, text, window, reached):
        alg = tmp_path / "infinite.alg"
        alg.write_text("field Q\n" + text)
        with time_limit(20):
            rc, out, err = run_cli("hh", str(alg))
        assert (rc, out) == (3, "")
        assert err == ("error: quotient algebra is not finite dimensional: proven infinite, "
                       "a NonTip path repeats the window %s and the stretch between the "
                       "repeats pumps (stopped at %d paths, --max-basis 100000)\n"
                       % (window, reached))

    @pytest.mark.parametrize("text,argv,dim", [
        ("field Q\nvertex v1 mult 10000000\nvertex v2 mult 1\nedge a v1 v2\n",
         [], 10000001),
        (data_text("loop_mult1_val3_dim19.bg"), ["--max-basis", "18"], 19),
    ])
    def test_report_dimension_cap_is_3_before_building(self, tmp_path, text, argv, dim):
        bg = tmp_path / "graph.bg"
        bg.write_text(text)
        cap = int(argv[1]) if argv else 100000
        with time_limit(5):
            rc, out, err = run_cli("report", *argv, str(bg))
        assert (rc, out) == (3, "")
        assert err == ("error: Brauer graph algebra dimension exceeds --max-basis %d: "
                       "the graph gives dimension %d\n" % (cap, dim))

    def test_finite_control_is_0(self):
        with time_limit(20):
            rc, out, err = run_cli("hh", fixture("x_cubed_q.alg"))
        assert (rc, err) == (0, "")
        assert lines_of(out)["dim"] == "3"

    def test_failed_check_reports_1(self):
        rep = BGAReport(
            graph=None, field=Field(0), dim_a=0, dim_gr=0, dim_hh1_a=0,
            dim_hh1_gr=0, dim_l00_a=0, dim_l00_gr=0, gamma=1, s2=0,
            solvable_a=True, solvable_gr=True, derived_a=[0], derived_gr=[0],
            closure_added_a=0,
            checks=[Check("demo", "fail", "1 vs 2")])
        rep.graph = type("G", (), {"vertex_names": [], "edges": []})()
        sink = []
        assert _print_report(rep, sink.append) == 1
        assert "check[demo]: fail (1 vs 2)" in sink
        assert sink[-1] == "status: FAIL"

    def test_internal_error_is_4(self, monkeypatch):
        def broken(args, out):
            raise RuntimeError("no such state\nsecond line")

        monkeypatch.setattr(cli, "cmd_hh", broken)
        rc, out, err = run_cli("hh", fixture("x_cubed_q.alg"))
        assert (rc, out) == (4, "")
        assert err == "error: internal error: RuntimeError: no such state second line\n"
        assert "Traceback" not in err

    def test_report_needs_input(self):
        with pytest.raises(SystemExit):
            run_cli("report")

    @pytest.mark.parametrize("argv,message", [
        (["chains", "--n", "-5", fixture("x_cubed_q.alg")],
         "error: argument --n: must be at least -1, got -5"),
        (["report", "--corpus", "--size", "0"],
         "error: argument --size: must be at least 1, got 0"),
        (["basis", "--max-basis", "-1", os.path.join(GOLDEN, "xy4_q.alg")],
         "error: argument --max-basis: must be at least 1, got -1"),
        (["report", "--max-basis", "0", fixture("single_loop.bg")],
         "error: argument --max-basis: must be at least 1, got 0"),
        (["gb", "--max-tip-len", "-3", os.path.join(GOLDEN, "xy4_q.alg")],
         "error: argument --max-tip-len: must be at least 1, got -3"),
        (["hh", "--max-tip-len", "0", os.path.join(GOLDEN, "xy4_q.alg")],
         "error: argument --max-tip-len: must be at least 1, got 0"),
        # gb builds no basis, so it takes no basis cap
        (["gb", "--max-basis", "1", os.path.join(GOLDEN, "xy4_q.alg")],
         "error: unrecognized arguments: --max-basis"),
    ])
    def test_out_of_range_argument_is_2(self, argv, message):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert out.getvalue() == ""
        assert message in err.getvalue()


EDGE = "field Q\nvertex v mult 1\nedge e v v\n"


class TestParseErrorsThroughMain:
    @pytest.mark.parametrize("suffix,text,message", [
        (".alg", "field Q\nvertex\n", "line 2, col 1: vertex line needs at least one name"),
        (".alg", LOOP + "rel\n", "line 4, col 1: empty relation"),
        (".alg", "field Q\n", "line 1, col 1: no vertices declared"),
        (".alg", "field GF(1)\nvertex e\n",
         "line 1, col 7: field characteristic must be 0 or prime, got 1"),
        # a trailing operator is the one way a factor meets the end of input
        (".alg", LOOP + "rel x*x -\n", "line 4, col 10: expected a vertex or arrow name"),
        (".alg", LOOP + "rel x*x *\n", "line 4, col 10: expected a vertex or arrow name"),
        (".alg", LOOP + "rel x*x^\n", "line 4, col 9: exponent must be a positive integer"),
        (".bg", EDGE + "cyclic v:\n", "line 4, col 1: empty cyclic ordering"),
        (".bg", "field Q\nvertex 9v mult 1\n", "line 2, col 8: bad vertex name '9v'"),
        (".alg", "field Q\nvertex 1a\n", "line 2, col 8: bad vertex name '1a'"),
    ])
    def test_exit_2_at_the_position(self, tmp_path, suffix, text, message):
        path = tmp_path / ("input" + suffix)
        path.write_text(text)
        argv = ["report"] if suffix == ".bg" else ["gb"]
        assert run_cli(*argv, str(path)) == (2, "", "error: %s\n" % message)


MIXED_QUIVER = "field Q\nvertex e1 e2\narrow b2: e1 -> e2\narrow b1: e2 -> e1\n"


class TestMixedEndpoints:
    """A relation whose paths have different endpoints stands for its
    parts e_j r e_i: here b1*b2 at e2 and b2*b1 at e1."""

    @pytest.mark.parametrize("argv", [
        ["gb"], ["basis"], ["hh"], ["oracle"], ["chains", "--n", "4"]])
    def test_relation_reads_as_its_parts(self, tmp_path, argv):
        mixed, parts = tmp_path / "mixed.alg", tmp_path / "parts.alg"
        mixed.write_text(MIXED_QUIVER + "rel b1*b2 + b2*b1\n")
        parts.write_text(MIXED_QUIVER + "rel b1*b2\nrel b2*b1\n")
        got = run_cli(*argv, str(mixed))
        assert got == run_cli(*argv, str(parts))
        assert got[0] == 0

    def test_basis_has_dimension_four(self, tmp_path):
        mixed = tmp_path / "mixed.alg"
        mixed.write_text(MIXED_QUIVER + "rel b1*b2 + b2*b1\n")
        rc, out, _ = run_cli("basis", str(mixed))
        assert (rc, lines_of(out)["dim"]) == (0, "4")


def reference_parser(command=None):
    """The parser of all seven subparsers that main once built for every
    argv, handlers in its defaults: main's output, whichever parser it
    builds, must match what it gives."""
    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="Hochschild cohomology of quiver algebras "
                    "and Brauer graph algebras, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p, basis=True):
        p.add_argument("--max-tip-len", type=cli._int_at_least(1),
                       default=cli.DEFAULT_MAX_TIP_LENGTH,
                       help="abort completion past this tip length")
        if basis:
            p.add_argument("--max-basis", type=cli._int_at_least(1),
                           default=cli.DEFAULT_MAX_BASIS,
                           help="abort basis enumeration past this size")

    p = sub.add_parser("gb", help="reduced noncommutative Groebner basis")
    p.add_argument("file", help="algebra file")
    add_caps(p, basis=False)
    p.set_defaults(func=cli.cmd_gb)

    p = sub.add_parser("basis", help="monomial basis of the quotient")
    p.add_argument("file", help="algebra file")
    add_caps(p)
    p.set_defaults(func=cli.cmd_basis)

    p = sub.add_parser("hh", help="HH0, HH1 with Lie structure and grading")
    p.add_argument("file", help="algebra file")
    add_caps(p)
    p.set_defaults(func=cli.cmd_hh)

    p = sub.add_parser("chains", help="sizes of the chain sets W(i)")
    p.add_argument("file", help="algebra file")
    p.add_argument("--n", type=cli._int_at_least(-1), required=True,
                   help="highest chain degree, at least -1")
    add_caps(p)
    p.set_defaults(func=cli.cmd_chains)

    p = sub.add_parser("oracle", help="cross-check HH against the bar resolution")
    p.add_argument("file", help="algebra file")
    add_caps(p)
    p.set_defaults(func=cli.cmd_oracle)

    p = sub.add_parser("bga", help="emit the algebra file of a Brauer graph")
    p.add_argument("file", help="Brauer graph file")
    p.add_argument("--gr", action="store_true",
                   help="emit the associated graded algebra instead")
    p.set_defaults(func=cli.cmd_bga)

    p = sub.add_parser("report", help="invariant report for a Brauer graph")
    p.add_argument("file", nargs="?", help="Brauer graph file")
    p.add_argument("--corpus", action="store_true",
                   help="run the seeded random corpus instead of a file")
    p.add_argument("--seed", type=int, default=cli.DEFAULT_SEED,
                   help="corpus seed")
    p.add_argument("--size", type=cli._int_at_least(1, cli.MAX_CORPUS_SIZE), default=20,
                   help="corpus size, 1 to %d" % cli.MAX_CORPUS_SIZE)
    add_caps(p)
    p.set_defaults(func=cli.cmd_report)
    return parser


def run_main(argv):
    """(exit code, stdout, stderr) of main(argv), an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


COMMANDS = ["gb", "basis", "hh", "chains", "oracle", "bga", "report"]
ALG, BG = fixture("x_cubed_q.alg"), fixture("single_loop.bg")


class TestParser:
    """main builds the parser of the one command argv[0] names; help, usage,
    error text and exit codes stay those of the parser of all seven."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["nope"], ["HH", ALG], ["-x"], ["-x", "hh", ALG],
        ["--", "hh", ALG], ["hh", ALG, "--bogus"], ["hh", "--bogus", ALG],
        ["report"], ["report", BG, BG], ["chains", ALG], ["chains", "--n", "-5", ALG],
        ["chains", "--n", "x", ALG], ["report", "--corpus", "--size", "0"],
        ["report", "--seed", "abc", "--corpus"], ["basis", "--max-basis", "-1", ALG],
        ["gb", "--max-basis", "1", ALG], ["gb", "--max-tip-len", "x", ALG],
        ["bga", "--gr"], ["hh", "-h", ALG], ["report", "-h", "--corpus"],
        ["hh", ALG], ["chains", "--n", "3", ALG], ["bga", BG, "--gr"], ["report", BG],
        ["report", "--corpus", "--size", "2"], ["report", "--corpus", "--size", "100001"],
    ] + [[c, "-h"] for c in COMMANDS] + [[c] for c in COMMANDS])
    def test_output_matches_the_full_parser(self, monkeypatch, argv):
        # argparse wraps help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        got = run_main(argv)
        monkeypatch.setattr(cli, "build_parser", reference_parser)
        assert got == run_main(argv)

    @pytest.mark.parametrize("argv,built", [
        (["hh", "-h"], 2), (["hh", ALG], 2), (["report"], 2), (["bga", "--gr"], 2),
        ([], 8), (["-h"], 8), (["nope"], 8), (["--", "hh", ALG], 8),
    ])
    def test_a_known_command_builds_its_parser_alone(self, monkeypatch, argv, built):
        init, calls = argparse.ArgumentParser.__init__, []

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        run_main(argv)
        assert len(calls) == built


class TestCorpusSizeCap:
    """report --corpus refuses a --size past MAX_CORPUS_SIZE before it
    draws a graph: corpus() builds them all before the first line."""

    def test_past_the_cap_exits_2_before_any_graph(self, monkeypatch):
        drawn, real = [], cli.corpus

        def recorded(**kwargs):
            drawn.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(cli, "corpus", recorded)
        size = cli.MAX_CORPUS_SIZE + 1
        with time_limit(1, Overran):
            rc, out, err = run_main(["report", "--corpus", "--size", str(size)])
        assert (rc, out, drawn) == (2, "", [])
        assert err.splitlines()[-1] == ("quiverhh report: error: argument --size: "
                                        "must be at most 100000, got 100001")

    def test_the_cap_parses(self):
        parser = cli.build_parser("report")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        size = next(a for a in sub.choices["report"]._actions if a.dest == "size")
        assert size.type(str(cli.MAX_CORPUS_SIZE)) == cli.MAX_CORPUS_SIZE == 100000
        with pytest.raises(argparse.ArgumentTypeError):
            size.type(str(cli.MAX_CORPUS_SIZE + 1))
