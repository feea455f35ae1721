import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiverhh.exactla import Field
from quiverhh.pathalg import format_element
from quiverhh.groebner import complete
from quiverhh.quotient import build_quotient
from quiverhh.ppcomplex import CochainSlice, compute_hh0, lie_presentation
from quiverhh.baroracle import bar_derived_series, bar_hh_dims, build_bar_slice
from quiverhh.cli import brauer_to_text, main, parse_brauer
from quiverhh.brauer import (
    DEFAULT_SEED,
    BrauerGraph,
    BrauerGraphError,
    algebra_dim,
    balanced_components,
    build_quiver_and_cycles,
    corpus,
    count_s2,
    generate_relations,
    gr_relations,
    graded_degree,
    invariant_report,
    is_degenerate,
    is_mult1_double_edge,
    random_brauer_graph,
    type3_pairs,
    unbalanced_edges,
)

from conftest import data_text


def path_113():
    return BrauerGraph(
        [("v1", 1), ("v2", 1), ("v3", 3)],
        [("e1", "v1", "v2"), ("e2", "v2", "v3")],
        {"v2": ["e1", "e2"]})


def single_edge_23():
    return BrauerGraph([("v", 2), ("w", 3)], [("e", "v", "w")], {})


def double_edge():
    return BrauerGraph(
        [("v", 1), ("w", 1)],
        [("a", "v", "w"), ("b", "v", "w")],
        {"v": ["a", "b"], "w": ["a", "b"]})


def single_edge_11():
    return BrauerGraph([("u", 1), ("w", 1)], [("e", "u", "w")], {})


def single_loop():
    return BrauerGraph([("v", 1)], [("e", "v", "v")], {"v": ["e.1", "e.2"]})


class TestValidation:
    def test_disconnected_rejected(self):
        with pytest.raises(BrauerGraphError, match="connected"):
            BrauerGraph([("u", 1), ("v", 1), ("w", 2)],
                        [("e", "u", "v")], {})

    def test_loop_needs_suffixed_tokens(self):
        with pytest.raises(BrauerGraphError, match="unknown half-edge"):
            BrauerGraph([("v", 1)], [("e", "v", "v")], {"v": ["e", "e"]})

    def test_plain_edge_rejects_suffix(self):
        with pytest.raises(BrauerGraphError, match="unknown half-edge"):
            BrauerGraph([("v", 2), ("w", 3)], [("e", "v", "w")],
                        {"v": ["e.1"]})

    def test_missing_cyclic_order(self):
        with pytest.raises(BrauerGraphError, match="cyclic order"):
            BrauerGraph([("v", 1), ("w", 1)],
                        [("a", "v", "w"), ("b", "v", "w")],
                        {"v": ["a", "b"]})

    def test_cyclic_must_cover_all_halves(self):
        with pytest.raises(BrauerGraphError, match="exactly once"):
            BrauerGraph([("v", 1)], [("e", "v", "v")], {"v": ["e.1", "e.1"]})

    def test_single_half_edge_may_omit_cyclic(self):
        g = single_edge_23()
        assert g.cyclic["v"] == [(0, 0)]
        assert g.cyclic["w"] == [(0, 1)]

    def test_duplicate_and_unknown_names(self):
        with pytest.raises(BrauerGraphError, match="duplicate"):
            BrauerGraph([("v", 1), ("v", 2)], [("e", "v", "v")], {})
        with pytest.raises(BrauerGraphError, match="duplicate"):
            BrauerGraph([("v", 2), ("w", 3)],
                        [("e", "v", "w"), ("e", "v", "w")], {})
        with pytest.raises(BrauerGraphError, match="unknown endpoint"):
            BrauerGraph([("v", 1)], [("e", "v", "u")], {})
        with pytest.raises(BrauerGraphError, match="unknown vertex"):
            BrauerGraph([("v", 2), ("w", 3)], [("e", "v", "w")],
                        {"z": ["e"]})

    def test_multiplicity_and_edge_count(self):
        with pytest.raises(BrauerGraphError, match="multiplicity"):
            BrauerGraph([("v", 0)], [("e", "v", "v")], {"v": ["e.1", "e.2"]})
        with pytest.raises(BrauerGraphError, match="at least one edge"):
            BrauerGraph([("v", 2)], [], {})


class TestQuiverConstruction:
    def test_path_graph_quiver(self):
        quiver, cycles = build_quiver_and_cycles(path_113())
        assert quiver.vertices == ["e1", "e2"]
        assert quiver.arrow_names == ["v2:0", "v2:1", "v3:0"]
        ends = [(quiver.vertices[quiver.arrow_src[i]],
                 quiver.vertices[quiver.arrow_tgt[i]])
                for i in range(quiver.n_arrows)]
        assert ends == [("e1", "e2"), ("e2", "e1"), ("e2", "e2")]
        # truncated v1 contributes no cycle
        assert [c.vertex_name for c in cycles] == ["v2", "v3"]

    def test_truncated_nonloop_vertex_keeps_quiver_loop_free(self):
        quiver, _ = build_quiver_and_cycles(single_edge_23())
        assert quiver.vertices == ["e"]
        assert quiver.arrow_names == ["v:0", "w:0"]

    def test_degenerate_single_edge(self):
        g = BrauerGraph([("v", 1), ("w", 1)], [("e", "v", "w")], {})
        quiver, cycles = build_quiver_and_cycles(g)
        assert quiver.n_vertices == 1
        assert quiver.n_arrows == 0
        assert cycles == []


class TestRelations:
    def test_path_graph_a_side(self):
        g = path_113()
        r1, r2, r3 = generate_relations(g, Field(0))
        gb = complete(r1 + r2 + r3)
        assert gb.closure_added == 0
        assert [format_element(x) for x in gb.elements] == [
            "v2:1*v3:0", "v3:0*v2:0", "v2:0*v2:1*v2:0", "v2:1*v2:0*v2:1",
            "v3:0^3 - v2:0*v2:1"]

    def test_path_graph_gr_side(self):
        gb = complete(gr_relations(path_113(), Field(0)))
        assert gb.closure_added == 0
        assert [format_element(x) for x in gb.elements] == [
            "v2:0*v2:1", "v2:1*v3:0", "v3:0*v2:0", "v3:0^4"]

    def test_two_loop_ladder_a_side(self):
        gb = complete(sum(generate_relations(single_edge_23(), Field(0)), []))
        assert [format_element(x) for x in gb.elements] == [
            "v:0*w:0", "w:0*v:0", "v:0^3", "w:0^3 - v:0^2"]

    def test_two_loop_ladder_gr_side(self):
        gb = complete(gr_relations(single_edge_23(), Field(0)))
        assert [format_element(x) for x in gb.elements] == [
            "v:0^2", "v:0*w:0", "w:0*v:0", "w:0^4"]

    def test_double_edge_relation_census(self):
        r1, r2, r3 = generate_relations(double_edge(), Field(0))
        assert (len(r1), len(r2), len(r3)) == (2, 4, 4)
        quiver, cycles = build_quiver_and_cycles(double_edge())
        names = {
            tuple(quiver.arrow_names[a] for a in pair)
            for pair in type3_pairs(quiver, cycles)}
        assert names == {("v:0", "w:1"), ("w:0", "v:1"),
                         ("v:1", "w:0"), ("w:1", "v:0")}

    def test_single_loop_commutation(self):
        rels = sum(generate_relations(single_loop(), Field(0)), [])
        formatted = [format_element(r) for r in rels]
        assert "v:1*v:0 - v:0*v:1" in formatted
        assert "v:0^2" in formatted
        assert "v:1^2" in formatted


class TestGradedCombinatorics:
    def test_degrees_inherit_across_truncated_vertices(self):
        g = path_113()
        assert [graded_degree(g, v) for v in ["v1", "v2", "v3"]] == [2, 2, 3]

    def test_unbalanced_edges_and_components(self):
        g = path_113()
        assert unbalanced_edges(g) == [1]
        gamma, comps = balanced_components(g)
        assert gamma == 2
        assert comps == [["v1", "v2"], ["v3"]]

    def test_balanced_double_edge(self):
        assert balanced_components(double_edge()) == (1, [["v", "w"]])
        assert balanced_components(single_edge_23())[0] == 2
        assert balanced_components(single_loop())[0] == 1


class TestCounts:
    def test_s2_values(self):
        assert count_s2(double_edge()) == 2
        assert count_s2(single_edge_23()) == 1
        assert count_s2(path_113()) == 0

    def test_dimension_formula_matches_quotient(self):
        for g in [path_113(), single_edge_23(), double_edge(), single_loop()]:
            gb = complete(sum(generate_relations(g, Field(0)), []))
            assert algebra_dim(g) == build_quotient(gb).dim

    def test_mult1_double_edge_detection(self):
        assert is_mult1_double_edge(double_edge())
        assert not is_mult1_double_edge(path_113())
        assert not is_mult1_double_edge(single_edge_23())
        assert not is_mult1_double_edge(single_loop())
        uneven = BrauerGraph(
            [("v", 2), ("w", 1)],
            [("a", "v", "w"), ("b", "v", "w")],
            {"v": ["a", "b"], "w": ["a", "b"]})
        assert not is_mult1_double_edge(uneven)


class TestInvariantReport:
    def test_path_graph_values(self):
        rep = invariant_report(path_113(), Field(0))
        assert (rep.dim_a, rep.dim_gr) == (8, 8)
        assert (rep.dim_hh1_a, rep.dim_hh1_gr) == (3, 4)
        assert (rep.dim_l00_a, rep.dim_l00_gr) == (1, 2)
        assert (rep.gamma, rep.s2) == (2, 0)
        assert rep.derived_a == [3, 2, 0]
        assert rep.derived_gr == [4, 2, 0]
        assert rep.closure_added_a == 0
        assert rep.ok
        assert all(c.status == "ok" for c in rep.checks)

    def test_two_loop_ladder_values(self):
        rep = invariant_report(single_edge_23(), Field(0))
        assert (rep.dim_hh1_a, rep.dim_hh1_gr) == (5, 6)
        assert rep.derived_a == [5, 4, 2, 0]
        assert rep.derived_gr == [6, 4, 1, 0]
        assert (rep.dim_l00_a, rep.dim_l00_gr) == (1, 2)
        assert rep.s2 == 1
        assert all(c.status == "ok" for c in rep.checks)

    def test_double_edge_skips_solvability(self):
        rep = invariant_report(double_edge(), Field(0))
        assert (rep.dim_hh1_a, rep.dim_hh1_gr) == (4, 4)
        assert rep.derived_a == [4, 3, 3]
        assert not rep.solvable_a
        statim = {c.name: c.status for c in rep.checks}
        assert statim["solvable"] == "skipped"
        assert statim["hh1-formula-no-loops"] == "ok"
        assert rep.ok

    def test_loop_graph_skips_formula(self):
        rep = invariant_report(single_loop(), Field(0))
        assert (rep.dim_hh1_a, rep.dim_hh1_gr) == (4, 4)
        status = {c.name: c.status for c in rep.checks}
        assert status["hh1-formula-no-loops"] == "skipped"
        assert status["solvable"] == "ok"

    def test_degenerate_single_edge_skips_formulas(self, tmp_path):
        graph = single_edge_11()
        assert is_degenerate(graph)
        rep = invariant_report(graph, Field(0))
        assert (rep.dim_a, rep.dim_gr, rep.dim_hh1_a, rep.dim_hh1_gr) == (1, 1, 0, 0)
        assert algebra_dim(graph) == 1
        status = {c.name: c.status for c in rep.checks}
        for name in ["l00-dim", "l00-dim-gr", "hh1-difference",
                     "hh1-formula-no-loops"]:
            assert status[name] == "skipped"
        assert rep.ok
        path = tmp_path / "edge.bg"
        path.write_text(brauer_to_text(Field(0), graph))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(["report", str(path)])
        assert (rc, err.getvalue()) == (0, "")
        assert out.getvalue().splitlines()[-1] == "status: PASS"

    def test_characteristic_gate(self):
        rep = invariant_report(single_edge_23(), Field(2))
        status = {c.name: c.status for c in rep.checks}
        assert status["relations-form-gb"] == "ok"
        for name in ["l00-dim", "l00-dim-gr", "hh1-difference",
                     "hh1-formula-no-loops", "solvable"]:
            assert status[name] == "hypothesis-failed"
        # gr side truncates the short loop at an even power
        assert ("v:0", 2, True) in rep.loop_char_gr
        assert rep.ok  # hypothesis failures are not formula failures


class TestHh1DifferenceFixture:
    """Graphs on which check[hh1-difference] fails, each with a loop at a
    vertex of multiplicity 1 and valency >= 3.  The values are those the
    parallel-path and bar routes both give; the check's verdict is left out."""

    @staticmethod
    def both_routes(name, expected_a, expected_gr, gamma):
        """expected_a and expected_gr are (dim, HH0, HH1, derived series)."""
        field, graph = parse_brauer(data_text(name))
        quiver, _ = build_quiver_and_cycles(graph)
        for rels, expected in [(sum(generate_relations(graph, field), []), expected_a),
                               (gr_relations(graph, field), expected_gr)]:
            alg = build_quotient(complete(rels, quiver=quiver, field=field))
            sl = CochainSlice(alg)
            pres = lie_presentation(alg, sl)
            pp = (alg.dim, compute_hh0(alg, sl)[0], pres.dim, list(pres.derived_dims))
            bar = build_bar_slice(alg)
            bar_hh0, bar_hh1 = bar_hh_dims(alg, bar)
            assert pp == expected
            assert (alg.dim, bar_hh0, bar_hh1, list(bar_derived_series(alg, bar))) == expected
        # the exact dimension is within the cap: the check before building
        # compares with the same dim the NonTip enumeration reaches
        rep = invariant_report(graph, field, max_basis=expected_a[0])
        assert (rep.dim_a, rep.dim_gr, rep.dim_hh1_a, rep.dim_hh1_gr) == (
            expected_a[0], expected_gr[0], expected_a[2], expected_gr[2])
        assert (rep.derived_a, rep.derived_gr, rep.gamma) == (
            expected_a[3], expected_gr[3], gamma)

    def test_both_routes_on_a_and_gr(self):
        """The smallest graph found, of dimension 19."""
        self.both_routes("loop_mult1_val3_dim19.bg",
                         (19, 7, 5, [5, 3, 0]), (19, 7, 8, [8, 4, 0]), 3)

    @pytest.mark.parametrize("name,expected_a,expected_gr", [
        ("corpus100_g13.bg", (28, 6, 5, [5, 2, 0]), (28, 6, 8, [8, 4, 0])),
        ("corpus100_g35.bg", (27, 7, 6, [6, 3, 0]), (27, 7, 8, [8, 4, 0])),
    ], ids=["g13", "g35"])
    def test_corpus_graph_both_routes(self, name, expected_a, expected_gr):
        """Graphs 13 and 35 of corpus(271828, 100, max_dim=40), written by
        brauer_to_text."""
        self.both_routes(name, expected_a, expected_gr, 2)

    def test_corpus_fixtures_are_the_corpus_graphs(self):
        graphs = corpus(DEFAULT_SEED, 100, max_dim=40)
        for i in (13, 35):
            assert brauer_to_text(Field(0), graphs[i]) == data_text("corpus100_g%d.bg" % i)


class TestCorpus:
    def test_deterministic(self):
        def key(g):
            return (g.vertex_names, sorted(g.mult.items()), g.edges,
                    {v: g.cyclic[v] for v in g.vertex_names})

        a = corpus(DEFAULT_SEED, 6)
        b = corpus(DEFAULT_SEED, 6)
        assert [key(g) for g in a] == [key(g) for g in b]

    def test_diverse(self):
        graphs = corpus(DEFAULT_SEED, 20)
        assert len(graphs) >= 20

        def has_multi(g):
            pairs = [frozenset((v, w)) for _, v, w in g.edges if v != w]
            return len(pairs) != len(set(pairs))

        assert any(g.has_loop() for g in graphs)
        assert any(has_multi(g) for g in graphs)

    def test_small_sizes_diversify(self):
        for seed in range(20):
            graphs = corpus(seed, 1)
            assert any(g.has_loop() for g in graphs)

    def test_degenerate_graph_excluded(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_brauer_graph(rng)
            assert algebra_dim(g) <= 18
            if len(g.edges) == 1 and all(m == 1 for m in g.mult.values()):
                assert g.is_loop(0)
