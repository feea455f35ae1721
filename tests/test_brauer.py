import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from quiverhh.exactla import Field
from quiverhh.pathalg import format_element
from quiverhh.groebner import complete
from quiverhh.quotient import build_quotient
from quiverhh.ppcomplex import (
    CochainSlice, compute_hh0, graded_report, lie_presentation, loop_char_report)
from quiverhh.baroracle import bar_derived_series, bar_hh_dims, build_bar_slice
from quiverhh.cli import brauer_to_text, main, parse_brauer
from quiverhh import brauer
from quiverhh.brauer import (
    DEFAULT_SEED,
    BGAReport,
    BrauerGraph,
    BrauerGraphError,
    Check,
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

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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


class TestPathCap:
    """R1 and R2 together may spell out at most MAX_PATH_LENGTH arrows."""

    EDGE = "field Q\nvertex v1 mult %d\nvertex v2 mult %d\nedge a v1 v2\n"
    LOOP = "field Q\nvertex v mult %d\nedge a v v\ncyclic v: a.1 a.2\n"

    @pytest.mark.parametrize("text,spelled", [
        (EDGE % (999999, 1), 1000000),  # R2 only: v2 is truncated
        (EDGE % (249999, 250000), 1000000),  # R1 joins both cycle powers
        (LOOP % 124999, 999994),  # two starts on the loop, val 2
    ])
    def test_relations_up_to_the_cap_are_built(self, text, spelled):
        _, graph = parse_brauer(text)
        r1, r2, _ = generate_relations(graph, Field(0))
        assert sum(p.length for r in r1 + r2 for p in r.terms) == spelled

    @pytest.mark.parametrize("text,spelled", [
        (EDGE % (1000000, 1), 1000001),
        (EDGE % (250000, 250000), 1000002),
        (LOOP % 125000, 1000002),
        (EDGE % (10 ** 100, 1), 10 ** 100 + 1),
    ])
    def test_relations_past_the_cap_are_refused_before_any_is_built(
            self, monkeypatch, text, spelled):
        def no_power(cyc, k):
            raise AssertionError("a cycle power was built")

        monkeypatch.setattr(brauer.VertexCycle, "power_path", no_power)
        _, graph = parse_brauer(text)
        for build in (generate_relations, gr_relations):
            with pytest.raises(BrauerGraphError) as exc:
                build(graph, Field(0))
            assert str(exc.value) == ("type I and II relations spell out %d arrows in all, "
                                      "past the path length cap 1000000" % spelled)


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


def ref_invariant_report(graph, field, max_tip_length=50, max_basis=100000):
    """Reference report that builds and analyses A and gr(A) separately on
    every graph, whether or not gr(A) is A, through the public relation
    builders."""
    dim = algebra_dim(graph)
    if dim > max_basis:
        raise brauer.DimensionCapExceeded(max_basis, dim)
    quiver, _ = build_quiver_and_cycles(graph)

    def pipeline(rels):
        gb = complete(rels, max_tip_length, quiver, field)
        alg = build_quotient(gb, max_basis)
        return gb, alg, CochainSlice(alg)

    gb_a, alg_a, sl_a = pipeline(sum(generate_relations(graph, field), []))
    _, alg_gr, sl_gr = pipeline(gr_relations(graph, field))
    lie_a = lie_presentation(alg_a, sl_a)
    lie_gr = lie_presentation(alg_gr, sl_gr)
    graded_a = graded_report(alg_a, sl_a)
    graded_gr = graded_report(alg_gr, sl_gr)
    loop_a = loop_char_report(alg_a)
    loop_gr = loop_char_report(alg_gr)
    gamma = balanced_components(graph)[0]
    s2 = count_s2(graph)
    n_e = len(graph.edges)
    n_v = len(graph.vertex_names)
    sum_m = sum(graph.mult.values())

    gate_ok = field.char == 0 or (
        all(not d for _, _, d in loop_a) and all(not d for _, _, d in loop_gr))
    degenerate = is_degenerate(graph)
    checks = []

    def formula(name, lhs, rhs):
        detail = f"{lhs} vs {rhs}"
        if degenerate:
            checks.append(Check(name, "skipped", f"algebra is k: {detail}"))
        elif not gate_ok:
            checks.append(Check(name, "hypothesis-failed", detail))
        elif lhs == rhs:
            checks.append(Check(name, "ok", detail))
        else:
            checks.append(Check(name, "fail", detail))

    if gb_a.closure_added == 0:
        checks.append(Check("relations-form-gb", "ok"))
    else:
        checks.append(Check("relations-form-gb", "fail",
                            f"completion added {gb_a.closure_added} elements"))
    formula("l00-dim", graded_a.dim_L00, n_e - n_v + 2)
    formula("l00-dim-gr", graded_gr.dim_L00, n_e - n_v + 1 + gamma)
    formula("hh1-difference", lie_gr.dim - lie_a.dim, gamma - 1)
    if graph.has_loop():
        checks.append(Check("hh1-formula-no-loops", "skipped", "graph has loops"))
    else:
        formula("hh1-formula-no-loops", lie_a.dim,
                n_e - 2 * n_v + sum_m + s2 + 2)
    if is_mult1_double_edge(graph):
        checks.append(Check("solvable", "skipped",
                            "multiplicity-1 double edge exception"))
    elif not gate_ok:
        checks.append(Check("solvable", "hypothesis-failed",
                            f"A {lie_a.solvable}, gr {lie_gr.solvable}"))
    elif lie_a.solvable and lie_gr.solvable:
        checks.append(Check("solvable", "ok"))
    else:
        checks.append(Check("solvable", "fail",
                            f"A {lie_a.solvable}, gr {lie_gr.solvable}"))

    return BGAReport(
        graph=graph, field=field, dim_a=alg_a.dim, dim_gr=alg_gr.dim,
        dim_hh1_a=lie_a.dim, dim_hh1_gr=lie_gr.dim,
        dim_l00_a=graded_a.dim_L00, dim_l00_gr=graded_gr.dim_L00,
        gamma=gamma, s2=s2,
        solvable_a=lie_a.solvable, solvable_gr=lie_gr.solvable,
        derived_a=lie_a.derived_dims, derived_gr=lie_gr.derived_dims,
        closure_added_a=gb_a.closure_added,
        loop_char_a=loop_a, loop_char_gr=loop_gr,
        checks=checks,
    )


def report_fields(rep):
    """Every BGAReport field, with each check as (name, status, detail)."""
    out = {name: getattr(rep, name) for name in BGAReport.__slots__ if name != "checks"}
    out["checks"] = [(c.name, c.status, c.detail) for c in rep.checks]
    return out


def type1_pairs_balanced(graph, field):
    """Every type I path pair joins two paths of one length: gr(A) is A."""
    _, pairs, _, _, _ = brauer._relation_parts(graph, field)
    return all(p.length == q.length for p, q in pairs)


class TestSharedGrAnalysis:
    """invariant_report reuses A's analysis for gr(A) when gr(A) is A and
    builds Q_G and the type III pairs once per graph."""

    @pytest.fixture(scope="class")
    def graphs(self):
        return corpus(DEFAULT_SEED, 100, max_dim=40)

    def test_report_matches_reference_on_corpus(self, graphs):
        field = Field(0)
        for i, graph in enumerate(graphs):
            assert report_fields(invariant_report(graph, field)) == \
                report_fields(ref_invariant_report(graph, field)), i

    @pytest.mark.parametrize("p", [2, 3])
    def test_report_matches_reference_under_gate(self, graphs, p):
        field = Field(p)
        for i, graph in enumerate(graphs[:25]):
            assert report_fields(invariant_report(graph, field)) == \
                report_fields(ref_invariant_report(graph, field)), i

    @pytest.mark.parametrize("graph", [single_loop, single_edge_23, double_edge],
                             ids=["single_loop", "single_edge_23", "double_edge"])
    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_report_matches_reference_on_small_graphs(self, graph, p):
        graph, field = graph(), Field(p)
        assert report_fields(invariant_report(graph, field)) == \
            report_fields(ref_invariant_report(graph, field))

    def test_pair_lengths_agree_with_balance(self, graphs):
        field = Field(0)
        flags = [type1_pairs_balanced(g, field) for g in graphs]
        assert flags == [not unbalanced_edges(g) for g in graphs]
        assert 0 < sum(flags) < len(graphs)

    def test_gr_relations_are_a_relations_when_balanced(self, graphs):
        field = Field(0)
        for graph in graphs:
            same = gr_relations(graph, field) == sum(generate_relations(graph, field), [])
            assert same == type1_pairs_balanced(graph, field)

    @pytest.mark.parametrize("name,pipelines", [
        ("corpus_g12.bg", 1), ("corpus_g06.bg", 2)], ids=["balanced", "unbalanced"])
    def test_build_counts(self, monkeypatch, name, pipelines):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            field, graph = parse_brauer(fh.read())
        assert type1_pairs_balanced(graph, field) == (pipelines == 1)
        calls = {"build_quotient": 0, "build_quiver_and_cycles": 0, "type3_pairs": 0}
        for attr in calls:
            def counting(*args, _fn=getattr(brauer, attr), _attr=attr, **kwargs):
                calls[_attr] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(brauer, attr, counting)
        invariant_report(graph, field)
        assert calls == {"build_quotient": pipelines, "build_quiver_and_cycles": 1,
                         "type3_pairs": 1}
