"""The Brauer graph facts derived once: the half-edges at a vertex, the
cyclic successor of an arrow, a vertex's graded degree and the random
cyclic orders of the corpus sampler, each checked against the code it
replaced (kept here as ``ref_`` copies) on every ``.bg`` under tests/
and on three seeded corpora of 150 graphs.
"""

import glob
import io
import os
from contextlib import redirect_stdout

import pytest

from quiverhh import brauer
from quiverhh.brauer import (
    BrauerGraph,
    BrauerGraphError,
    _relation_parts,
    _type1,
    algebra_dim,
    build_quiver_and_cycles,
    corpus,
    gr_relations,
    graded_degree,
    is_degenerate,
    relations,
    type3_pairs,
)
from quiverhh.cli import algebra_to_text, brauer_to_text, main, parse_brauer
from quiverhh.exactla import Field

TESTS = os.path.dirname(__file__)
BG_FILES = sorted(os.path.relpath(p, TESTS) for d in ("data", "golden")
                  for p in glob.glob(os.path.join(TESTS, d, "*.bg")))
SEEDS = [1, 7, 271828]


def ref_half_edges_at(graph, vname):
    """(edge_index, end) pairs attached to the vertex, declaration order."""
    out = []
    for i, (_, v, w) in enumerate(graph.edges):
        if v == vname:
            out.append((i, 0))
        if w == vname:
            out.append((i, 1))
    return out


def ref_type3_pairs(quiver, cycles):
    where = {}
    for cyc in cycles:
        for pos, a in enumerate(cyc.arrow_ids):
            where[a] = (cyc, pos)
    out = []
    for alpha in range(quiver.n_arrows):
        cyc, _ = where[alpha]
        pos = cyc.arrow_ids.index(alpha)
        succ = cyc.arrow_ids[(pos + 1) % cyc.val]
        for beta in range(quiver.n_arrows):
            if quiver.arrow_src[beta] != quiver.arrow_tgt[alpha]:
                continue
            if beta == succ:
                continue
            out.append((alpha, beta))
    return out


def ref_graded_degree(graph, vname):
    own = graph.mult[vname] * graph.val(vname)
    if own > 1:
        return own
    (ei, _), = ref_half_edges_at(graph, vname)
    _, v, w = graph.edges[ei]
    other = w if v == vname else v
    other_deg = graph.mult[other] * graph.val(other)
    if other_deg > 1:
        return other_deg
    return 1


def ref_with_random_cyclic(rng, vnames, mult, edges):
    tokens = {v: [] for v in vnames}
    for name, v, w in edges:
        if v == w:
            tokens[v].extend([f"{name}.1", f"{name}.2"])
        else:
            tokens[v].append(name)
            tokens[w].append(name)
    cyclic = {}
    for v, toks in tokens.items():
        rng.shuffle(toks)
        cyclic[v] = toks
    try:
        return BrauerGraph([(v, mult[v]) for v in vnames], edges, cyclic)
    except BrauerGraphError:
        return None


def ref_random_brauer_graph(rng, max_dim=18):
    while True:
        nv = rng.randint(1, 4)
        ne = rng.randint(max(1, nv - 1), 6)
        vnames = [f"v{i + 1}" for i in range(nv)]
        order = list(range(nv))
        rng.shuffle(order)
        ends = []
        for i in range(1, nv):
            ends.append((order[i], order[rng.randrange(i)]))
        while len(ends) < ne:
            ends.append((rng.randrange(nv), rng.randrange(nv)))
        edges = [("abcdefgh"[i], vnames[v], vnames[w]) for i, (v, w) in enumerate(ends)]
        mult = {v: rng.choice((1, 1, 1, 2, 2, 3)) for v in vnames}
        graph = ref_with_random_cyclic(rng, vnames, mult, edges)
        if graph is None:
            continue
        if is_degenerate(graph):
            continue
        if algebra_dim(graph) > max_dim:
            continue
        return graph


def _graphs():
    out = []
    for name in BG_FILES:
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            out.append(parse_brauer(fh.read()))
    field = Field(0)
    return out + [(field, g) for seed in SEEDS for g in corpus(seed, 150, max_dim=40)]


GRAPHS = _graphs()


def test_every_bg_fixture_is_read():
    assert len(BG_FILES) >= 10
    assert len(GRAPHS) == len(BG_FILES) + 3 * 150


def test_incidence_lists_and_graded_degrees():
    for _, graph in GRAPHS:
        for vname in graph.vertex_names:
            assert sorted(graph.cyclic[vname]) == ref_half_edges_at(graph, vname)
            assert graded_degree(graph, vname) == ref_graded_degree(graph, vname)


def test_type3_pairs_in_the_same_order():
    for _, graph in GRAPHS:
        quiver, cycles = build_quiver_and_cycles(graph)
        assert type3_pairs(quiver, cycles) == ref_type3_pairs(quiver, cycles)


def test_relations_are_the_parts_assembled():
    for field, graph in GRAPHS:
        quiver, pairs, r2, r3, _ = _relation_parts(graph, field)
        for graded in (False, True):
            got_quiver, rels = relations(graph, field, graded)
            assert got_quiver.arrow_names == quiver.arrow_names
            assert rels == _type1(quiver, field, pairs, graded) + r2 + r3
        assert gr_relations(graph, field) == rels


@pytest.mark.parametrize("seed", SEEDS)
def test_corpus_text_is_unchanged(monkeypatch, seed):
    field = Field(0)
    got = [brauer_to_text(field, g) for g in corpus(seed, 150, max_dim=40)]
    monkeypatch.setattr(brauer, "random_brauer_graph", ref_random_brauer_graph)
    assert got == [brauer_to_text(field, g) for g in corpus(seed, 150, max_dim=40)]


@pytest.mark.parametrize("name", BG_FILES)
@pytest.mark.parametrize("graded", [False, True], ids=["A", "gr"])
def test_bga_prints_the_relations(name, graded):
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        field, graph = parse_brauer(fh.read())
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(["bga"] + ["--gr"] * graded + [os.path.join(TESTS, name)])
    assert rc == 0
    assert out.getvalue() == algebra_to_text(field, *relations(graph, field, graded))
