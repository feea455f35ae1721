"""Brauer graphs and their algebras.

A Brauer graph is a connected multigraph with a multiplicity per vertex
and a cyclic order of the half-edges at each vertex (a loop contributes
two half-edges to its vertex).  The quiver Q_G has one vertex per EDGE
and one arrow per consecutive half-edge pair at every non-truncated
vertex (truncated: m(v) * val(v) = 1).  Walking the cyclic order at v
gives the special cycles; their rotations C_v(a), powered by m(v), build
the relations:

    type I    C_v(a)^m(v) - C_w(a')^m(w)   (two starts on one edge)
    type II   a * C_v(a)^m(v)
    type III  b*a for composable arrows with b not the cyclic successor
              of a (one cycle never contributes a length-2 subpath twice)

The associated graded algebra keeps the shorter side of each unbalanced
type I relation; balanced edges keep the difference.  Everything the
dimension formulas need (graded degrees, balanced components, the S2
count of opposite arrow pairs on double edges) lives here too, plus the
consolidated report that checks the formulas on a concrete field.
"""

from __future__ import annotations

import random
from itertools import combinations

from .pathalg import MAX_PATH_LENGTH, FreeElement, Path, Quiver, compose
from . import groebner
from .quotient import build_quotient
from . import ppcomplex


class BrauerGraphError(ValueError):
    """Not a Brauer graph: ``vertex`` and ``token`` name the cyclic order
    and the half-edge at fault, None for a fact of the whole graph."""

    def __init__(self, message, vertex=None, token=None):
        super().__init__(message)
        self.vertex, self.token = vertex, token


class DimensionCapExceeded(Exception):
    """dim A, read from the graph, exceeds the basis cap: nothing was built."""

    def __init__(self, cap, dim):
        self.cap = cap
        self.dim = dim
        super().__init__(f"Brauer graph algebra dimension exceeds --max-basis {cap}: "
                         f"the graph gives dimension {dim}")


def half_token(edge_name, end, is_loop):
    """The file token of one end of an edge: the name, suffixed .1/.2 on a loop."""
    return f"{edge_name}.{end + 1}" if is_loop else edge_name


class BrauerGraph:
    """Vertices with multiplicities, edges, and cyclic half-edge orders.

    ``cyclic`` maps a vertex name to its half-edge tokens in cyclic
    order: `e` for a non-loop edge e, `e.1`/`e.2` for a loop (suffix
    mandatory for loops, forbidden otherwise).  Vertices with exactly one
    half-edge may be omitted.
    """

    __slots__ = ("vertex_names", "mult", "edges", "cyclic", "_vertex_index")

    def __init__(self, vertices, edges, cyclic):
        # vertices: [(name, mult)], edges: [(name, v, w)]
        self.vertex_names = [name for name, _ in vertices]
        self.mult = {name: m for name, m in vertices}
        self._vertex_index = {n: i for i, n in enumerate(self.vertex_names)}
        if len(self._vertex_index) != len(self.vertex_names):
            raise BrauerGraphError("duplicate vertex name")
        for name, m in vertices:
            if m < 1:
                raise BrauerGraphError(f"multiplicity of {name} must be >= 1")
        self.edges = []
        seen = set()
        for name, v, w in edges:
            if name in seen or name in self._vertex_index:
                raise BrauerGraphError(f"duplicate name {name!r}")
            seen.add(name)
            if v not in self._vertex_index or w not in self._vertex_index:
                raise BrauerGraphError(f"edge {name!r} has an unknown endpoint")
            self.edges.append((name, v, w))
        if not self.edges:
            raise BrauerGraphError("a Brauer graph needs at least one edge")
        self.cyclic = {}
        if len(_components(self, range(len(self.edges)))) > 1:
            raise BrauerGraphError("graph is not connected")
        self._resolve_cyclic(cyclic or {})

    # -- setup ----------------------------------------------------------

    def _resolve_cyclic(self, given):
        # (edge_index, end) pairs per vertex, declaration order, end 0 first
        at = {vname: [] for vname in self.vertex_names}
        token_of = {}
        for i, (name, v, w) in enumerate(self.edges):
            for end, x in enumerate((v, w)):
                at[x].append((i, end))
                token_of[(i, end)] = half_token(name, end, v == w)
        for vname in given:
            if vname not in self._vertex_index:
                raise BrauerGraphError(f"cyclic order for unknown vertex {vname!r}")
        for vname in self.vertex_names:
            incident = at[vname]
            # a non-loop token is unambiguous once restricted to the
            # half-edges at this vertex; loops carry .1/.2 suffixes
            by_token = {token_of[h]: h for h in incident}
            tokens = given.get(vname)
            if tokens is None:
                if len(incident) != 1:
                    raise BrauerGraphError(
                        f"vertex {vname!r} needs an explicit cyclic order", vname)
                tokens = [token_of[incident[0]]]
            halves = []
            for t in tokens:
                h = by_token.get(t)
                if h is None:
                    raise BrauerGraphError(f"unknown half-edge {t!r} at {vname!r}", vname, t)
                halves.append(h)
            if sorted(halves) != incident:
                raise BrauerGraphError(
                    f"cyclic order at {vname!r} must list each incident "
                    f"half-edge exactly once", vname)
            self.cyclic[vname] = halves

    # -- basic combinatorics ---------------------------------------------

    def val(self, vname):
        return len(self.cyclic[vname])

    def truncated(self, vname):
        return self.mult[vname] * self.val(vname) == 1

    def edge_names(self):
        return [name for name, _, _ in self.edges]

    def is_loop(self, edge_index):
        _, v, w = self.edges[edge_index]
        return v == w

    def has_loop(self):
        return any(self.is_loop(i) for i in range(len(self.edges)))

    def __repr__(self):
        return (f"BrauerGraph({len(self.vertex_names)} vertices, "
                f"{len(self.edges)} edges)")


class VertexCycle:
    """The cyclic arrow sequence at one non-truncated vertex."""

    __slots__ = ("vertex_name", "mult", "arrow_ids", "quiver")

    def __init__(self, vertex_name, mult, arrow_ids, quiver):
        self.vertex_name = vertex_name
        self.mult = mult
        self.arrow_ids = arrow_ids
        self.quiver = quiver

    @property
    def val(self):
        return len(self.arrow_ids)

    def rotation(self, k):
        return tuple(self.arrow_ids[k:]) + tuple(self.arrow_ids[:k])

    def power_path(self, k):
        return Path(self.quiver, self.rotation(k) * self.mult)


def build_quiver_and_cycles(graph):
    """Q_G plus the special cycle at every non-truncated vertex.

    Quiver vertices are the edges (declaration order); arrow `v:k` runs
    from the k-th to the (k+1)-th half-edge of o(v).  A single-edge
    all-multiplicity-1 graph yields one vertex and no arrows.
    """
    arrows = []
    cycle_plan = []
    for vname in graph.vertex_names:
        if graph.truncated(vname):
            continue
        halves = graph.cyclic[vname]
        val = len(halves)
        ids = []
        for k in range(val):
            src = graph.edges[halves[k][0]][0]
            tgt = graph.edges[halves[(k + 1) % val][0]][0]
            ids.append(len(arrows))
            arrows.append((f"{vname}:{k}", src, tgt))
        cycle_plan.append((vname, ids))
    quiver = Quiver(graph.edge_names(), arrows)
    cycles = [
        VertexCycle(vname, graph.mult[vname], ids, quiver)
        for vname, ids in cycle_plan
    ]
    return quiver, cycles


def _edge_starts(quiver, cycles):
    """Per quiver vertex (edge) i: list of (cycle, k) with source(a_k) = i."""
    starts = {i: [] for i in range(quiver.n_vertices)}
    for cyc in cycles:
        for k, a in enumerate(cyc.arrow_ids):
            starts[quiver.arrow_src[a]].append((cyc, k))
    return starts


def type3_pairs(quiver, cycles):
    """Composable (alpha, beta) with beta*alpha a type III relation.

    beta*alpha is excluded exactly when beta is the cyclic successor of
    alpha at alpha's vertex; at a valency-1 vertex the successor of the
    loop is itself, which realizes the stated loop exception.
    """
    successor = {a: b for cyc in cycles for a, b in zip(cyc.arrow_ids, cyc.rotation(1))}
    return [(alpha, beta) for alpha in range(quiver.n_arrows)
            for beta in range(quiver.n_arrows)
            if quiver.arrow_src[beta] == quiver.arrow_tgt[alpha] and beta != successor[alpha]]


def _relation_parts(graph, field):
    """Q_G, the type I path pairs (C_v(a)^m(v), C_w(a')^m(w)), R2, R3 and
    the type III arrow pairs behind R3.  BrauerGraphError, before any
    relation is built, when R1 and R2 would spell out more than
    MAX_PATH_LENGTH arrows in all."""
    quiver, cycles = build_quiver_and_cycles(graph)
    starts = _edge_starts(quiver, cycles)
    # C_v(a)^m(v) has m(v)*val(v) arrows: count them before building any
    spelled = sum(c1.mult * c1.val + c2.mult * c2.val for at in starts.values()
                  for (c1, _), (c2, _) in combinations(at, 2))
    spelled += sum(cyc.mult * cyc.val + 1 for at in starts.values() for cyc, _ in at)
    if spelled > MAX_PATH_LENGTH:
        raise BrauerGraphError(f"type I and II relations spell out {spelled} arrows in all, "
                               f"past the path length cap {MAX_PATH_LENGTH}")
    pairs = [
        (c1.power_path(k1), c2.power_path(k2))
        for i in range(quiver.n_vertices)
        for (c1, k1), (c2, k2) in combinations(starts[i], 2)
    ]
    r2 = []
    for i in range(quiver.n_vertices):
        for cyc, k in starts[i]:
            alpha = quiver.arrow(cyc.arrow_ids[k])
            rel = compose(alpha, cyc.power_path(k))
            r2.append(FreeElement.from_path(rel, field))
    t3 = type3_pairs(quiver, cycles)
    r3 = [FreeElement.from_path(Path(quiver, ab), field) for ab in t3]
    return quiver, pairs, r2, r3, t3


def _type1(quiver, field, pairs, graded=False):
    """R1 from its path pairs; graded keeps the shorter side of each pair
    of unequal lengths, the relation of gr(A)."""
    return [
        FreeElement.from_path(q if p.length > q.length else p, field)
        if graded and p.length != q.length
        else FreeElement(quiver, field, {p: field.one, q: field.neg(field.one)})
        for p, q in pairs
    ]


def generate_relations(graph, field):
    """(R1, R2, R3) as free elements; may contain redundant members."""
    quiver, pairs, r2, r3, _ = _relation_parts(graph, field)
    return _type1(quiver, field, pairs), r2, r3


def relations(graph, field, graded=False):
    """(Q_G, R1 + R2 + R3): the relations of A, or of gr(A) when graded."""
    quiver, pairs, r2, r3, _ = _relation_parts(graph, field)
    return quiver, _type1(quiver, field, pairs, graded) + r2 + r3


def gr_relations(graph, field):
    """Relations of gr(A): shorter side of unbalanced type I, rest kept."""
    return relations(graph, field, graded=True)[1]


def graded_degree(graph, vname):
    """grd(v): m(v)val(v), inherited across a truncated endpoint, else 1."""
    own = graph.mult[vname] * graph.val(vname)
    if own > 1:
        return own
    # truncated: exactly one half-edge; look across its edge
    (ei, _), = graph.cyclic[vname]
    _, v, w = graph.edges[ei]
    other = w if v == vname else v
    return graph.mult[other] * graph.val(other)


def unbalanced_edges(graph):
    out = []
    for i, (name, v, w) in enumerate(graph.edges):
        if graded_degree(graph, v) != graded_degree(graph, w):
            out.append(i)
    return out


def _components(graph, edge_ids):
    """Sorted vertex-name lists of the components of the graph on its
    vertices and the edges with the given indices."""
    idx = graph._vertex_index
    parent = list(range(len(graph.vertex_names)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in edge_ids:
        _, v, w = graph.edges[i]
        parent[find(idx[v])] = find(idx[w])
    comps = {}
    for i, name in enumerate(graph.vertex_names):
        comps.setdefault(find(i), []).append(name)
    return sorted(comps.values())


def balanced_components(graph):
    """(|Gamma_G|, vertex components) after splitting unbalanced edges."""
    bad = set(unbalanced_edges(graph))
    comps = _components(graph, [i for i in range(len(graph.edges)) if i not in bad])
    return len(comps), comps


def count_s2(graph):
    """Unordered pairs of distinct arrows whose both composites are type III.

    Each such pair {a, b} (so ab and ba are both relations of type III,
    forcing a and b to run in opposite directions between two quiver
    vertices, or to be two loops) contributes one kernel element mixing
    the two special cycles.
    """
    return _count_s2(type3_pairs(*build_quiver_and_cycles(graph)))


def _count_s2(t3):
    r3 = set(t3)
    return sum(1 for a, b in r3 if a < b and (b, a) in r3)


def is_mult1_double_edge(graph):
    """The solvability exception: two vertices, a double edge, both m = 1."""
    if len(graph.vertex_names) != 2 or len(graph.edges) != 2:
        return False
    if any(m != 1 for m in graph.mult.values()):
        return False
    ends = [{v, w} for _, v, w in graph.edges]
    return ends[0] == ends[1] and len(ends[0]) == 2


def is_degenerate(graph):
    """One non-loop edge with both multiplicities 1: the algebra is k and
    every dimension formula degenerates."""
    return (len(graph.edges) == 1 and not graph.is_loop(0)
            and all(m == 1 for m in graph.mult.values()))


def algebra_dim(graph):
    """dim of the BGA without building it: identities, cycle pieces, socle."""
    if is_degenerate(graph):
        return 1
    total = 2 * len(graph.edges)
    for vname in graph.vertex_names:
        if graph.truncated(vname):
            continue
        val = graph.val(vname)
        total += val * (graph.mult[vname] * val - 1)
    return total


class Check:
    __slots__ = ("name", "status", "detail")

    def __init__(self, name, status, detail=""):
        self.name = name
        self.status = status  # ok | fail | hypothesis-failed | skipped
        self.detail = detail

    def __repr__(self):
        return f"Check({self.name}: {self.status}{' ' + self.detail if self.detail else ''})"


class BGAReport:
    __slots__ = (
        "graph", "field", "dim_a", "dim_gr", "dim_hh1_a", "dim_hh1_gr",
        "dim_l00_a", "dim_l00_gr", "gamma", "s2", "solvable_a", "solvable_gr",
        "derived_a", "derived_gr", "closure_added_a", "loop_char_a",
        "loop_char_gr", "checks",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def __repr__(self):
        return (f"BGAReport(hh1={self.dim_hh1_a}/{self.dim_hh1_gr}, "
                f"gamma={self.gamma}, s2={self.s2}, ok={self.ok})")


def invariant_report(graph, field, max_tip_length=groebner.DEFAULT_MAX_TIP_LENGTH,
                     max_basis=groebner.DEFAULT_MAX_BASIS):
    """Build A and gr(A), compute both cohomologies, check the formulas.

    gr(A) is A when every type I relation joins two cycle powers of one
    length: no relation then loses a side, so A's algebra and analysis
    (Lie structure, graded pieces, loop report) serve for gr(A) too.

    In characteristic p the formula checks are gated on the loop-power
    condition (char must not divide any loop's minimal tip power) on both
    algebras; failures of the gate are marked hypothesis-failed rather
    than asserted.  The completion check (relations already form a
    Groebner basis) is characteristic-free and always asserted.
    DimensionCapExceeded when dim A, read from the graph, exceeds
    max_basis; it is checked before any relation is built.
    """
    dim = algebra_dim(graph)
    if dim > max_basis:
        raise DimensionCapExceeded(max_basis, dim)
    quiver, pairs, r2, r3, t3 = _relation_parts(graph, field)

    def analyse(graded):
        rels = _type1(quiver, field, pairs, graded) + r2 + r3
        gb = groebner.complete(rels, max_tip_length, quiver, field)
        alg = build_quotient(gb, max_basis)
        sl = ppcomplex.CochainSlice(alg)
        return (gb, alg, ppcomplex.lie_presentation(alg, sl),
                ppcomplex.graded_report(alg, sl), ppcomplex.loop_char_report(alg))

    gb_a, alg_a, lie_a, graded_a, loop_a = analysis_a = analyse(graded=False)
    gr_is_a = all(p.length == q.length for p, q in pairs)
    _, alg_gr, lie_gr, graded_gr, loop_gr = analysis_a if gr_is_a else analyse(graded=True)
    gamma = balanced_components(graph)[0]
    s2 = _count_s2(t3)
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


# -- random corpus -------------------------------------------------------

DEFAULT_SEED = 271828

_EDGE_NAMES = "abcdefgh"


def random_brauer_graph(rng, max_dim=18):
    """One random connected graph with at most 6 edges and multiplicities
    at most 3, rejection-sampled to algebra dimension at most max_dim.

    The degenerate graph (see is_degenerate) is excluded.
    """
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
        edges = [
            (_EDGE_NAMES[i], vnames[v], vnames[w])
            for i, (v, w) in enumerate(ends)
        ]
        mult = {v: rng.choice((1, 1, 1, 2, 2, 3)) for v in vnames}
        graph = _with_random_cyclic(rng, vnames, mult, edges)
        if is_degenerate(graph):
            continue
        if algebra_dim(graph) > max_dim:
            continue
        return graph


def _with_random_cyclic(rng, vnames, mult, edges):
    tokens = {v: [] for v in vnames}
    for name, v, w in edges:
        tokens[v].append(half_token(name, 0, v == w))
        tokens[w].append(half_token(name, 1, v == w))
    cyclic = {}
    for v, toks in tokens.items():
        rng.shuffle(toks)
        cyclic[v] = toks
    return BrauerGraph([(v, mult[v]) for v in vnames], edges, cyclic)


def corpus(seed=DEFAULT_SEED, size=20, max_dim=18):
    """A seeded list of graphs guaranteed to include loops and multi-edges."""
    rng = random.Random(seed)
    graphs = []

    def has_multi(g):
        pairs = [frozenset((v, w)) for _, v, w in g.edges if v != w]
        return len(pairs) != len(set(pairs))

    while (len(graphs) < size
           or not any(g.has_loop() for g in graphs)
           or not any(has_multi(g) for g in graphs)):
        graphs.append(random_brauer_graph(rng, max_dim))
        # a small corpus may need dozens of draws to see a loop and a multi-edge
        if len(graphs) > max(10 * size, 200):
            raise RuntimeError("corpus generation failed to diversify")
    return graphs
