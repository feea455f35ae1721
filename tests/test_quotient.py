import functools
import os

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.baroracle import BarSlice
from quiverhh.brauer import build_quiver_and_cycles, corpus, generate_relations, gr_relations
from quiverhh.cli import parse_algebra
from quiverhh.exactla import Field, combine
from quiverhh.pathalg import FreeElement, Path, Quiver, compose, format_element
from quiverhh.groebner import CapExceeded, complete, normal_form
from quiverhh.ppcomplex import CochainSlice
from quiverhh.quotient import InfiniteDimensional, build_quotient

from conftest import ALG_FILES, ALG_FIXTURES, TESTS, elem, fixture_algebra, wnames, written


# -- test-local references: coordinates read off a normal form, and the
# product of dense coordinate vectors through path_coords --

def projected(f, A):
    """pi(f) as sparse coordinates over B: the linear extension of
    path_coords."""
    return combine(((A.path_coords(p), c) for p, c in f.terms.items()), A.field)


def nf_coords(f, A):
    """Sparse coordinates over B of normal_form(f), zeros dropped."""
    return {A.index[p]: c for p, c in normal_form(f, A.gb).terms.items()}


def element_of(coords, A):
    """The element of kQ with the given sparse coordinates over B."""
    return FreeElement(A.quiver, A.field, {A.basis[i]: c for i, c in coords.items()})


def dense(f, A):
    """Dense coordinates over B of an element already in normal form."""
    vec = [A.field.zero] * A.dim
    for p, c in f.terms.items():
        vec[A.index[p]] = c
    return vec


def ref_multiply(a, b, A):
    """Product in A of two dense coordinate vectors over B: the bilinear
    extension of path_coords(basis[i] * basis[j])."""
    f = A.field
    out = [f.zero] * A.dim
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            r = compose(A.basis[i], A.basis[j])
            if not (ca and cb and r):
                continue
            for k, c in A.path_coords(r).items():
                out[k] = f.add(out[k], f.mul(f.mul(ca, cb), c))
    return out


def loops_quiver():
    return Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])


def char2_algebra():
    quiver = loops_quiver()
    F2 = Field(2)
    gens = [
        elem(F2, quiver, (1, written(quiver, "x", "x", "x")),
             (1, written(quiver, "y", "x", "x"))),
        elem(F2, quiver, (1, written(quiver, "x", "y")),
             (1, written(quiver, "y", "x"))),
        elem(F2, quiver, (1, written(quiver, "y", "y"))),
    ]
    return quiver, F2, build_quotient(complete(gens))


def commuting_algebra(field):
    quiver = loops_quiver()
    gens = [
        elem(field, quiver, (1, written(quiver, "x", "y")),
             (-1, written(quiver, "y", "x"))),
        elem(field, quiver, (1, written(quiver, "x", "x"))),
        elem(field, quiver, (1, written(quiver, "y", "y"))),
    ]
    return quiver, build_quotient(complete(gens))


class TestBuild:
    def test_char_two_basis(self):
        quiver, _, A = char2_algebra()
        assert A.dim == 6
        assert [wnames(quiver, p) for p in A.basis] == [
            (), ("y",), ("x",), ("y", "x"), ("x", "x"), ("y", "x", "x")]

    def test_commuting_loops_dim(self):
        _, A = commuting_algebra(Field(0))
        assert A.dim == 4

    def test_truncated_polynomial_dim(self):
        quiver = Quiver(["e"], [("x", "e", "e")])
        gb = complete([FreeElement.from_path(Path(quiver, (0, 0, 0)), Field(0))])
        assert build_quotient(gb).dim == 3

    def test_infinite_dimension_raises(self):
        quiver = loops_quiver()
        Q = Field(0)
        gb = complete([elem(Q, quiver, (1, written(quiver, "x", "y")))])
        with pytest.raises(InfiniteDimensional) as exc:
            build_quotient(gb, max_basis=50)
        assert exc.value.cap == 50

    def test_cap_is_caught_by_both_names(self):
        # bench/workloads.py catches it as quotient.InfiniteDimensional
        quiver = loops_quiver()
        gb = complete([elem(Field(0), quiver, (1, written(quiver, "x", "y")))])
        with pytest.raises(CapExceeded) as exc:
            build_quotient(gb, max_basis=50)
        assert isinstance(exc.value, InfiniteDimensional)


class TestProjection:
    def test_cube_projects_to_tail(self):
        quiver, F2, A = char2_algebra()
        x3 = elem(F2, quiver, (1, written(quiver, "x", "x", "x")))
        coords = projected(x3, A)
        assert coords == nf_coords(x3, A)
        assert format_element(element_of(coords, A)) == "y*x^2"

    def test_relation_projects_to_zero(self):
        quiver, F2, A = char2_algebra()
        rel = elem(F2, quiver, (1, written(quiver, "x", "y")),
                   (1, written(quiver, "y", "x")))
        assert projected(rel, A) == {} == nf_coords(rel, A)

    def test_coords_round_trip(self):
        quiver, F2, A = char2_algebra()
        f = elem(F2, quiver, (1, written(quiver, "y", "x")),
                 (1, written(quiver, "x", "x")))
        coords = projected(f, A)
        assert coords == nf_coords(f, A)
        assert projected(element_of(coords, A), A) == coords


def random_element(data, quiver, field):
    """A few random walks of length up to 8 with small coefficients."""
    f = FreeElement(quiver, field)
    for _ in range(data.draw(st.integers(1, 4))):
        p = quiver.trivial(data.draw(st.integers(0, quiver.n_vertices - 1)))
        for _ in range(data.draw(st.integers(0, 8))):
            out = quiver.arrows_from(p.target)
            if not out:
                break
            p = compose(quiver.arrow(data.draw(st.sampled_from(out))), p)
        coeff = field.of(data.draw(st.integers(-3, 3)))
        f = f.add(FreeElement.from_path(p, field, coeff))
    return f


class TestPathMap:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(ALG_FIXTURES), data=st.data())
    def test_memoized_projection_matches_normal_form(self, name, data):
        A = fixture_algebra(name)
        fs = [random_element(data, A.quiver, A.field) for _ in range(3)]
        expected = [nf_coords(f, A) for f in fs]
        assert [projected(f, A) for f in fs] == expected  # cold map
        assert [projected(f, A) for f in fs] == expected  # warm map

    @pytest.mark.parametrize("name", ALG_FIXTURES)
    def test_steps_split_off_the_last_arrow(self, name):
        A = fixture_algebra(name)
        for p, step in zip(A.basis, A.steps):
            if step is None:
                assert p.is_trivial
            else:
                x, i = step
                assert compose(A.quiver.arrow(x), A.basis[i]) == p


class TestMultiplication:
    def test_loops_commute_in_quotient(self):
        quiver, A = commuting_algebra(Field(0))
        Q = Field(0)
        cx = dense(elem(Q, quiver, (1, written(quiver, "x"))), A)
        cy = dense(elem(Q, quiver, (1, written(quiver, "y"))), A)
        xy = ref_multiply(cx, cy, A)
        yx = ref_multiply(cy, cx, A)
        assert xy == yx
        assert xy == dense(elem(Q, quiver, (1, written(quiver, "y", "x"))), A)

    def test_basis_product_staying_in_basis_skips_reduction(self):
        quiver, F2, A = char2_algebra()
        r = compose(written(quiver, "y"), written(quiver, "x"))
        assert A.path_coords(r) == {A.index[written(quiver, "y", "x")]: 1}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_associative_over_prime_field(self, data):
        quiver, A = commuting_algebra(Field(3))
        F3 = Field(3)
        vec = st.lists(st.integers(min_value=0, max_value=2).map(F3.of),
                       min_size=A.dim, max_size=A.dim)
        a = data.draw(vec)
        b = data.draw(vec)
        c = data.draw(vec)
        left = ref_multiply(ref_multiply(a, b, A), c, A)
        right = ref_multiply(a, ref_multiply(b, c, A), A)
        assert left == right

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_distributive(self, data):
        quiver, A = commuting_algebra(Field(5))
        F5 = Field(5)
        vec = st.lists(st.integers(min_value=0, max_value=4).map(F5.of),
                       min_size=A.dim, max_size=A.dim)
        a = data.draw(vec)
        b = data.draw(vec)
        c = data.draw(vec)
        bc = [F5.add(u, v) for u, v in zip(b, c)]
        lhs = ref_multiply(a, bc, A)
        rhs = [F5.add(u, v) for u, v in zip(ref_multiply(a, b, A),
                                            ref_multiply(a, c, A))]
        assert lhs == rhs


# -- the six X//B pair spaces of both cohomology routes, built by the scans
# over the whole basis that built them before the parallel-path index --

def ref_pair_spaces(A):
    """(Q0//B, Q1//B, Tip//B, C0, C1, C2) by endpoint scans of A.basis; C2
    on the arrow rows of D1, x1 an arrow."""
    quiver, basis = A.quiver, A.basis
    q0 = [(v, b) for v in range(quiver.n_vertices) for b in basis
          if b.source == v and b.target == v]
    q1 = [(a, b) for a in range(quiver.n_arrows) for b in basis
          if b.source == quiver.arrow_src[a] and b.target == quiver.arrow_tgt[a]]
    tips = [(t, b) for t in A.gb.tips() for b in basis if b.parallel_to(t)]
    bplus = [p for p in basis if p.length > 0]
    c1 = [(x, b) for x in bplus for b in basis if b.parallel_to(x)]
    c2 = [(x1, x2, b) for x1 in bplus if x1.length == 1
          for x2 in bplus if x1.source == x2.target
          for b in basis if b.source == x2.source and b.target == x1.target]
    return q0, q1, tips, list(q0), c1, c2


def pair_spaces(A):
    pp, bar = CochainSlice(A), BarSlice(A)
    return (pp.q0_pairs, pp.q1_pairs, pp.tip_pairs,
            bar.c0_basis, bar.c1_basis, bar.c2_basis)


@functools.lru_cache(maxsize=None)
def corpus_graphs():
    return corpus(271828, 100, max_dim=40)[:25]


class TestParallelIndex:
    def test_parallel_lists_basis_paths_in_basis_order(self):
        A = fixture_algebra("trivial_ext_kronecker.alg")
        seen = []
        for s in range(A.quiver.n_vertices):
            for t in range(A.quiver.n_vertices):
                got = list(A.parallel(s, t))
                assert got == [b for b in A.basis if (b.source, b.target) == (s, t)]
                seen += got
        assert sorted(seen) == sorted(A.basis)

    def test_no_path_between_vertices_is_empty(self):
        quiver = Quiver(["u", "v"], [("a", "u", "v")])
        A = build_quotient(complete([], quiver=quiver, field=Field(0)))
        assert list(A.parallel(1, 0)) == []
        assert [b.length for b in A.parallel(0, 1)] == [1]

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_pair_spaces_equal_basis_scans_on_files(self, name):
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            field, quiver, rels = parse_algebra(fh.read())
        A = build_quotient(complete(rels, quiver=quiver, field=field))
        assert pair_spaces(A) == ref_pair_spaces(A)

    @pytest.mark.parametrize("index", range(25))
    def test_pair_spaces_equal_basis_scans_on_corpus(self, index):
        graph = corpus_graphs()[index]
        field = Field(0)
        quiver, _ = build_quiver_and_cycles(graph)
        for rels in (sum(generate_relations(graph, field), []), gr_relations(graph, field)):
            A = build_quotient(complete(rels, quiver=quiver, field=field))
            assert pair_spaces(A) == ref_pair_spaces(A)
