import glob
import itertools
import os
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import exactla, ppcomplex, quotient
from quiverhh.brauer import (
    DEFAULT_SEED, build_quiver_and_cycles, corpus, generate_relations, gr_relations,
)
from quiverhh.cli import parse_algebra, parse_brauer
from quiverhh.exactla import (
    Field, NotASubspace, dense, kernel_basis, row_space, sparse, subspace_quotient,
)
from quiverhh.pathalg import FreeElement, Path, Quiver
from quiverhh.groebner import GroebnerBasis, complete, normal_form
from quiverhh.quotient import build_quotient
from quiverhh.ppcomplex import (
    CochainSlice,
    GradedReport,
    bracket_pairs,
    compute_hh0,
    compute_hh1,
    ensure_uniform,
    graded_report,
    is_homogeneous,
    lie_presentation,
    loop_char_ok,
    loop_char_report,
)

from conftest import ALG_FILES, ALG_FIXTURES, TESTS, elem, fixture_algebra, wnames, written
from test_baroracle import RANDOM_KEPT, RANDOM_MAX_DIM, RANDOM_SEED, random_algebras


def pname(quiver, p):
    if p.length == 0:
        return quiver.vertices[p.base]
    return "".join(quiver.arrow_names[i] for i in p.written())


def loops_quiver():
    return Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])


def kronecker_ext():
    quiver = Quiver(
        ["e1", "e2"],
        [("b2", "e1", "e2"), ("b1", "e2", "e1"),
         ("a2", "e1", "e2"), ("a1", "e2", "e1")],
    )
    Q = Field(0)
    w = lambda *names: written(quiver, *names)
    rels = [
        elem(Q, quiver, (1, w("a1", "a2")), (-1, w("b1", "b2"))),
        elem(Q, quiver, (1, w("a2", "a1")), (-1, w("b2", "b1"))),
        elem(Q, quiver, (1, w("a1", "a2", "a1"))),
        elem(Q, quiver, (1, w("a2", "a1", "a2"))),
        elem(Q, quiver, (1, w("b1", "b2", "b1"))),
        elem(Q, quiver, (1, w("b2", "b1", "b2"))),
        elem(Q, quiver, (1, w("a1", "b2"))),
        elem(Q, quiver, (1, w("b2", "a1"))),
        elem(Q, quiver, (1, w("a2", "b1"))),
        elem(Q, quiver, (1, w("b1", "a2"))),
    ]
    return quiver, Q, build_quotient(complete(rels))


def truncated_cube(field):
    quiver = Quiver(["e"], [("x", "e", "e")])
    gb = complete([FreeElement.from_path(Path(quiver, (0, 0, 0)), field)])
    return quiver, build_quotient(gb)


def commuting_loops():
    quiver = loops_quiver()
    Q = Field(0)
    gens = [
        elem(Q, quiver, (1, written(quiver, "x", "y")),
             (-1, written(quiver, "y", "x"))),
        elem(Q, quiver, (1, written(quiver, "x", "x"))),
        elem(Q, quiver, (1, written(quiver, "y", "y"))),
    ]
    return quiver, Q, build_quotient(complete(gens))


def char2_loops():
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


def q1_index(sl):
    """{(arrow, b): column} for the Q1//B pairs of the slice."""
    return {pair: k for k, pair in enumerate(sl.q1_pairs)}


def psi0_columns(sl):
    quiver, field = sl.algebra.quiver, sl.algebra.field
    out = {}
    for col, (v, g) in enumerate(sl.q0_pairs):
        ent = {}
        for r in range(len(sl.q1_pairs)):
            c = sl.psi0[r][col]
            if c != field.zero:
                a, b = sl.q1_pairs[r]
                ent[(quiver.arrow_names[a], pname(quiver, b))] = str(c)
        out[(quiver.vertices[v], pname(quiver, g))] = ent
    return out


def psi1_columns(sl):
    quiver, field = sl.algebra.quiver, sl.algebra.field
    out = {}
    for col, (a, g) in enumerate(sl.q1_pairs):
        ent = {}
        for r in range(len(sl.tip_pairs)):
            c = sl.psi1[r][col]
            if c != field.zero:
                t, b = sl.tip_pairs[r]
                ent[(pname(quiver, t), pname(quiver, b))] = str(c)
        out[(quiver.arrow_names[a], pname(quiver, g))] = ent
    return out


def substituted(terms, alpha, gamma):
    """(q, coeff) per occurrence of arrow alpha in each (p, coeff) of terms,
    q being p with that occurrence replaced by the parallel path gamma: the
    derivation D_(alpha,gamma) as a sum of paths, before pi."""
    for p, coeff in terms:
        word = p.arrows
        for i, a in enumerate(word):
            if a == alpha:
                yield Path(p.quiver, word[:i] + gamma.arrows + word[i + 1:], p.source), coeff


def ref_image(A, terms, alpha, gamma):
    """pi(D_(alpha,gamma)(sum c*p)) over the (p, c) of terms, as sparse
    coordinates over B, by normal_form."""
    F = A.field
    f = FreeElement(A.quiver, F, exactla.combine(
        (({q: F.one}, c) for q, c in substituted(terms, alpha, gamma)), F))
    return {A.index[q]: c for q, c in normal_form(f, A.gb).terms.items()}


def direct_bracket(u, v, sl):
    """[u, v] from the pair formula: substitute, then normal_form, no table."""
    A = sl.algebra
    F = A.field
    out = [F.zero] * len(sl.q1_pairs)
    index = q1_index(sl)
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            if not ci or not cj:
                continue
            (ai, gi), (aj, gj) = sl.q1_pairs[i], sl.q1_pairs[j]
            scale = F.mul(ci, cj)
            for arrow, img, sign in (
                    (aj, ref_image(A, [(gj, F.one)], ai, gi), F.one),
                    (ai, ref_image(A, [(gi, F.one)], aj, gj), F.neg(F.one))):
                for b, c in img.items():
                    k = index[(arrow, A.basis[b])]
                    out[k] = F.add(out[k], F.mul(F.mul(scale, sign), c))
    return out


class TestBracketTable:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(ALG_FIXTURES), data=st.data())
    def test_table_matches_direct_formula(self, name, data):
        A = fixture_algebra(name)
        sl = CochainSlice(A)
        n = len(sl.q1_pairs)
        vec = st.lists(st.integers(-2, 2).map(A.field.of), min_size=n, max_size=n)
        pairs = [(data.draw(vec), data.draw(vec)) for _ in range(3)]
        expected = [direct_bracket(u, v, sl) for u, v in pairs]
        assert [bracket_pairs(u, v, sl) for u, v in pairs] == expected  # cold path map
        assert [bracket_pairs(u, v, sl) for u, v in pairs] == expected  # warm path map


def ref_bracket(sl, u, v):
    """[u, v] as the full ordered double sum over the pairs of u and v."""
    field = sl.algebra.field
    return exactla.combine(((sl._pair_bracket((i, j)), field.mul(ci, cj))
                            for i, ci in u.items() for j, cj in v.items()), field)


_BRACKET_SLICES = {}


def bracket_slice(name, field):
    """The cached CochainSlice of k[x,y]/(x^n, y^n) (name "n") or of the
    dim 19 Brauer graph algebra file, over field."""
    key = (name, field)
    if key not in _BRACKET_SLICES:
        if name == "dim19_bga":
            with open(os.path.join(TESTS, "golden", "dim19_bga.alg"), encoding="utf-8") as fh:
                A = text_algebra(fh.read().replace("field Q", "field " + field))
        else:
            A = truncated_polynomials(int(name), field)
        _BRACKET_SLICES[key] = CochainSlice(A)
    return _BRACKET_SLICES[key]


class TestAntisymmetricBracket:
    """The bracket read at i < j only, sign flipped for i > j, is the full
    double sum, antisymmetric, and 0 on (u, u)."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["2", "3", "4", "5", "dim19_bga"]), data=st.data())
    @pytest.mark.parametrize("field", ["Q", "GF(3)"])
    def test_bracket_matches_the_double_sum(self, field, name, data):
        sl = bracket_slice(name, field)
        F = sl.algebra.field
        vec = st.dictionaries(st.integers(0, len(sl.q1_pairs) - 1),
                              st.sampled_from([-1, 1, 2]).map(F.of), max_size=6)
        u, v = data.draw(vec), data.draw(vec)
        uv = sl.bracket(u, v)
        assert uv == ref_bracket(sl, u, v)
        assert uv == {i: F.neg(c) for i, c in sl.bracket(v, u).items()}
        assert sl.bracket(u, u) == {}


TWO_LOOPS = "field %s\nvertex e\narrow x: e -> e\narrow y: e -> e\n"
# k<x,y>/(words of length 4): every word of length below 4 is a basis path
SHORT_WORDS = TWO_LOOPS % "Q" + "".join(
    "rel %s\n" % "*".join(w) for w in itertools.product("xy", repeat=4))


class TestDerivationTable:
    """pi(D_(alpha,gamma)(b)) read off the table."""

    @staticmethod
    def image(text, alpha, gamma, *word):
        """The image under the pair (alpha, gamma) of the path word, gamma
        a tuple of arrow names, () for the trivial path; all in written
        order, read off as {word: coeff}."""
        A = text_algebra(text)
        quiver = A.quiver
        sl = CochainSlice(A)
        g = written(quiver, *gamma) if gamma else quiver.trivial("e")
        k = q1_index(sl)[(quiver.arrow_index[alpha], g)]
        img = sl._image(k, A.index[written(quiver, *word)])
        return {wnames(quiver, A.basis[i]): str(c) for i, c in img.items()}

    def test_sums_over_occurrences(self):
        assert self.image(SHORT_WORDS, "x", ("y",), "x", "x") == \
            {("x", "y"): "1", ("y", "x"): "1"}

    @pytest.mark.parametrize("field,want", [
        ("Q", {("x", "y"): "2"}), ("GF(2)", {}), ("GF(3)", {("x", "y"): "2"}),
        ("GF(7)", {("x", "y"): "2"})], ids=["Q", "GF2", "GF3", "GF7"])
    def test_commuting_occurrences_add_up(self, field, want):
        # xy = yx in k[x,y]/(x^3, y^3): the two occurrences in x^2 give 2xy,
        # which cancels in characteristic 2
        text = TWO_LOOPS % field + "rel x*y - y*x\nrel x^3\nrel y^3\n"
        assert self.image(text, "x", ("y",), "x", "x") == want

    def test_trivial_gamma_deletes_a_loop(self):
        assert self.image(SHORT_WORDS, "x", (), "y", "x", "y") == {("y", "y"): "1"}

    def test_missing_arrow_gives_zero(self):
        assert self.image(SHORT_WORDS, "x", ("y",), "y", "y") == {}

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_zero_images_are_one_shared_image(self, name):
        sl = CochainSlice(file_algebra(name))
        lie_presentation(sl.algebra, sl)
        zeros = [img for row in sl._images.values() for img in row.values() if not img]
        assert zeros and all(img is ppcomplex._ZERO for img in zeros)
        assert not ppcomplex._ZERO


class TestUniformity:
    def test_nonuniform_basis_rejected(self):
        quiver = Quiver(
            ["e1", "e2"],
            [("b2", "e1", "e2"), ("b1", "e2", "e1")],
        )
        Q = Field(0)
        g = elem(Q, quiver, (1, written(quiver, "b1", "b2")),
                 (1, written(quiver, "b2", "b1")))
        raw = GroebnerBasis(quiver, Q, [g])
        with pytest.raises(ValueError):
            ensure_uniform(raw)

    def test_uniform_passes(self):
        quiver, Q, A = kronecker_ext()
        ensure_uniform(A.gb)


class TestPairSpaceGuard:
    """A Q1//B column is the arrow's block start plus the class position of
    the path; a coordinate outside the arrow's class is refused."""

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_columns_and_refusals(self, name):
        A = file_algebra(name)
        sl = CochainSlice(A)
        index, one, refused = q1_index(sl), A.field.one, 0
        for arrow in range(A.quiver.n_arrows):
            for i, b in enumerate(A.basis):
                if b.parallel_to(A.quiver.arrow(arrow)):
                    assert sl._at_arrow(arrow, {i: one}) == {index[(arrow, b)]: one}
                else:
                    refused += 1
                    with pytest.raises(AssertionError, match="image left the pair space"):
                        sl._at_arrow(arrow, {i: one})
        # a one-vertex quiver has one class, so nothing there is refused
        assert bool(refused) == (A.quiver.n_vertices > 1)

    def test_bracket_of_a_foreign_image_is_refused(self, monkeypatch):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        # every derivation image moved to the trivial path at e1, which is
        # parallel to no arrow of the Kronecker quiver
        monkeypatch.setattr(CochainSlice, "_image", lambda self, k, j: {0: Q.one})
        with pytest.raises(AssertionError, match="image left the pair space"):
            sl.bracket({0: Q.one}, {1: Q.one})


class TestKroneckerExtTables:
    """The two-vertex algebra with glued Kronecker squares, worked in full."""

    def test_pair_spaces(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        assert A.dim == 8
        assert [(quiver.vertices[v], pname(quiver, b)) for v, b in sl.q0_pairs] == [
            ("e1", "e1"), ("e1", "b1b2"), ("e2", "e2"), ("e2", "b2b1")]
        assert [(quiver.arrow_names[a], pname(quiver, b)) for a, b in sl.q1_pairs] == [
            ("b2", "b2"), ("b2", "a2"), ("b1", "b1"), ("b1", "a1"),
            ("a2", "b2"), ("a2", "a2"), ("a1", "b1"), ("a1", "a1")]
        assert len(sl.tip_pairs) == 16

    def test_psi0_table(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        cols = psi0_columns(sl)
        assert cols[("e1", "e1")] == {
            ("b2", "b2"): "1", ("b1", "b1"): "-1",
            ("a2", "a2"): "1", ("a1", "a1"): "-1"}
        assert cols[("e2", "e2")] == {
            ("b2", "b2"): "-1", ("b1", "b1"): "1",
            ("a2", "a2"): "-1", ("a1", "a1"): "1"}
        # socle loops die under psi0
        assert cols[("e1", "b1b2")] == {}
        assert cols[("e2", "b2b1")] == {}

    def test_dense_views_are_new_on_each_read(self):
        # written out from psi0_cols and psi1_rows on each read, never cached
        _, _, A = kronecker_ext()
        sl = CochainSlice(A)
        for name in ("psi0", "psi1"):
            first, second = getattr(sl, name), getattr(sl, name)
            assert first == second and any(c for row in first for c in row), name
            assert first is not second and first[0] is not second[0]
            first[0][0] = "mutated"
            first.append([])
            assert getattr(sl, name) == second, name

    def test_psi1_table(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        cols = psi1_columns(sl)
        diag_plus = {("a1a2", "b1b2"): "1", ("a2a1", "b2b1"): "1"}
        diag_minus = {("a1a2", "b1b2"): "-1", ("a2a1", "b2b1"): "-1"}
        swap_ab = {("a1b2", "b1b2"): "1", ("b2a1", "b2b1"): "1"}
        swap_ba = {("b1a2", "b1b2"): "1", ("a2b1", "b2b1"): "1"}
        assert cols[("a1", "a1")] == diag_plus
        assert cols[("a2", "a2")] == diag_plus
        assert cols[("b1", "b1")] == diag_minus
        assert cols[("b2", "b2")] == diag_minus
        assert cols[("a1", "b1")] == swap_ab
        assert cols[("b2", "a2")] == swap_ab
        assert cols[("b1", "a1")] == swap_ba
        assert cols[("a2", "b2")] == swap_ba

    def test_cohomology_dimensions(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        assert compute_hh0(A, sl)[0] == 3
        k, u, dim, _ = sl.hh1_spaces()
        assert k.dim == 5
        assert u.dim == 1
        assert dim == 4

    def test_representatives(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        _, reps = compute_hh1(A, sl)
        assert [sl.format_vector(r) for r in reps] == [
            "(b2,a2) - (a1,b1)",
            "(b1,b1) + (a1,a1)",
            "(b1,a1) - (a2,b2)",
            "(a2,a2) - (a1,a1)",
        ]

    def test_pair_bracket_identity(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        one, zero = Q.one, Q.zero

        def unit(arrow, bname):
            vec = [zero] * len(sl.q1_pairs)
            key = (quiver.arrow_index[arrow], written(quiver, bname))
            vec[q1_index(sl)[key]] = one
            return vec

        # [(a1,b1),(b1,a1)] = (b1,b1) - (a1,a1)
        w = bracket_pairs(unit("a1", "b1"), unit("b1", "a1"), sl)
        assert sl.format_vector(w) == "(b1,b1) - (a1,a1)"
        # diagonal pairs on disjoint arrows commute
        w = bracket_pairs(unit("a1", "a1"), unit("a2", "a2"), sl)
        assert all(c == zero for c in w)
        # eigenvector relation for the diagonal action
        w = bracket_pairs(unit("a1", "a1"), unit("a1", "b1"), sl)
        assert sl.format_vector(w) == "-(a1,b1)"

    def test_lie_structure(self):
        quiver, Q, A = kronecker_ext()
        sl = CochainSlice(A)
        lie = lie_presentation(A, sl)
        assert lie.dim == 4
        assert lie.derived_dims == [4, 3, 3]
        assert not lie.solvable
        const = lie.structure_constants

        def vec(d):
            return [Q.of(d.get(i, 0)) for i in range(4)]

        assert const[(0, 2)] == vec({3: -2})
        assert const[(0, 3)] == vec({0: -1})
        assert const[(2, 3)] == vec({2: 1})
        # h1 is central
        assert const[(0, 1)] == vec({})
        assert const[(1, 2)] == vec({})
        assert const[(1, 3)] == vec({})

    def test_graded_report(self):
        quiver, Q, A = kronecker_ext()
        gr = graded_report(A)
        assert gr.homogeneous
        assert gr.dim_L_minus1 == 0
        assert gr.dim_L00 == 2
        assert gr.graded_dims == [4]


class TestTruncatedCube:
    def test_char_three_psi1_vanishes(self):
        quiver, A = truncated_cube(Field(3))
        sl = CochainSlice(A)
        F3 = A.field
        assert all(c == F3.zero for row in sl.psi1 for c in row)
        assert compute_hh1(A, sl)[0] == 3

    def test_char_three_brackets(self):
        quiver, A = truncated_cube(Field(3))
        sl = CochainSlice(A)
        lie = lie_presentation(A, sl)
        assert lie.basis_labels == ["(x,e)", "(x,x)", "(x,x^2)"]
        F3 = A.field
        # [x d, x^2 d] picks up the deleted power: Witt algebra fragment
        assert lie.structure_constants[(0, 1)] == [F3.one, F3.zero, F3.zero]
        assert lie.structure_constants[(0, 2)] == [F3.zero, F3.of(2), F3.zero]
        assert lie.structure_constants[(1, 2)] == [F3.zero, F3.zero, F3.one]
        assert lie.derived_dims == [3, 3]
        assert not lie.solvable

    def test_char_three_graded(self):
        quiver, A = truncated_cube(Field(3))
        gr = graded_report(A)
        assert gr.homogeneous
        assert gr.dim_L_minus1 == 1
        assert gr.dim_L00 == 1
        assert gr.graded_dims == [1, 1]

    def test_char_zero_is_solvable(self):
        quiver, A = truncated_cube(Field(0))
        sl = CochainSlice(A)
        lie = lie_presentation(A, sl)
        assert lie.dim == 2
        assert lie.basis_labels == ["(x,x)", "(x,x^2)"]
        assert lie.derived_dims == [2, 1, 0]
        assert lie.solvable
        gr = graded_report(A, sl)
        assert gr.dim_L_minus1 == 0

    def test_loop_power_blocked_in_char_three(self):
        quiver, A = truncated_cube(Field(3))
        assert loop_char_report(A) == [("x", 3, True)]
        assert not loop_char_ok(A)
        quiver, A = truncated_cube(Field(0))
        assert loop_char_report(A) == [("x", 3, False)]
        assert loop_char_ok(A)


class TestCommutingLoops:
    def test_dimensions(self):
        quiver, Q, A = commuting_loops()
        sl = CochainSlice(A)
        assert compute_hh0(A, sl)[0] == 4
        assert compute_hh1(A, sl)[0] == 4

    def test_solvable_but_not_abelian(self):
        quiver, Q, A = commuting_loops()
        lie = lie_presentation(A)
        assert lie.derived_dims == [4, 2, 0]
        assert lie.solvable
        nonzero = {(i, j) for (i, j), c in lie.structure_constants.items()
                   if i < j and any(x != Q.zero for x in c)}
        assert nonzero == {(0, 3), (1, 2)}

    def test_graded(self):
        quiver, Q, A = commuting_loops()
        gr = graded_report(A)
        assert gr.homogeneous
        assert gr.dim_L_minus1 == 0
        assert gr.dim_L00 == 2
        assert gr.graded_dims == [2, 2]


class TestCharTwoLoops:
    def test_degree_minus_one_survives(self):
        quiver, F2, A = char2_loops()
        sl = CochainSlice(A)
        cols = psi1_columns(sl)
        assert cols[("x", "e")] == {("xxx", "xx"): "1"}
        assert cols[("y", "e")] == {("xxx", "xx"): "1"}
        gr = graded_report(A, sl)
        assert gr.dim_L_minus1 == 1
        # the surviving derivation sends both loops to 1
        _, reps = compute_hh1(A, sl)
        assert sl.format_vector(reps[0]) == "(y,e) + (x,e)"

    def test_dimensions(self):
        quiver, F2, A = char2_loops()
        sl = CochainSlice(A)
        assert A.dim == 6
        assert compute_hh1(A, sl)[0] == 10
        lie = lie_presentation(A, sl)
        assert lie.derived_dims == [10, 9, 7, 6, 2, 0]
        assert lie.solvable

    def test_loop_report_flags_even_power(self):
        quiver, F2, A = char2_loops()
        assert loop_char_report(A) == [("y", 2, True), ("x", 3, False)]
        assert not loop_char_ok(A)


class TestGradedFallback:
    def test_inhomogeneous_skips_graded_dims(self):
        quiver = Quiver(["e"], [("x", "e", "e")])
        Q = Field(0)
        g = elem(Q, quiver, (1, Path(quiver, (0, 0, 0))),
                 (-1, Path(quiver, (0, 0))))
        A = build_quotient(complete([g]))
        assert not is_homogeneous(A.gb)
        gr = graded_report(A)
        assert not gr.homogeneous
        assert gr.graded_dims is None
        assert gr.dim_L_minus1 == 0
        assert gr.dim_L00 == 0
        lie = lie_presentation(A)
        assert lie.dim == 1
        assert lie.basis_labels == ["(x,x) - (x,x^2)"]


# The graded pieces as first written: Ker psi1 cut down to each coordinate
# subspace as a Subspace, then a quotient by the image columns.  Kept as
# the reference for the rank formula.

def ref_coordinate_section(space, indices):
    """space cap {x : x_c = 0 outside indices}."""
    field = space.field
    zero = field.zero
    outside = [c for c in range(space.ambient_dim) if c not in indices]
    if not space.basis:
        return space
    basis = [dense(vec, space.ambient_dim, field) for vec in space.basis]
    # lambda with lambda . M = 0, M = basis restricted to outside columns:
    # right kernel of the transpose
    rows = [sparse([vec[c] for vec in basis]) for c in outside]
    coeffs = kernel_basis(rows, field, ncols=len(basis))
    vecs = []
    for lam in coeffs.basis:
        v = [zero] * space.ambient_dim
        for li, l in enumerate(dense(lam, len(basis), field)):
            if not l:
                continue
            for c, x in enumerate(basis[li]):
                if x:
                    v[c] = field.add(v[c], field.mul(l, x))
        vecs.append(sparse(v))
    return row_space(vecs, field, space.ambient_dim)


def image_columns(sl, degree):
    """The sparse psi0 columns of the Q0//B pairs (v, gamma) with l(gamma) = degree."""
    return [col for col, (_, g) in zip(sl.psi0_cols, sl.q0_pairs) if g.length == degree]


def ref_graded_report(algebra, slice_=None):
    """L_{-1}, L_00 always; the L_i dimensions when the ideal is homogeneous.

    Pair (alpha, gamma) has degree l(gamma) - 1; L_i is the degree-i part
    of Ker psi1 modulo the degree-i image columns (for i = -1 the plain
    intersection, no quotient).
    """
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    k, u, hh1_dim, _ = sl.hh1_spaces()

    deg_indices = {}
    for idx, (arr, b) in enumerate(sl.q1_pairs):
        deg_indices.setdefault(b.length - 1, set()).add(idx)
    minus1 = ref_coordinate_section(k, deg_indices.get(-1, set()))
    dim_l_minus1 = minus1.dim

    diag = {
        idx for idx, (arr, b) in enumerate(sl.q1_pairs)
        if b.length == 1 and b.arrows[0] == arr
    }
    d00 = ref_coordinate_section(k, diag)
    u00 = row_space(image_columns(sl, 0), field, len(sl.q1_pairs))
    dim_l00 = subspace_quotient(d00, u00)[0]

    homogeneous = is_homogeneous(algebra.gb)
    graded_dims = None
    if homogeneous:
        max_deg = max((b.length - 1 for _, b in sl.q1_pairs), default=-1)
        graded_dims = []
        for deg in range(0, max_deg + 1):
            ki = ref_coordinate_section(k, deg_indices.get(deg, set()))
            ui = row_space(image_columns(sl, deg), field, len(sl.q1_pairs))
            graded_dims.append(subspace_quotient(ki, ui)[0])
    return GradedReport(homogeneous, dim_l_minus1, dim_l00, graded_dims)




def text_algebra(text):
    field, quiver, rels = parse_algebra(text)
    return build_quotient(complete(rels, quiver=quiver, field=field))


def file_algebra(name):
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        return text_algebra(fh.read())


def corpus_algebras(graphs):
    """A and gr A over Q of each graph."""
    field = Field(0)
    for graph in graphs:
        quiver, _ = build_quiver_and_cycles(graph)
        for rels in (sum(generate_relations(graph, field), []), gr_relations(graph, field)):
            yield build_quotient(complete(rels, quiver=quiver, field=field))


def truncated_polynomials(n, field):
    """k[x,y]/(x^n, y^n)."""
    return text_algebra("field %s\nvertex e\narrow x: e -> e\narrow y: e -> e\n"
                        "rel x*y - y*x\nrel x^%d\nrel y^%d\n" % (field, n, n))


def graded_key(rep):
    return rep.homogeneous, rep.dim_L_minus1, rep.dim_L00, rep.graded_dims


class TestGradedRanks:
    """Each graded piece is |S| - rank(psi1[:, S]) less the rank of its
    image columns; it equals the Subspace reference everywhere."""

    @staticmethod
    def assert_matches_reference(A):
        assert graded_key(graded_report(A)) == graded_key(ref_graded_report(A))

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_fixture_files(self, name):
        self.assert_matches_reference(file_algebra(name))

    @pytest.mark.parametrize("field", ["Q", "GF(2)", "GF(3)"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_truncated_polynomials(self, n, field):
        self.assert_matches_reference(truncated_polynomials(n, field))

    @pytest.mark.parametrize("index", range(20))
    def test_corpus_a_and_gr(self, index):
        graph = corpus(DEFAULT_SEED, 20)[index]
        field = Field(0)
        quiver, _ = build_quiver_and_cycles(graph)
        for rels in (sum(generate_relations(graph, field), []), gr_relations(graph, field)):
            self.assert_matches_reference(
                build_quotient(complete(rels, quiver=quiver, field=field)))

    def test_corpus_of_100_a_and_gr(self):
        for A in corpus_algebras(corpus(DEFAULT_SEED, 100, max_dim=40)):
            self.assert_matches_reference(A)

    def test_random_algebras(self):
        for A in random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM):
            self.assert_matches_reference(A)

    def test_image_column_outside_its_piece_raises(self):
        """A degree-0 psi0 column with an entry off the diagonal pairs is
        not in the L_00 coordinate subspace.  hh1_spaces is cached first,
        so only the graded check can see the change."""
        for report in (graded_report, ref_graded_report):
            _, _, A = kronecker_ext()
            sl = CochainSlice(A)
            sl.hh1_spaces()
            col = next(j for j, (_, g) in enumerate(sl.q0_pairs) if g.length == 0)
            row = next(r for r, (a, b) in enumerate(sl.q1_pairs)
                       if not (b.length == 1 and b.arrows[0] == a))
            assert row not in sl.psi0_cols[col]
            sl.psi0_cols[col][row] = A.field.one
            with pytest.raises(NotASubspace):
                report(A, sl)

    def test_image_column_outside_its_degree_raises(self):
        """The same for a degree-1 psi0 column given an entry of degree 2."""
        for report in (graded_report, ref_graded_report):
            A = truncated_polynomials(4, "Q")
            sl = CochainSlice(A)
            sl.hh1_spaces()
            col = next(j for j, (_, g) in enumerate(sl.q0_pairs) if g.length == 1)
            row = next(r for r, (_, b) in enumerate(sl.q1_pairs) if b.length == 3)
            sl.psi0_cols[col][row] = A.field.one
            with pytest.raises(NotASubspace):
                report(A, sl)

    @pytest.mark.parametrize("make", [
        lambda: kronecker_ext()[2],
        lambda: truncated_polynomials(4, "Q"),
        lambda: file_algebra(os.path.join("golden", "dim19_bga.alg")),
    ], ids=["kronecker-ext", "xy4-q", "dim19-inhomogeneous"])
    def test_each_piece_costs_at_most_two_eliminations(self, make, monkeypatch):
        A = make()
        sl = CochainSlice(A)
        sl.hh1_spaces()
        calls = [0]
        real = exactla.rref

        def counting(rows, field):
            calls[0] += 1
            return real(rows, field)

        monkeypatch.setattr(exactla, "rref", counting)
        # a module that binds rref by name calls its own binding
        monkeypatch.setattr(ppcomplex, "rref", counting)
        rep = graded_report(A, sl)
        pieces = 2 + len(rep.graded_dims or [])
        assert calls[0] <= 2 * pieces


# The Lie step as first written: every pair of representatives bracketed,
# every constant stored both ways round as a dense list, and the derived
# series eliminated in one block.  Kept as the reference for the graded step.

def ref_derived_dims(dim, const, field):
    """Dims of L, [L,L], ... until stable; const[(i, j)] is the sparse
    [h_i, h_j] for every i != j."""
    basis = [{i: field.one} for i in range(dim)]
    dims = [dim]
    while True:
        gens = [exactla.combine(((const[(i, j)], field.mul(xi, yj))
                                 for i, xi in x.items() for j, yj in y.items() if i != j),
                                field)
                for n, x in enumerate(basis) for y in basis[n + 1:]]
        basis = row_space(gens, field, dim).basis
        dims.append(len(basis))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims


def ref_lie_presentation(algebra, slice_=None):
    """Structure constants, derived series and solvability of HH1."""
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    k, u, dim, reps = sl.hh1_spaces()
    vecs = [sparse(r) for r in reps]
    const = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = sl.bracket(vecs[i], vecs[j])
            if not k.contains(w):
                raise AssertionError("bracket of cocycles left Ker psi1")
            cij = exactla.coset_coordinates(w, k, u)
            const[(i, j)] = cij
            const[(j, i)] = {m: field.neg(c) for m, c in cij.items()}
    dims = ref_derived_dims(dim, const, field) if dim else [0]
    labels = [sl.format_vector(v) for v in vecs]
    table = {ij: dense(c, dim, field) for ij, c in const.items()}
    return ppcomplex.LiePresentation(dim, labels, reps, table, dims, dims[-1] == 0)


def brauer_file_algebras(name):
    """A and gr A of a Brauer graph file."""
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        field, graph = parse_brauer(fh.read())
    quiver, _ = build_quiver_and_cycles(graph)
    return [build_quotient(complete(rels, quiver=quiver, field=field))
            for rels in (sum(generate_relations(graph, field), []),
                         gr_relations(graph, field))]


BG_FILES = sorted(os.path.relpath(p, TESTS) for d in ("data", "golden")
                  for p in glob.glob(os.path.join(TESTS, d, "*.bg")))


def pair_degrees(sl, vec):
    return {sl.q1_pairs[i][1].length - 1 for i in sparse(vec)}


class TestGradedLieStep:
    """The graded Lie step gives the reference's labels, constants, derived
    series and solvability, and skips only brackets that are zero by degree."""

    @staticmethod
    def assert_matches_reference(A, monkeypatch):
        sl = CochainSlice(A)
        homogeneous = is_homogeneous(A.gb)
        _, _, dim, reps = sl.hh1_spaces()
        degrees = [pair_degrees(sl, r) for r in reps]
        if homogeneous:
            assert all(len(d) == 1 for d in degrees), degrees
        present = {b.length - 1 for _, b in sl.q1_pairs}
        calls = []
        real = CochainSlice.bracket

        def counting(self, u, v):
            calls.append((pair_degrees(sl, u), pair_degrees(sl, v)))
            return real(self, u, v)

        with monkeypatch.context() as m:
            m.setattr(CochainSlice, "bracket", counting)
            lie = lie_presentation(A, sl)
        if homogeneous:
            sums = [min(du) + min(dv) for du, dv in calls]
            assert all(s in present for s in sums)
            wanted = sum(1 for i in range(dim) for j in range(i + 1, dim)
                         if min(degrees[i]) + min(degrees[j]) in present)
            assert len(calls) == wanted
        else:
            assert len(calls) == dim * (dim - 1) // 2
        ref = ref_lie_presentation(A, CochainSlice(A))
        assert (lie.dim, lie.basis_labels, lie.basis_vectors) == \
            (ref.dim, ref.basis_labels, ref.basis_vectors)
        const = lie.structure_constants
        assert len(const) == len(ref.structure_constants)
        assert list(const) == list(ref.structure_constants)
        for ij, c in ref.structure_constants.items():
            assert const[ij] == c and const.get(ij) == c, ij
        assert dict(const.items()) == ref.structure_constants
        assert (lie.derived_dims, lie.solvable) == (ref.derived_dims, ref.solvable)
        return dim * (dim - 1) // 2 - len(calls)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_fixture_files(self, name, monkeypatch):
        self.assert_matches_reference(file_algebra(name), monkeypatch)

    @pytest.mark.parametrize("name", BG_FILES)
    def test_brauer_files(self, name, monkeypatch):
        for A in brauer_file_algebras(name):
            self.assert_matches_reference(A, monkeypatch)

    @pytest.mark.parametrize("field", ["Q", "GF(2)", "GF(3)"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_truncated_polynomials(self, n, field, monkeypatch):
        skipped = self.assert_matches_reference(truncated_polynomials(n, field), monkeypatch)
        # the top degree 2n-3 carries pairs, twice it does not
        assert skipped > 0

    def test_random_algebras(self, monkeypatch):
        algebras = random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM)
        assert {is_homogeneous(A.gb) for A in algebras} == {False, True}
        for A in algebras:
            self.assert_matches_reference(A, monkeypatch)

    def test_mixed_degree_representative_raises(self):
        A = truncated_polynomials(4, "Q")
        sl = CochainSlice(A)
        k, u, dim, reps = sl.hh1_spaces()
        i = next(i for i in range(dim) if pair_degrees(sl, reps[i]) != pair_degrees(sl, reps[0]))
        mixed = [A.field.add(x, y) for x, y in zip(reps[0], reps[i])]
        sl._hh1 = (k, u, dim, [mixed] + reps[1:])
        with pytest.raises(AssertionError, match="degrees"):
            lie_presentation(A, sl)

    def test_bounded_series_brackets_less_than_the_reference(self, monkeypatch):
        A = truncated_polynomials(6, "Q")
        calls, formed = [0], [0]

        class Formed(ppcomplex._Brackets):
            def __init__(self, pairs, *args):
                formed[0] += len(pairs)
                super().__init__(pairs, *args)

            def __getitem__(self, n):
                calls[0] += 1
                return super().__getitem__(n)

        monkeypatch.setattr(ppcomplex, "_Brackets", Formed)
        lie = lie_presentation(A)
        assert lie.derived_dims == ref_lie_presentation(A).derived_dims
        # the reference brackets every pair of basis rows of each term, the
        # graded series every pair whose degrees add up to a present one
        wanted = sum(d * (d - 1) // 2 for d in lie.derived_dims[:-1])
        assert 0 < calls[0] < formed[0] < wanted

    @pytest.mark.parametrize("make,homogeneous", [
        (lambda: truncated_polynomials(4, "Q"), True),
        (lambda: file_algebra(os.path.join("golden", "dim19_bga.alg")), False),
    ], ids=["homogeneous", "inhomogeneous"])
    def test_homogeneity_is_tested_once_per_slice(self, make, homogeneous, monkeypatch):
        A = make()
        calls = [0]
        real = ppcomplex.is_homogeneous

        def counting(gb):
            calls[0] += 1
            return real(gb)

        monkeypatch.setattr(ppcomplex, "is_homogeneous", counting)
        sl = CochainSlice(A)
        lie_presentation(A, sl)
        rep = graded_report(A, sl)
        assert calls[0] == 1
        assert rep.homogeneous == sl.homogeneous == homogeneous

    def test_normal_form_runs_once_per_arrow_and_basis_path(self, monkeypatch):
        A = truncated_polynomials(6, "Q")
        inputs = []
        real = quotient.normal_form

        def counting(f, *args, **kwargs):
            inputs.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(quotient, "normal_form", counting)
        sl = CochainSlice(A)
        first = lie_presentation(A, sl)
        # each input is one path x * basis[i], read as (x, i)
        keys = [(p.arrows[-1], A.index[Path(A.quiver, p.arrows[:-1], p.base)])
                for f in inputs for p in f.terms]
        assert 0 < len(keys) == len(inputs) == len(set(keys))
        filled = {(k, j) for k, row in sl._images.items() for j in row}
        inputs.clear()
        again = lie_presentation(A, sl)
        assert inputs == [] and {(k, j) for k, row in sl._images.items() for j in row} == filled
        assert again.structure_constants == first.structure_constants

    @staticmethod
    def graded_constants(n):
        """A = k[x,y]/(x^n, y^n) over Q, the degrees of its HH1
        representatives, and the constants with one wrong-degree entry
        added to each: a representative whose degree is not that of the
        others in the bracket."""
        A = truncated_polynomials(n, "Q")
        sl = CochainSlice(A)
        lie = lie_presentation(A, sl)
        degrees = [min(pair_degrees(sl, r)) for r in lie.basis_vectors]

        def corrupt(c):
            m = next(m for m, d in enumerate(degrees) if d != degrees[min(c)])
            return {**c, m: A.field.one}

        return A, degrees, lie.structure_constants.nonzero, corrupt

    def test_bracket_off_its_degree_raises(self, monkeypatch):
        A, _, _, corrupt = self.graded_constants(4)
        real = ppcomplex.coset_coordinates

        def corrupted(w, k, u):
            c = real(w, k, u)
            return corrupt(c) if c else c

        monkeypatch.setattr(ppcomplex, "coset_coordinates", corrupted)
        with pytest.raises(AssertionError, match="left degree"):
            lie_presentation(A, CochainSlice(A))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_derived_term_off_the_previous_raises(self, n):
        A, degrees, nonzero, corrupt = self.graded_constants(n)
        assert ppcomplex._derived_dims(degrees, nonzero, A.field) == \
            ref_lie_presentation(A).derived_dims
        bad = {ij: corrupt(c) for ij, c in nonzero.items()}
        with pytest.raises(AssertionError, match="left the previous term"):
            ppcomplex._derived_dims(degrees, bad, A.field)

    def test_structure_constants_are_a_read_only_mapping(self):
        quiver, Q, A = kronecker_ext()
        const = lie_presentation(A).structure_constants
        assert isinstance(const, Mapping)
        assert (0, 2) in const and (2, 0) in const
        for key in [(1, 1), (0, 4), (-1, 0), 3, "ab", (0, 1, 2)]:
            assert key not in const
            assert const.get(key) is None
            with pytest.raises(KeyError):
                const[key]
        with pytest.raises(TypeError):
            const[(0, 2)] = [Q.zero] * 4
        # every read is a new list
        const[(0, 2)][3] = Q.one
        assert const[(0, 2)] == [Q.zero, Q.zero, Q.zero, Q.of(-2)]
        assert const[(2, 0)] == [Q.zero, Q.zero, Q.zero, Q.of(2)]


def ref_build_psi1(sl):
    """psi1 rows as first written: every Q1//B pair substituted into every
    Groebner element, whether or not the element uses its arrow."""
    a = sl.algebra
    tip_index = {pair: i for i, pair in enumerate(sl.tip_pairs)}
    rows = [{} for _ in sl.tip_pairs]
    elems = [(t, list(g.terms.items())) for t, g in zip(a.gb.tips(), a.gb.elements)]
    for col, (arr, gamma) in enumerate(sl.q1_pairs):
        for tg, terms in elems:
            for bi, c in ref_image(a, terms, arr, gamma).items():
                rows[tip_index[(tg, a.basis[bi])]][col] = c
    return rows


class TestPsi1ByArrow:
    """Substituting each arrow only into the elements that use it gives the
    reference rows, entry order included."""

    @staticmethod
    def assert_matches_reference(A):
        sl = CochainSlice(A)
        assert sl.tip_pairs == [(t, b) for t in A.gb.tips() for b in A.basis
                                if b.parallel_to(t)]
        ref = ref_build_psi1(sl)
        assert [list(r.items()) for r in sl.psi1_rows] == [list(r.items()) for r in ref]

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_fixture_files(self, name):
        self.assert_matches_reference(file_algebra(name))

    @pytest.mark.parametrize("name", BG_FILES)
    def test_brauer_files(self, name):
        for A in brauer_file_algebras(name):
            self.assert_matches_reference(A)

    def test_random_algebras(self):
        for A in random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM):
            self.assert_matches_reference(A)

    @pytest.mark.parametrize("field", ["Q", "GF(3)"])
    def test_truncated_polynomials(self, field):
        self.assert_matches_reference(truncated_polynomials(5, field))
