import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.exactla import Field
from quiverhh.pathalg import FreeElement, Path, Quiver
from quiverhh.groebner import GroebnerBasis, complete, normal_form
from quiverhh.quotient import build_quotient
from quiverhh.ppcomplex import (
    CochainSlice,
    NotParallel,
    bracket_pairs,
    compute_hh0,
    compute_hh1,
    ensure_uniform,
    graded_report,
    is_homogeneous,
    lie_presentation,
    loop_char_ok,
    loop_char_report,
    substitute,
)

from conftest import ALG_FIXTURES, elem, fixture_algebra, wnames, written


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


def direct_bracket(u, v, sl):
    """[u, v] from the pair formula: substitute, then normal_form, no table."""
    A = sl.algebra
    F = A.field
    out = [F.zero] * len(sl.q1_pairs)
    for i, ci in enumerate(u):
        for j, cj in enumerate(v):
            if not ci or not cj:
                continue
            (ai, gi), (aj, gj) = sl.q1_pairs[i], sl.q1_pairs[j]
            scale = F.mul(ci, cj)
            for arrow, img, sign in (
                    (aj, substitute(FreeElement.from_path(gj, F), ai, gi), F.one),
                    (ai, substitute(FreeElement.from_path(gi, F), aj, gj), F.neg(F.one))):
                for p, c in normal_form(img, A.gb).terms.items():
                    k = sl.q1_index[(arrow, p)]
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
        assert [bracket_pairs(u, v, sl) for u, v in pairs] == expected  # cold table
        assert [bracket_pairs(u, v, sl) for u, v in pairs] == expected  # warm table


class TestSubstitute:
    def test_sums_over_occurrences(self):
        quiver = loops_quiver()
        Q = Field(0)
        f = elem(Q, quiver, (1, written(quiver, "x", "x")))
        img = substitute(f, quiver.arrow_index["x"], quiver.arrow("y"))
        assert img == elem(Q, quiver, (1, written(quiver, "x", "y")),
                           (1, written(quiver, "y", "x")))

    def test_missing_arrow_gives_zero(self):
        quiver = loops_quiver()
        Q = Field(0)
        f = elem(Q, quiver, (1, written(quiver, "y", "y")))
        assert substitute(f, quiver.arrow_index["x"], quiver.arrow("y")).is_zero

    def test_trivial_target_deletes(self):
        quiver = loops_quiver()
        Q = Field(0)
        f = elem(Q, quiver, (1, written(quiver, "y", "x", "y")))
        img = substitute(f, quiver.arrow_index["x"], quiver.trivial("e"))
        assert img == elem(Q, quiver, (1, written(quiver, "y", "y")))

    def test_arrow_as_path_accepted(self):
        quiver = loops_quiver()
        Q = Field(0)
        f = elem(Q, quiver, (1, written(quiver, "x")))
        img = substitute(f, quiver.arrow("x"), quiver.arrow("y"))
        assert img == elem(Q, quiver, (1, written(quiver, "y")))

    def test_long_alpha_rejected(self):
        quiver = loops_quiver()
        Q = Field(0)
        f = elem(Q, quiver, (1, written(quiver, "x")))
        with pytest.raises(ValueError):
            substitute(f, written(quiver, "x", "x"), quiver.arrow("y"))

    def test_nonparallel_rejected(self):
        quiver, Q, A = kronecker_ext()
        f = elem(Q, quiver, (1, written(quiver, "b2")))
        with pytest.raises(NotParallel):
            substitute(f, quiver.arrow_index["b2"], quiver.arrow("b1"))
        with pytest.raises(NotParallel):
            substitute(f, quiver.arrow_index["b2"], quiver.trivial("e1"))


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
            vec[sl.q1_index[key]] = one
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
