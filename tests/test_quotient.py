import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.exactla import Field
from quiverhh.pathalg import FreeElement, Path, Quiver, compose, format_element
from quiverhh.groebner import complete, normal_form
from quiverhh.quotient import (
    InfiniteDimensional,
    algebra_multiply,
    build_quotient,
    multiply_coords,
    project_element,
    project_pi,
)

from conftest import ALG_FIXTURES, elem, fixture_algebra, wnames, written


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


class TestProjection:
    def test_cube_projects_to_tail(self):
        quiver, F2, A = char2_algebra()
        x3 = elem(F2, quiver, (1, written(quiver, "x", "x", "x")))
        assert format_element(project_element(x3, A)) == "y*x^2"

    def test_relation_projects_to_zero(self):
        quiver, F2, A = char2_algebra()
        rel = elem(F2, quiver, (1, written(quiver, "x", "y")),
                   (1, written(quiver, "y", "x")))
        assert project_pi(rel, A) == A.zero_vector()

    def test_coords_round_trip(self):
        quiver, F2, A = char2_algebra()
        f = elem(F2, quiver, (1, written(quiver, "y", "x")),
                 (1, written(quiver, "x", "x")))
        vec = project_pi(f, A)
        assert project_pi(A.element_of(vec), A) == vec


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
        expected = [A.coords_of(normal_form(f, A.gb)) for f in fs]
        assert [project_pi(f, A) for f in fs] == expected  # cold map
        assert [project_pi(f, A) for f in fs] == expected  # warm map

    def test_entries_are_shared(self):
        quiver, _, A = char2_algebra()
        p = written(quiver, "x", "x", "x")
        assert A.path_coords(p) is A.path_coords(p)
        assert A.path_coords(p) == {A.index[written(quiver, "y", "x", "x")]: 1}


class TestMultiplication:
    def test_loops_commute_in_quotient(self):
        quiver, A = commuting_algebra(Field(0))
        Q = Field(0)
        cx = A.coords_of(elem(Q, quiver, (1, written(quiver, "x"))))
        cy = A.coords_of(elem(Q, quiver, (1, written(quiver, "y"))))
        xy = multiply_coords(cx, cy, A)
        yx = multiply_coords(cy, cx, A)
        assert xy == yx
        assert A.element_of(xy) == elem(Q, quiver, (1, written(quiver, "y", "x")))

    def test_memoized_products_are_shared(self):
        quiver, A = commuting_algebra(Field(0))
        first = algebra_multiply(2, 1, A)
        again = algebra_multiply(2, 1, A)
        assert first is again

    def test_basis_product_staying_in_basis_skips_reduction(self):
        quiver, F2, A = char2_algebra()
        iy = A.index[written(quiver, "y")]
        ix = A.index[written(quiver, "x")]
        vec = algebra_multiply(iy, ix, A)
        assert A.element_of(vec) == elem(F2, quiver,
                                         (1, written(quiver, "y", "x")))

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
        left = multiply_coords(multiply_coords(a, b, A), c, A)
        right = multiply_coords(a, multiply_coords(b, c, A), A)
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
        lhs = multiply_coords(a, bc, A)
        rhs = [F5.add(u, v) for u, v in zip(multiply_coords(a, b, A),
                                            multiply_coords(a, c, A))]
        assert lhs == rhs
