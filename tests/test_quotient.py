import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.exactla import Field
from quiverhh.pathalg import FreeElement, Path, Quiver, compose, format_element
from quiverhh.groebner import CapExceeded, complete, normal_form
from quiverhh.quotient import InfiniteDimensional, build_quotient, project_sparse

from conftest import ALG_FIXTURES, elem, fixture_algebra, wnames, written


# -- test-local references: coordinates read off a normal form, and the
# product of dense coordinate vectors through path_coords --

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
        coords = project_sparse(x3.terms.items(), A)
        assert coords == nf_coords(x3, A)
        assert format_element(element_of(coords, A)) == "y*x^2"

    def test_relation_projects_to_zero(self):
        quiver, F2, A = char2_algebra()
        rel = elem(F2, quiver, (1, written(quiver, "x", "y")),
                   (1, written(quiver, "y", "x")))
        assert project_sparse(rel.terms.items(), A) == {} == nf_coords(rel, A)

    def test_coords_round_trip(self):
        quiver, F2, A = char2_algebra()
        f = elem(F2, quiver, (1, written(quiver, "y", "x")),
                 (1, written(quiver, "x", "x")))
        coords = project_sparse(f.terms.items(), A)
        assert coords == nf_coords(f, A)
        assert project_sparse(element_of(coords, A).terms.items(), A) == coords


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
        assert [project_sparse(f.terms.items(), A) for f in fs] == expected  # cold map
        assert [project_sparse(f.terms.items(), A) for f in fs] == expected  # warm map

    def test_entries_are_shared(self):
        quiver, _, A = char2_algebra()
        p = written(quiver, "x", "x", "x")
        assert A.path_coords(p) is A.path_coords(p)
        assert A.path_coords(p) == {A.index[written(quiver, "y", "x", "x")]: 1}


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
