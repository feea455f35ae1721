"""Q scalars in canonical form: ints while integral, Fractions otherwise.

``Field(0)`` must give the values a field of plain ``Fraction`` arithmetic
gives, through every elimination entry point, while storing each
coefficient as an ``int`` or as a ``Fraction`` with denominator > 1.
"""

import operator
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quiverhh.exactla import (
    Field, add_to, coset_coordinates, combine, kernel_basis, row_space, rref, subspace_quotient,
)


class FractionField:
    """Q with every scalar a Fraction and plain operator arithmetic."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def of(n):
        return Fraction(n)


Q = Field(0)
REF = FractionField()


def canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def all_canonical(vecs):
    return all(canonical(c) for vec in vecs for c in vec.values())


scalars = st.one_of(st.integers(-6, 6), st.fractions(-4, 4, max_denominator=4))


@st.composite
def sparse_rows(draw, max_rows=6, max_cols=6):
    """(rows as plain rationals, ncols): each row a sparse {column: value}."""
    ncols = draw(st.integers(0, max_cols))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
        row = {j: draw(scalars) for j in sorted(cols)}
        rows.append({j: c for j, c in row.items() if c})
    return rows, ncols


def over(field, rows):
    return [{j: field.of(c) for j, c in row.items()} for row in rows]


class TestCanonicalScalars:
    def test_of_and_inv_give_ints_when_integral(self):
        assert type(Q.of(3)) is int and Q.of(3) == 3
        assert type(Q.of(Fraction(6, 2))) is int
        assert type(Q.inv(-1)) is int and Q.inv(-1) == -1
        assert type(Q.inv(Fraction(1, 3))) is int and Q.inv(Fraction(1, 3)) == 3
        assert Q.inv(2) == Fraction(1, 2) and type(Q.inv(2)) is Fraction
        assert type(Q.zero) is int and type(Q.one) is int

    def test_a_computed_one_is_the_fields_one(self):
        # add_to skips the product for c that is field.one
        assert Q.mul(Q.inv(3), 3) is Q.one
        assert Q.add(Fraction(1, 2), Fraction(1, 2)) is Q.one
        assert Q.sub(Fraction(3, 2), Fraction(1, 2)) is Q.one

    @given(scalars, scalars)
    def test_operations_match_fractions(self, a, b):
        x, y = Q.of(a), Q.of(b)
        pairs = [(Q.add(x, y), a + b), (Q.sub(x, y), a - b), (Q.mul(x, y), a * b),
                 (Q.neg(x), -a)]
        if b:
            pairs.append((Q.inv(y), 1 / Fraction(b)))
            pairs.append((Q.div(x, y), Fraction(a) / b))
        for got, want in pairs:
            assert got == want and canonical(got)

    @settings(max_examples=150, deadline=None)
    @given(sparse_rows(), st.lists(scalars.filter(bool), min_size=6, max_size=6))
    def test_combine_and_add_to(self, m, coeffs):
        rows, _ = m
        got = combine(zip(over(Q, rows), map(Q.of, coeffs)), Q)
        want = combine(zip(over(REF, rows), map(REF.of, coeffs)), REF)
        assert got == want and all_canonical([got])
        out = {}
        for row in over(Q, rows):
            add_to(out, row, Q.one, Q)
        assert out == combine(((r, REF.one) for r in over(REF, rows)), REF)
        assert all_canonical([out])

    @settings(max_examples=150, deadline=None)
    @given(sparse_rows())
    def test_rref_kernel_and_row_space(self, m):
        rows, ncols = m
        got, want = rref(over(Q, rows), Q), rref(over(REF, rows), REF)
        assert got == want and all_canonical(got[1])
        ker, ref_ker = kernel_basis(over(Q, rows), Q, ncols), kernel_basis(over(REF, rows), REF, ncols)
        assert (ker.basis, ker.pivots) == (ref_ker.basis, ref_ker.pivots)
        assert all_canonical(ker.basis)
        space, ref_space = row_space(over(Q, rows), Q, ncols), row_space(over(REF, rows), REF, ncols)
        assert (space.basis, space.pivots) == (ref_space.basis, ref_space.pivots)
        assert all_canonical(space.basis)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_quotient_and_coset_coordinates(self, data):
        rows, ncols = data.draw(sparse_rows())
        keep = data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
        sub = [r for i, r in enumerate(rows) if i in keep]
        coeffs = data.draw(st.lists(scalars.filter(bool), min_size=len(rows),
                                    max_size=len(rows)))
        results = []
        for field in (Q, REF):
            v = row_space(over(field, rows), field, ncols)
            u = row_space(over(field, sub), field, ncols)
            dim, reps = subspace_quotient(v, u)
            w = combine(zip(over(field, rows), map(field.of, coeffs)), field)
            results.append((dim, reps, coset_coordinates(w, v, u), u.reduce(w)))
        assert results[0] == results[1]
        dim, reps, coords, red = results[0]
        assert all_canonical(reps + [coords, red])
