from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.exactla import (
    Field,
    NotASubspace,
    combine,
    coset_coordinates,
    dense,
    kernel_basis,
    parse_field,
    row_space,
    rows_of_columns,
    rref,
    sparse,
    subspace_quotient,
)


def M(field, rows):
    return [[field.of(x) for x in row] for row in rows]


def S(field, rows):
    """The sparse rows of M(field, rows)."""
    return [sparse(r) for r in M(field, rows)]


def D(rows, n, field):
    return [dense(r, n, field) for r in rows]


class TestField:
    def test_rationals(self):
        f = Field(0)
        assert f.of(3) == Fraction(3)
        assert f.div(f.of(1), f.of(3)) == Fraction(1, 3)

    def test_prime_field(self):
        f = Field(5)
        assert f.of(7) == 2
        assert f.mul(f.of(3), f.of(2)) == 1
        assert f.inv(f.of(2)) == 3

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            Field(6)
        with pytest.raises(ValueError):
            Field(2**31 + 11)

    def test_parse(self):
        assert parse_field("Q").char == 0
        assert parse_field("GF(3)").char == 3
        with pytest.raises(ValueError):
            parse_field("GF(4)")
        with pytest.raises(ValueError):
            parse_field("R")

    @given(st.integers(-50, 50))
    def test_char_p_kills_p(self, n):
        f = Field(7)
        x = f.of(n)
        acc = f.zero
        for _ in range(7):
            acc = f.add(acc, x)
        assert acc == f.zero


class TestRref:
    def test_identity_fixed(self):
        f = Field(0)
        m = M(f, [[1, 0], [0, 1]])
        rank, red, piv = rref([sparse(r) for r in m], f)
        assert rank == 2
        assert D(red, 2, f) == m
        assert piv == (0, 1)

    def test_proportional_rows(self):
        f = Field(0)
        rank, red, piv = rref(S(f, [[1, 2], [2, 4]]), f)
        assert rank == 1
        assert dense(red[0], 2, f) == [f.of(1), f.of(2)]
        assert piv == (0,)

    def test_empty(self):
        f = Field(0)
        rank, red, piv = rref([], f)
        assert rank == 0 and red == [] and piv == ()

    @given(
        st.integers(2, 4),
        st.integers(2, 4),
        st.lists(st.integers(-9, 9), min_size=16, max_size=16),
        st.sampled_from([0, 2, 3, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_rank_nullity(self, nr, nc, ents, char):
        f = Field(char)
        rows = [sparse([f.of(ents[i * nc + j]) for j in range(nc)]) for i in range(nr)]
        rank, red, piv = rref(rows, f)
        rank2, red2, piv2 = rref([dict(r) for r in red], f)
        assert (rank, piv) == (rank2, piv2)
        assert red == red2
        ker = kernel_basis(rows, f, ncols=nc)
        assert rank + ker.dim == nc


class TestKernel:
    def test_zero_matrix(self):
        f = Field(0)
        ker = kernel_basis(S(f, [[0, 0, 0], [0, 0, 0]]), f, ncols=3)
        assert ker.dim == 3

    def test_vectors_annihilate(self):
        f = Field(3)
        rows = M(f, [[1, 2, 0], [0, 1, 1]])
        ker = kernel_basis([sparse(r) for r in rows], f, ncols=3)
        for v in D(ker.basis, 3, f):
            for row in rows:
                acc = f.zero
                for a, b in zip(row, v):
                    acc = f.add(acc, f.mul(a, b))
                assert acc == f.zero


class TestSubspace:
    def test_reduce_and_contains(self):
        f = Field(0)
        s = row_space(S(f, [[1, 0, 2], [0, 1, 3]]), f, 3)
        assert s.contains([f.of(2), f.of(1), f.of(7)])
        assert not s.contains([f.of(0), f.of(0), f.of(1)])
        red = s.reduce([f.of(2), f.of(1), f.of(0)])
        assert dense(red, 3, f) == [f.of(0), f.of(0), f.of(-7)]

    def test_quotient_basic(self):
        f = Field(0)
        v = row_space(S(f, [[1, 0], [0, 1]]), f, 2)
        u = row_space(S(f, [[1, 0]]), f, 2)
        dim, reps = subspace_quotient(v, u)
        assert dim == 1
        assert D(reps, 2, f) == [[f.of(0), f.of(1)]]

    def test_quotient_rejects_noncontained(self):
        f = Field(0)
        v = row_space(S(f, [[1, 0, 0]]), f, 3)
        u = row_space(S(f, [[0, 1, 0]]), f, 3)
        with pytest.raises(NotASubspace):
            subspace_quotient(v, u)

    def test_coset_coordinates_reconstruct(self):
        f = Field(0)
        v = row_space(S(f, [[1, 0, 1], [0, 1, 1]]), f, 3)
        u = row_space(S(f, [[1, 0, 1]]), f, 3)
        w = [f.of(3), f.of(2), f.of(5)]
        dim, reps = subspace_quotient(v, u)
        coords = dense(coset_coordinates(w, v, u), dim, f)
        assert len(coords) == dim == len(reps)
        # w - sum(coords * reps) lies in u
        resid = list(w)
        for c, rep in zip(coords, D(reps, 3, f)):
            for i, x in enumerate(rep):
                resid[i] = f.sub(resid[i], f.mul(c, x))
        assert u.contains(resid)

    @given(
        st.lists(st.integers(-5, 5), min_size=12, max_size=12),
        st.sampled_from([0, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quotient_additivity(self, ents, char):
        f = Field(char)
        rows = [sparse([f.of(ents[i * 4 + j]) for j in range(4)]) for i in range(3)]
        v = row_space(rows, f, 4)
        u = row_space(rows[:1], f, 4)
        dim, _ = subspace_quotient(v, u)
        assert dim + u.dim == v.dim


def test_rows_of_columns():
    f = Field(0)
    cols = S(f, [[1, 0, 3], [0, 0, 0], [2, 5, 0]])
    assert rows_of_columns(cols, 3) == S(f, [[1, 0, 2], [0, 0, 5], [3, 0, 0]])
    assert rows_of_columns([], 2) == [{}, {}]


# -- references: the dense elimination this module had before it held
# sparse rows, kept verbatim (Subspace -> RefSpace) as test-only oracles --

class RefSpace:
    def __init__(self, ambient_dim, basis, pivots, field):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self.field = field

    @property
    def dim(self):
        return len(self.basis)


def ref_rref(rows, field):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        lead = rows[r][c]
        if lead != field.one:
            inv = field.inv(lead)
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        support = [(j, prow[j]) for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            f = rows[i][c]
            if i == r or not f:
                continue
            row = rows[i]
            for j, pj in support:
                row[j] = field.sub(row[j], field.mul(f, pj))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, rows, tuple(pivots)


def ref_reduce(space, vec):
    f = space.field
    vec = list(vec)
    for row, p in zip(space.basis, space.pivots):
        c = vec[p]
        if not c:
            continue
        for j in range(p, space.ambient_dim):
            rj = row[j]
            if rj:
                vec[j] = f.sub(vec[j], f.mul(c, rj))
    return vec


def ref_contains(space, vec):
    return not any(ref_reduce(space, vec))


def ref_row_space(rows, field, ambient_dim=None):
    if ambient_dim is None:
        ambient_dim = len(rows[0]) if rows else 0
    rank, red, pivots = ref_rref(rows, field)
    return RefSpace(ambient_dim, red[:rank], pivots, field)


def ref_kernel_basis(rows, field, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rank, red, pivots = ref_rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, one = field.zero, field.one
    vecs = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, p in enumerate(pivots):
            v[p] = field.neg(red[i][fc])
        vecs.append(v)
    return ref_row_space(vecs, field, ncols)


def ref_subspace_quotient(v, u):
    for w in u.basis:
        if not ref_contains(v, w):
            raise NotASubspace(w)
    upiv = set(u.pivots)
    reps = [row for row, p in zip(v.basis, v.pivots) if p not in upiv]
    return v.dim - u.dim, reps


def ref_coset_coordinates(w, v, u):
    upiv = set(u.pivots)
    red = ref_reduce(u, w)
    return [red[p] for p in v.pivots if p not in upiv]


def typed(rows):
    """Entries with their types, so Fraction 0 and int 0 differ."""
    return [[(type(c), c) for c in row] for row in rows]


@st.composite
def dense_matrices(draw, max_rows=6, max_cols=6):
    """(field, dense rows, ncols): mostly-zero entries, some rows and columns
    zeroed out; empty and all-zero matrices included."""
    f = Field(draw(st.sampled_from([0, 2, 3, 7])))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    if f.char == 0:
        scalar = st.fractions(-4, 4, max_denominator=3)
    else:
        scalar = st.integers(0, f.char - 1)
    entry = st.one_of(st.just(0), st.just(0), scalar).map(f.of)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)))) if nrows else set()
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)))) if ncols else set()
    rows = [[f.zero if i in zero_rows or j in zero_cols else c for j, c in enumerate(row)]
            for i, row in enumerate(rows)]
    return f, rows, ncols


def vectors(f, n):
    if f.char == 0:
        scalar = st.fractions(-4, 4, max_denominator=3)
    else:
        scalar = st.integers(0, f.char - 1)
    return st.lists(st.one_of(st.just(0), scalar).map(f.of), min_size=n, max_size=n)


def as_sparse(rows):
    return [sparse(r) for r in rows]


class TestAgainstDenseReference:
    """Sparse elimination gives the dense reference's RREF, kernel, normal
    forms, quotients and coset coordinates, entry types included."""

    @settings(max_examples=100, deadline=None)
    @given(dense_matrices())
    def test_rref(self, m):
        f, rows, ncols = m
        rank, red, piv = rref(as_sparse(rows), f)
        ref_rank, ref_red, ref_piv = ref_rref(rows, f)
        assert (rank, piv) == (ref_rank, ref_piv)
        assert typed(D(red, ncols, f)) == typed(ref_red[:ref_rank])
        assert not any(any(r) for r in ref_red[ref_rank:])
        assert all(all(red_row.values()) for red_row in red)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bounded_rref_stops_at_its_limit(self, data):
        """rref(rows, f, limit) reads rows only until the rank reaches
        limit, and gives the RREF of the rows it read."""
        f, rows, ncols = data.draw(dense_matrices())
        full = ref_rref(rows, f)[0]
        limit = data.draw(st.integers(0, full + 1))
        read = []

        def lazy():
            for row in rows:
                read.append(row)
                yield sparse(row)

        rank, red, piv = rref(lazy(), f, limit)
        assert rank == min(limit, full)
        if rank == limit:
            # the last row read is the one that brought the rank to limit
            assert limit == 0 and not read or ref_rref(read[:-1], f)[0] == limit - 1
        else:
            assert read == rows
        ref_rank, ref_red, ref_piv = ref_rref(read, f)
        assert (rank, piv) == (ref_rank, ref_piv)
        assert typed(D(red, ncols, f)) == typed(ref_red[:ref_rank])

    @settings(max_examples=100, deadline=None)
    @given(dense_matrices())
    def test_kernel_and_row_space(self, m):
        f, rows, ncols = m
        ker, ref_ker = kernel_basis(as_sparse(rows), f, ncols), ref_kernel_basis(rows, f, ncols)
        assert ker.pivots == ref_ker.pivots
        assert typed(D(ker.basis, ncols, f)) == typed(ref_ker.basis)
        space, ref_space = row_space(as_sparse(rows), f, ncols), ref_row_space(rows, f, ncols)
        assert space.pivots == ref_space.pivots
        assert typed(D(space.basis, ncols, f)) == typed(ref_space.basis)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reduce_and_contains(self, data):
        f, rows, ncols = data.draw(dense_matrices())
        space, ref_space = row_space(as_sparse(rows), f, ncols), ref_row_space(rows, f, ncols)
        w = data.draw(vectors(f, ncols))
        want = ref_reduce(ref_space, w)
        for form in (w, sparse(w)):
            assert typed([dense(space.reduce(form), ncols, f)]) == typed([want])
            assert space.contains(form) == ref_contains(ref_space, w)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_quotient_and_coset_coordinates(self, data):
        f, rows, ncols = data.draw(dense_matrices())
        keep = data.draw(st.sets(st.integers(0, max(len(rows) - 1, 0))))
        sub = [r for i, r in enumerate(rows) if i in keep]
        v, ref_v = row_space(as_sparse(rows), f, ncols), ref_row_space(rows, f, ncols)
        u, ref_u = row_space(as_sparse(sub), f, ncols), ref_row_space(sub, f, ncols)
        dim, reps = subspace_quotient(v, u)
        ref_dim, ref_reps = ref_subspace_quotient(ref_v, ref_u)
        assert dim == ref_dim
        assert typed(D(reps, ncols, f)) == typed(ref_reps)
        # w: a combination of the rows, so w lies in v
        coeffs = data.draw(vectors(f, len(rows)))
        w = [f.zero] * ncols
        for c, row in zip(coeffs, rows):
            w = [f.add(x, f.mul(c, y)) for x, y in zip(w, row)]
        want = ref_coset_coordinates(w, ref_v, ref_u)
        for form in (w, sparse(w)):
            got = coset_coordinates(form, v, u)
            assert typed([dense(got, dim, f)]) == typed([want])
            assert list(got) == sorted(got)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_noncontained_rejected_alike(self, data):
        f, rows, ncols = data.draw(dense_matrices())
        other = data.draw(st.lists(vectors(f, ncols), max_size=3))
        v, ref_v = row_space(as_sparse(rows), f, ncols), ref_row_space(rows, f, ncols)
        u, ref_u = row_space(as_sparse(other), f, ncols), ref_row_space(other, f, ncols)
        try:
            ref_subspace_quotient(ref_v, ref_u)
        except NotASubspace:
            with pytest.raises(NotASubspace):
                subspace_quotient(v, u)
        else:
            subspace_quotient(v, u)


def prev_rref(rows, field, limit=None):
    """A test-local copy of rref's elimination: every kept row that holds
    the new pivot is reduced by it."""
    def reduce(vec, kept):
        return combine([(vec, field.one)] + [(kept[p], field.neg(c))
                                             for p, c in vec.items() if p in kept], field)

    kept = {}
    rows = iter(rows)
    while len(kept) != limit and (row := next(rows, None)) is not None:
        vec = reduce(row, kept)
        if not vec:
            continue
        p = min(vec)
        if vec[p] != field.one:
            inv = field.inv(vec[p])
            vec = {j: field.mul(inv, x) for j, x in vec.items()}
        new = {p: vec}
        for q, r in kept.items():
            if p in r:
                kept[q] = reduce(r, new)
        kept[p] = vec
    pivots = sorted(kept)
    return len(pivots), [kept[p] for p in pivots], tuple(pivots)


@st.composite
def sparse_matrices(draw, max_rows=14, max_cols=14):
    """(field, sparse rows): rows of up to 5 nonzero entries, repeats and
    multiples of earlier rows mixed in so that some rows reduce to zero."""
    f = Field(draw(st.sampled_from([0, 2, 3, 7])))
    ncols = draw(st.integers(1, max_cols))
    if f.char == 0:
        scalar = st.fractions(-4, 4, max_denominator=3).filter(bool)
    else:
        scalar = st.integers(1, f.char - 1)
    scalar = scalar.map(f.of)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.booleans()):
            c = draw(scalar)
            rows.append({j: f.mul(c, x) for j, x in draw(st.sampled_from(rows)).items()})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=5)))
    return f, rows


def items_typed(rows):
    """Each row's items in order, with the entry types."""
    return [[(j, type(c), c) for j, c in row.items()] for row in rows]


class TestColumnIndexRref:
    """rref, fed a list or an iterator, with or without a rank limit,
    equals the test-local scan of every kept row, dict order included."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equals_scan_of_every_kept_row(self, data):
        f, rows = data.draw(sparse_matrices())
        full = prev_rref(rows, f)[0]
        for limit in (None, data.draw(st.integers(0, full + 1))):
            for feed in (lambda: [dict(r) for r in rows], lambda: (dict(r) for r in rows)):
                rank, red, piv = rref(feed(), f, limit)
                ref_rank, ref_red, ref_piv = prev_rref(feed(), f, limit)
                assert (rank, piv) == (ref_rank, ref_piv)
                assert items_typed(red) == items_typed(ref_red)
