import functools
import glob
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh import baroracle, brauer, exactla
from quiverhh.cli import parse_algebra
from quiverhh.exactla import Field, dense, kernel_basis
from quiverhh.pathalg import FreeElement, Path, Quiver, compose
from quiverhh.groebner import Incomplete, complete, normal_form
from quiverhh.quotient import InfiniteDimensional, QuotientAlgebra, build_quotient
from quiverhh.ppcomplex import CochainSlice, compute_hh0, compute_hh1, lie_presentation
from quiverhh.baroracle import (
    BarSlice,
    bar_derived_series,
    bar_hh_dims,
    bracket_c1,
    build_bar_slice,
)

from conftest import ALG_FILES, DATA, TESTS, elem, fixture_algebra, written


def truncated_cube(field):
    quiver = Quiver(["e"], [("x", "e", "e")])
    return build_quotient(complete(
        [FreeElement.from_path(Path(quiver, (0, 0, 0)), field)]))


def commuting_loops():
    quiver = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
    Q = Field(0)
    return build_quotient(complete([
        elem(Q, quiver, (1, written(quiver, "x", "y")),
             (-1, written(quiver, "y", "x"))),
        elem(Q, quiver, (1, written(quiver, "x", "x"))),
        elem(Q, quiver, (1, written(quiver, "y", "y"))),
    ]))


def char2_loops():
    quiver = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
    F2 = Field(2)
    return build_quotient(complete([
        elem(F2, quiver, (1, written(quiver, "x", "x", "x")),
             (1, written(quiver, "y", "x", "x"))),
        elem(F2, quiver, (1, written(quiver, "x", "y")),
             (1, written(quiver, "y", "x"))),
        elem(F2, quiver, (1, written(quiver, "y", "y"))),
    ]))


def kronecker_ext():
    quiver = Quiver(
        ["e1", "e2"],
        [("b2", "e1", "e2"), ("b1", "e2", "e1"),
         ("a2", "e1", "e2"), ("a1", "e2", "e1")],
    )
    Q = Field(0)
    w = lambda *names: written(quiver, *names)
    return build_quotient(complete([
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
    ]))


ALGEBRAS = [
    ("cube-char3", lambda: truncated_cube(Field(3))),
    ("cube-char0", lambda: truncated_cube(Field(0))),
    ("commuting-loops", commuting_loops),
    ("char2-loops", char2_loops),
    ("kronecker-ext", kronecker_ext),
]


def matmul(amat, bmat, field):
    if not amat or not bmat:
        return []
    n = len(bmat[0])
    out = []
    for row in amat:
        r = []
        for j in range(n):
            s = field.zero
            for k, c in enumerate(row):
                if c != field.zero and bmat[k][j] != field.zero:
                    s = field.add(s, field.mul(c, bmat[k][j]))
            r.append(s)
        out.append(r)
    return out


def is_zero_matrix(mat, field):
    return all(c == field.zero for row in mat for c in row)


class TestComplexes:
    @pytest.mark.parametrize("tag,make", ALGEBRAS, ids=[t for t, _ in ALGEBRAS])
    def test_bar_differentials_compose_to_zero(self, tag, make):
        A = make()
        sl = BarSlice(A)
        assert is_zero_matrix(matmul(sl.d1, sl.d0, A.field), A.field)

    @pytest.mark.parametrize("tag,make", ALGEBRAS, ids=[t for t, _ in ALGEBRAS])
    def test_parallel_path_differentials_compose_to_zero(self, tag, make):
        A = make()
        sl = CochainSlice(A)
        assert is_zero_matrix(matmul(sl.psi1, sl.psi0, A.field), A.field)


class TestAgreement:
    @pytest.mark.parametrize("tag,make", ALGEBRAS, ids=[t for t, _ in ALGEBRAS])
    def test_dimensions_agree(self, tag, make):
        A = make()
        psl = CochainSlice(A)
        bsl = build_bar_slice(A)
        assert bar_hh_dims(A, bsl) == (compute_hh0(A, psl)[0],
                                       compute_hh1(A, psl)[0])

    @pytest.mark.parametrize("tag,make", ALGEBRAS, ids=[t for t, _ in ALGEBRAS])
    def test_derived_series_agree(self, tag, make):
        A = make()
        assert bar_derived_series(A) == lie_presentation(A).derived_dims


class TestKnownDimensions:
    """Frozen values, re-derivable by hand on the smallest algebras."""

    def test_cube_char3(self):
        assert bar_hh_dims(truncated_cube(Field(3))) == (3, 3)

    def test_cube_char0(self):
        assert bar_hh_dims(truncated_cube(Field(0))) == (3, 2)

    def test_commuting_loops(self):
        A = commuting_loops()
        assert bar_hh_dims(A) == (4, 4)
        assert bar_derived_series(A) == [4, 2, 0]

    def test_kronecker_ext(self):
        A = kronecker_ext()
        assert bar_hh_dims(A) == (3, 4)
        assert bar_derived_series(A) == [4, 3, 3]

    def test_char2_loops(self):
        A = char2_loops()
        assert bar_hh_dims(A) == (6, 10)
        assert bar_derived_series(A) == [10, 9, 7, 6, 2, 0]


def c1_dense(vec, sl):
    """A sparse C1 vector as the dense list the references work on."""
    return dense(vec, len(sl.c1_basis), sl.algebra.field)


class TestCochainBracket:
    def test_antisymmetry_on_kernel(self):
        A = commuting_loops()
        sl = BarSlice(A)
        field = A.field
        ker = sl.spaces()[0]
        for i in range(len(ker.basis)):
            for j in range(i, len(ker.basis)):
                uv = c1_dense(bracket_c1(ker.basis[i], ker.basis[j], sl), sl)
                vu = c1_dense(bracket_c1(ker.basis[j], ker.basis[i], sl), sl)
                assert uv == [field.neg(c) for c in vu]

    def test_cocycles_close_under_bracket(self):
        A = kronecker_ext()
        sl = BarSlice(A)
        ker = sl.spaces()[0]
        for i in range(len(ker.basis)):
            for j in range(i + 1, len(ker.basis)):
                w = bracket_c1(ker.basis[i], ker.basis[j], sl)
                assert ker.contains(w)


# -- references: the dense assembly and bracket the oracle had before it
# read sparse products, kept as test-only oracles (self -> sl) over
# test-local label lists and indexes; ref_build_d1 takes the pairs whose
# rows it builds, accumulates sparse rows so that the full D1 of a
# 36-dimensional algebra fits, and takes each normal form once --

def bplus(sl):
    """B+ as paths, in basis order."""
    return [p for p in sl.algebra.basis if p.arrows]


def c1_index(sl):
    """{(x, b): C1 column} for the C1 labels of the slice."""
    return {pair: k for k, pair in enumerate(sl.c1_basis)}


def ref_multiply(u, v, a):
    """pi(basis[u] * basis[v]) as a dense vector over B, from the normal form
    of the composed path rather than from path_coords."""
    vec = [a.field.zero] * a.dim
    r = compose(a.basis[u], a.basis[v])
    if r:
        for p, c in normal_form(FreeElement.from_path(r, a.field), a.gb).terms.items():
            vec[a.index[p]] = c
    return vec


def ref_build_d0(sl):
    a = sl.algebra
    field = a.field
    zero = field.zero
    rows = [[zero] * len(sl.c0_basis) for _ in sl.c1_basis]
    c1 = c1_index(sl)
    for col, (v, b) in enumerate(sl.c0_basis):
        ib = a.index[b]
        for x in bplus(sl):
            ix = a.index[x]
            bx = ref_multiply(ib, ix, a)
            xb = ref_multiply(ix, ib, a)
            for j in range(len(a.basis)):
                c = field.sub(bx[j], xb[j])
                if c != zero:
                    r = c1[(x, a.basis[j])]
                    rows[r][col] = field.add(rows[r][col], c)
    return rows


def ref_labels(sl, pairs):
    """The C2 labels (x1, x2, b) of the composable pairs, b parallel to x1 x2."""
    basis = sl.algebra.basis
    return [(x1, x2, b) for x1, x2 in pairs for b in basis
            if b.source == x2.source and b.target == x1.target]


def ref_build_d1(sl, pairs):
    """D1 on the rows ref_labels(sl, pairs), as sparse rows; each product
    is a normal form, taken once per pair of basis indices."""
    a = sl.algebra
    field = a.field
    zero = field.zero
    labels = ref_labels(sl, pairs)
    rows = [{} for _ in labels]
    c2_index = {t: i for i, t in enumerate(labels)}
    c1 = c1_index(sl)
    products = {}

    def multiply(u, v):
        if (u, v) not in products:
            products[(u, v)] = ref_multiply(u, v, a)
        return products[(u, v)]

    def bump(row, col, c, sign):
        if sign < 0:
            c = field.neg(c)
        rows[row][col] = field.add(rows[row].get(col, zero), c)

    def parallels(x):
        return [b for b in a.basis if b.parallel_to(x)]

    for x1, x2 in pairs:
        i1, i2 = a.index[x1], a.index[x2]
        prod = multiply(i1, i2)
        # -f(pA(x1 x2)): pA drops the trivial-path coordinates
        for j, c in enumerate(prod):
            if c == zero:
                continue
            x = a.basis[j]
            if x.length == 0:
                continue
            for b in parallels(x):
                col = c1[(x, b)]
                bump(c2_index[(x1, x2, b)], col, c, -1)
        # +x1 f(x2) for f elementary at (x2, b)
        for b in parallels(x2):
            col = c1[(x2, b)]
            vec = multiply(i1, a.index[b])
            for j, c in enumerate(vec):
                if c != zero:
                    bump(c2_index[(x1, x2, a.basis[j])], col, c, +1)
        # +f(x1) x2 for f elementary at (x1, b)
        for b in parallels(x1):
            col = c1[(x1, b)]
            vec = multiply(a.index[b], i2)
            for j, c in enumerate(vec):
                if c != zero:
                    bump(c2_index[(x1, x2, a.basis[j])], col, c, +1)
    return [{col: c for col, c in row.items() if c != zero} for row in rows]


def ref_cochain_map(vec, sl):
    """C1 coordinate vector -> {x in B+ : value vector over B}."""
    a = sl.algebra
    zero = a.field.zero
    out = {}
    for i, c in enumerate(vec):
        if c == zero:
            continue
        x, b = sl.c1_basis[i]
        val = out.get(x)
        if val is None:
            val = [a.field.zero] * a.dim
            out[x] = val
        val[a.index[b]] = a.field.add(val[a.index[b]], c)
    return out


def ref_apply(fmap, vec, sl):
    """f(pA(v)) for v a vector over B: feed the B+ coordinates through f."""
    a = sl.algebra
    field = a.field
    zero = field.zero
    out = [a.field.zero] * a.dim
    for x in bplus(sl):
        c = vec[a.index[x]]
        if c == zero:
            continue
        val = fmap.get(x)
        if val is None:
            continue
        for j, w in enumerate(val):
            if w != zero:
                out[j] = field.add(out[j], field.mul(c, w))
    return out


def ref_bracket_c1(u, v, sl):
    """[u, v] = u.pA.v - v.pA.u as C1 coordinate vectors."""
    a = sl.algebra
    field = a.field
    zero = field.zero
    umap = ref_cochain_map(u, sl)
    vmap = ref_cochain_map(v, sl)
    out = [zero] * len(sl.c1_basis)
    c1 = c1_index(sl)
    for x in bplus(sl):
        acc = None
        vval = vmap.get(x)
        if vval is not None:
            acc = ref_apply(umap, vval, sl)
        uval = umap.get(x)
        if uval is not None:
            sub = ref_apply(vmap, uval, sl)
            if acc is None:
                acc = [field.neg(c) for c in sub]
            else:
                acc = [field.sub(p, q) for p, q in zip(acc, sub)]
        if acc is None:
            continue
        for j, c in enumerate(acc):
            if c != zero:
                idx = c1[(x, a.basis[j])]
                out[idx] = field.add(out[idx], c)
    return out


def ref_extend(phi, sl):
    """E(phi) of an arrow-coordinate cochain (sparse or dense) as a dense C1
    vector: its value at x = a_n ... a_1 is the sum over t of the normal
    form of a_n ... a_(t+1) phi(a_t) a_(t-1) ... a_1."""
    a = sl.algebra
    field, c1 = a.field, c1_index(sl)
    at_arrow = {}
    for k, c in exactla.sparse(phi).items():
        x, b = sl.c1_basis[k]
        assert x.length == 1, "not an arrow column"
        at_arrow.setdefault(x.arrows[0], []).append((b, c))
    out = [field.zero] * len(sl.c1_basis)
    for x in bplus(sl):
        for t, arrow in enumerate(x.arrows):
            for b, c in at_arrow.get(arrow, ()):
                word = x.arrows[:t] + b.arrows + x.arrows[t + 1:]
                p = Path(a.quiver, word) if word else b
                for q, d in normal_form(FreeElement.from_path(p, field), a.gb).terms.items():
                    k = c1[(x, q)]
                    out[k] = field.add(out[k], field.mul(c, d))
    return out


def arrow_part(vec, sl):
    """The arrow coordinates of a C1 vector (sparse or dense), as a sparse
    dict."""
    return {k: c for k, c in exactla.sparse(vec).items() if k < sl._n}


def ref_pairs(sl):
    """Every composable pair (x1, x2) of B+: the rows of the full D1."""
    plus = bplus(sl)
    return [(x1, x2) for x1 in plus for x2 in plus if x1.source == x2.target]


def ref_arrow_pairs(sl):
    """The composable pairs with x1 an arrow: the D1 rows the slice holds."""
    return [(x1, x2) for x1, x2 in ref_pairs(sl) if x1.length == 1]


DATA_ALGEBRAS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(DATA, "*.alg")))
ALL_ALGEBRAS = ALGEBRAS + [(name, lambda name=name: fixture_algebra(name))
                           for name in DATA_ALGEBRAS]
_SLICES = {}


def slice_of(tag):
    """One BarSlice per algebra tag, built on first use."""
    if tag not in _SLICES:
        _SLICES[tag] = BarSlice(dict(ALL_ALGEBRAS)[tag]())
    return _SLICES[tag]


def typed(mat):
    """Entries with their types, so Fraction 0 and int 0 differ."""
    return [[(type(c), c) for c in row] for row in mat]


class TestSparseAssembly:
    """The oracle on sparse products equals the dense reference."""

    @pytest.mark.parametrize("tag", [t for t, _ in ALL_ALGEBRAS])
    def test_differentials_equal_reference(self, tag):
        sl = slice_of(tag)
        assert sl.c2_basis == ref_labels(sl, ref_arrow_pairs(sl))
        assert typed(sl.d0) == typed(ref_build_d0(sl))
        assert typed(sl.d1) == typed([c1_dense(r, sl) for r in
                                      ref_build_d1(sl, ref_arrow_pairs(sl))])

    @pytest.mark.parametrize("tag", [t for t, _ in ALL_ALGEBRAS])
    def test_dense_views_are_new_on_each_read(self, tag):
        # written out from d0_cols and d1_rows on each read, never cached
        sl = slice_of(tag)
        for name in ("d0", "d1"):
            first, second = getattr(sl, name), getattr(sl, name)
            assert first == second and first, (tag, name)
            assert first is not second and first[0] is not second[0]
            first[0][0] = "mutated"
            first.append([])
            assert getattr(sl, name) == second, (tag, name)

    @pytest.mark.parametrize("tag", [t for t, _ in ALL_ALGEBRAS])
    def test_bracket_equals_reference_on_kernel(self, tag):
        # the bracket of two cocycles is the cocycle E of its arrow values
        sl = slice_of(tag)
        ker = sl.spaces()[0].basis
        for u in ker:
            for v in ker:
                assert typed([ref_extend(bracket_c1(u, v, sl), sl)]) == typed(
                    [ref_bracket_c1(ref_extend(u, sl), ref_extend(v, sl), sl)])

    # tags by field: Q, GF(2), GF(3)
    BY_FIELD = {
        0: ["cube-char0", "commuting-loops", "kronecker-ext", "sampled_loops_q.alg"],
        2: ["char2-loops", "loops_char2.alg"],
        3: ["cube-char3", "x_cubed_f3.alg", "sampled_loops_gf3.alg"],
    }

    @pytest.mark.parametrize("char", [0, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bracket_equals_reference_on_random_cochains(self, char, data):
        sl = slice_of(data.draw(st.sampled_from(self.BY_FIELD[char])))
        field = sl.algebra.field
        assert field.char == char
        n = sl._n
        if char == 0:
            scalar = st.fractions(-3, 3, max_denominator=3).map(Fraction)
        else:
            scalar = st.integers(0, char - 1)

        def cochain():
            entries = data.draw(st.dictionaries(st.integers(0, n - 1), scalar, max_size=8))
            return [entries.get(i, field.zero) for i in range(n)]

        # arrow cochains, bracketed through their extensions
        u, v = cochain(), cochain()
        ref = ref_bracket_c1(ref_extend(u, sl), ref_extend(v, sl), sl)
        assert typed([c1_dense(bracket_c1(u, v, sl), sl)]) == typed(
            [c1_dense(arrow_part(ref, sl), sl)])


class TestOneEliminationPerDifferential:
    @pytest.mark.parametrize("tag", ["kronecker-ext", "char2-loops", "commuting-loops"])
    def test_each_space_is_reduced_once_on_arrow_columns(self, tag, monkeypatch):
        """Ker D1 and Im D0 are eliminated once per slice, and every rref
        of the bar route is handed a list of rows on the arrow columns."""
        A = dict(ALGEBRAS)[tag]()
        sl = BarSlice(A)
        fed, real = [], exactla.rref

        def recording(rows, field, limit=None):
            fed.append(rows)
            return real(rows, field, limit)

        monkeypatch.setattr(exactla, "rref", recording)
        # a module that binds rref by name calls its own binding
        monkeypatch.setattr(baroracle, "rref", recording, raising=False)
        bar_hh_dims(A, sl)
        spaces = len(fed)
        dims = bar_derived_series(A, sl)
        derived = len(fed) - spaces
        bar_hh_dims(A, sl)
        # kernel_basis reduces twice (the rows, then the kernel basis) and
        # row_space once; the derived series once per step
        assert (spaces, derived, len(fed)) == (3, len(dims) - 1, spaces + derived)
        assert sl._n < len(sl.c1_basis)
        for rows in fed:
            assert isinstance(rows, list)
            assert all(k < sl._n for row in rows for k in row)


# -- pp against bar on random quiver algebras --------------------------------

RANDOM_SEED = 20240601
RANDOM_KEPT = 36
RANDOM_MAX_DIM = 14


def random_quiver(rng):
    """1-2 vertices and 2-3 arrows, each with a random source and target."""
    vertices = ["e%d" % i for i in range(rng.randint(1, 2))]
    arrows = [("a%d" % i, rng.choice(vertices), rng.choice(vertices))
              for i in range(rng.randint(2, 3))]
    return Quiver(vertices, arrows)


def paths_by_ends(quiver, lengths):
    """{(source, target): paths of the given lengths}, in a fixed order."""
    out = {}
    walks = [(a,) for a in range(quiver.n_arrows)]
    while walks:
        word = walks.pop(0)
        if len(word) in lengths:
            p = Path(quiver, word)
            out.setdefault((p.source, p.target), []).append(p)
        if len(word) < max(lengths):
            walks += [word + (a,) for a in quiver.arrows_from(quiver.arrow_tgt[word[-1]])]
    return out


def random_relations(rng, quiver, field):
    """2-4 uniform relations: 1-3 parallel paths of length 2-3 with small
    integer coefficients; relations that come out zero are dropped."""
    groups = list(paths_by_ends(quiver, (2, 3)).values())
    rels = []
    for _ in range(rng.randint(2, 4)) if groups else ():
        group = rng.choice(groups)
        terms = rng.sample(group, rng.randint(1, min(3, len(group))))
        rel = None
        for p in terms:
            t = FreeElement.from_path(p, field, field.of(rng.choice((1, -1, 2, -2))))
            rel = t if rel is None else rel.add(t)
        if not rel.is_zero:
            rels.append(rel)
    return rels


def random_algebras(seed, kept, max_dim):
    """The first kept algebras of the seeded stream, over Q, GF(2) and GF(3)
    in turn, that NonTip enumeration proves finite with dim <= max_dim."""
    rng = random.Random(seed)
    chars = (0, 2, 3)
    out = []
    while len(out) < kept:
        field = Field(chars[len(out) % len(chars)])
        quiver = random_quiver(rng)
        rels = random_relations(rng, quiver, field)
        if not rels:
            continue
        try:
            gb = complete(rels, max_tip_length=8, quiver=quiver, field=field)
            out.append(build_quotient(gb, max_basis=max_dim))
        except (Incomplete, InfiniteDimensional):
            continue
    return out


def sparse_product_vanishes(rows, cols, field):
    """Every entry of (sparse rows) x (sparse columns) is zero."""
    for row in rows:
        for col in cols:
            acc = field.zero
            for k, c in row.items():
                if k in col:
                    acc = field.add(acc, field.mul(c, col[k]))
            if acc:
                return False
    return True


def test_routes_agree_on_random_algebras():
    algebras = random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM)
    assert {A.field.char for A in algebras} == {0, 2, 3}
    assert {A.quiver.n_vertices for A in algebras} == {1, 2}
    for n, A in enumerate(algebras):
        psl, bsl = CochainSlice(A), build_bar_slice(A)
        assert sparse_product_vanishes(psl.psi1_rows, psl.psi0_cols, A.field), n
        assert sparse_product_vanishes(bsl.d1_rows, bsl.d0_cols, A.field), n
        lie = lie_presentation(A, psl)
        assert bar_hh_dims(A, bsl) == (compute_hh0(A, psl)[0], lie.dim), n
        assert bar_derived_series(A, bsl) == lie.derived_dims, n


def file_algebra(name):
    """A fresh QuotientAlgebra (empty memos) of an algebra file under tests/."""
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        field, quiver, rels = parse_algebra(fh.read())
    return build_quotient(complete(rels, quiver=quiver, field=field))


def nf_product(a, i, j):
    """pi(basis[i] * basis[j]) as sparse coordinates, from the normal form
    of the composed path; {} if the two do not compose."""
    r = compose(a.basis[i], a.basis[j])
    if not r:
        return {}
    return {a.index[p]: c for p, c in normal_form(FreeElement.from_path(r, a.field),
                                                   a.gb).terms.items()}


class WriteOnceMemo(dict):
    """A product memo that records the keys read and refuses to store a key
    twice."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        assert key not in self, f"product {key} computed twice"
        super().__setitem__(key, value)


class TestProductMemo:
    """One memo of basis-path products on the algebra, read by psi0 and by
    both bar differentials."""

    @staticmethod
    def assert_products_match_normal_forms(a):
        for i, p in enumerate(a.basis):
            for j, q in enumerate(a.basis):
                got = a._product(i, j)
                assert got == nf_product(a, i, j), (p, q)
                if p.source != q.target:
                    assert got == {}
                assert a._product(i, j) is got

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_products_equal_normal_forms_on_files(self, name):
        self.assert_products_match_normal_forms(file_algebra(name))

    def test_products_equal_normal_forms_on_random_algebras(self):
        for a in random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM):
            self.assert_products_match_normal_forms(a)

    @staticmethod
    def write_once(a):
        """a's product memo, seeded entries kept, as a WriteOnceMemo."""
        memo = WriteOnceMemo()
        memo.update(a._products)
        a._products = memo
        return memo

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_each_product_computed_once_for_both_routes(self, name, monkeypatch):
        a = file_algebra(name)
        memo, keys, real = self.write_once(a), [], QuotientAlgebra._product

        def recorded(self, i, j):
            keys.append((i, j))
            return real(self, i, j)

        monkeypatch.setattr(QuotientAlgebra, "_product", recorded)
        CochainSlice(a)
        # the products psi0 read; psi1's arrow products share the memo
        psi0 = {key: memo[key] for key in keys}
        assert psi0
        del memo.reads[:]
        BarSlice(a)
        # D0 reads every product psi0 read, off the same entries
        assert set(psi0) <= set(memo.reads)
        assert all(memo[key] is got for key, got in psi0.items())

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_one_entry_per_arrow_product(self, name):
        """After both routes ran, arrow a's products sit once in the memo,
        under the basis index arrows[a], and _product returns that entry."""
        a = file_algebra(name)
        memo = self.write_once(a)
        sl = CochainSlice(a)
        lie_presentation(a, sl)
        BarSlice(a).spaces()
        for x in range(a.quiver.n_arrows):
            assert a.arrows[x] == a.index[a.quiver.arrow(x)]
            for j in range(a.dim):
                if (a.arrows[x], j) in memo:
                    assert a._product(a.arrows[x], j) is memo[(a.arrows[x], j)]

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_slices_hold_the_algebra_class_arrays(self, name):
        a = file_algebra(name)
        for sl in (CochainSlice(a), BarSlice(a)):
            assert sl._par is a._par and sl._pos is a._pos
        for i, p in enumerate(a.basis):
            assert a._par[i][a._pos[i]] == i
            assert a._par[i] is a._classes[(p.source, p.target)]
            assert a._par[i] == [j for j, q in enumerate(a.basis) if q.parallel_to(p)]


# -- the index arrays, the labels on access and the distinct-row kernel ----

@functools.cache
def file_slice(name):
    """One BarSlice per algebra file under tests/, built on first use."""
    return BarSlice(file_algebra(name))


@functools.cache
def random_slices():
    return [BarSlice(A) for A in random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM)]


# -- the whole-C1 route the oracle ran before it moved to arrow columns,
# kept as a test-local reference: Ker D1 from every arrow row over all of
# C1, Im D0 from the whole D0 columns, and the bracket of whole cochains --

def whole_c1_spaces(sl):
    field, n = sl.algebra.field, len(sl.c1_basis)
    return kernel_basis(sl.d1_rows, field, n), exactla.row_space(sl.d0_cols, field, n)


def whole_c1_hh_dims(sl, spaces):
    k1, u0 = spaces
    return len(sl.c0_basis) - u0.dim, k1.dim - u0.dim


def whole_c1_values(f, sl):
    """The sparse C1 cochain f as {x: [(position of b in the class of x, c)]}."""
    values = {}
    for k, c in f.items():
        x, b = sl._at[k]
        values.setdefault(x, []).append((sl._pos[b], c))
    return values


def whole_c1_bracket(u, v, sl, values):
    """[u, v] = u.pA.v - v.pA.u of whole C1 cochains, sparse; values maps
    the id of each cochain to its whole_c1_values."""
    field = sl.algebra.field
    out = {}
    for f, g, sign in ((u, v, field.one), (v, u, field.neg(field.one))):
        for k, c in g.items():
            x, b = sl._at[k]
            for p, c2 in values[id(f)].get(b, ()):
                exactla.add_to(out, {sl._cols[x][p]: c2}, field.mul(sign, c), field)
    return out


def whole_c1_derived_series(sl, spaces):
    field = sl.algebra.field
    k1, u0 = spaces
    dim_l, reps = exactla.subspace_quotient(k1, u0)
    dims = [dim_l]
    while dims[-1] and (len(dims) == 1 or dims[-1] != dims[-2]):
        values = {id(x): whole_c1_values(x, sl) for x in reps}
        gens = u0.basis + [whole_c1_bracket(x, y, sl, values) for i, x in enumerate(reps)
                           for y in reps[i + 1:]]
        term = exactla.row_space(gens, field, len(sl.c1_basis))
        dims.append(term.dim - u0.dim)
        reps = exactla.subspace_quotient(term, u0)[1]
    return dims


def extended(space, sl):
    """The basis of an arrow-coordinate subspace, each row extended by the
    slice's E to a sparse C1 vector."""
    out = []
    for row in space.basis:
        vec = {}
        for x, value in sl._extensions([row])[0].items():
            for j, c in value.items():
                vec[sl._cols[x][sl._pos[j]]] = c
        out.append(vec)
    return out


def assert_route_equals_whole_c1(sl):
    """Dims, derived series and the bases of Ker D1 and Im D0, extended
    by E, all equal the whole-C1 route's."""
    spaces = whole_c1_spaces(sl)
    assert bar_hh_dims(sl.algebra, sl) == whole_c1_hh_dims(sl, spaces)
    assert bar_derived_series(sl.algebra, sl) == whole_c1_derived_series(sl, spaces)
    for got, ref in zip(sl.spaces(), spaces):
        assert all(p < sl._n for p in ref.pivots)
        assert (extended(got, sl), got.pivots) == (ref.basis, ref.pivots)


@functools.cache
def corpus_slices():
    """A and gr A of the graphs of brauer.corpus(271828, 60, max_dim=30)."""
    Q = Field(0)
    out = []
    for graph in brauer.corpus(271828, 60, max_dim=30):
        for rels in (sum(brauer.generate_relations(graph, Q), []),
                     brauer.gr_relations(graph, Q)):
            out.append(BarSlice(build_quotient(complete(rels))))
    return out


class TestWholeC1Reference:
    @pytest.mark.parametrize("name", ALG_FILES)
    def test_on_files(self, name):
        assert_route_equals_whole_c1(file_slice(name))

    def test_on_random_algebras(self):
        for sl in random_slices():
            assert_route_equals_whole_c1(sl)

    def test_on_corpus_algebras_and_their_graded(self):
        slices = corpus_slices()
        assert len(slices) == 120
        for sl in slices:
            assert_route_equals_whole_c1(sl)


class TestExtension:
    """E of the arrow unit cochains, as the slice builds it, against the
    normal-form reference and the arrow rows the route skips."""

    @staticmethod
    def assert_units_satisfy_skipped_rows(sl):
        """The arrow rows (a, x2, b) with a x2 a basis path hold on E of
        every arrow unit cochain; the number of rows checked."""
        a = sl.algebra
        units = [{k: a.field.one} for k in range(sl._n)]
        exts = [{sl._cols[x][sl._pos[j]]: c for x, value in values.items()
                 for j, c in value.items()} for values in sl._extensions(units)]
        assert [c1_dense(e, sl) for e in exts] == [ref_extend(u, sl) for u in units]
        skipped = [row for (x1, x2, _), row in zip(sl.c2_basis, sl.d1_rows)
                   if compose(x1, x2) in a.index]
        assert sparse_product_vanishes(skipped, exts, a.field)
        return len(skipped)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_units_satisfy_skipped_rows_on_files(self, name):
        assert self.assert_units_satisfy_skipped_rows(file_slice(name))

    def test_units_satisfy_skipped_rows_on_random_algebras(self):
        assert sum(self.assert_units_satisfy_skipped_rows(sl) for sl in random_slices())

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_arrow_columns_come_first(self, name):
        sl = file_slice(name)
        arrows = [k for k, (x, _) in enumerate(sl.c1_basis) if x.length == 1]
        assert arrows == list(range(sl._n))


class TestIndexArrays:
    @pytest.mark.parametrize("tag", [t for t, _ in ALL_ALGEBRAS])
    def test_c2_labels_are_new_on_each_read(self, tag):
        sl = slice_of(tag)
        first, second = sl.c2_basis, sl.c2_basis
        assert first is not second and len(first) == len(sl.d1_rows)
        assert first == second == ref_labels(sl, ref_arrow_pairs(sl))
        first.append(None)
        assert sl.c2_basis == second

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_column_arrays_agree_with_c1_index(self, name):
        sl = file_slice(name)
        a, index = sl.algebra, c1_index(sl)
        assert sl._plus == [i for i, p in enumerate(a.basis) if p.length > 0]
        assert len(index) == len(sl.c1_basis) == sum(len(sl._cols[x]) for x in sl._plus)
        for (x, b), k in index.items():
            i, j = a.index[x], a.index[b]
            assert sl._par[i] is sl._par[j] and sl._par[i][sl._pos[j]] == j
            assert sl._cols[i][sl._pos[j]] == k and sl._at[k] == (i, j)
        assert all(sl._cols[i] == () for i, p in enumerate(a.basis) if p.length == 0)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_differentials_hold_the_shared_column_ints(self, name):
        sl = file_slice(name)
        shared = {id(k) for x in sl._plus for k in sl._cols[x]}
        assert all(id(k) in shared for vecs in (sl.d0_cols, sl.d1_rows) for v in vecs for k in v)


# -- the arrow rows of D1 and the derived series on representatives --------

class TestArrowRows:
    """The arrow rows of D1 not satisfied by construction, composed with E,
    cut out the kernel of the full D1, whose rows run over every composable
    pair of B+: E of each Ker D1 basis vector satisfies every full row,
    restricts back to itself, and the extended basis is the RREF kernel."""

    @staticmethod
    def assert_kernel_of_full_d1(sl):
        full = ref_build_d1(sl, ref_pairs(sl))
        assert len(full) >= len(sl.d1_rows)
        field = sl.algebra.field
        ref = kernel_basis(full, field, len(sl.c1_basis))
        got = sl.spaces()[0]
        vecs = extended(got, sl)
        for row, vec in zip(got.basis, vecs):
            assert c1_dense(vec, sl) == ref_extend(row, sl)
            assert arrow_part(vec, sl) == row
        assert sparse_product_vanishes(full, vecs, field)
        assert (vecs, got.pivots) == (ref.basis, ref.pivots)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_on_files(self, name):
        self.assert_kernel_of_full_d1(file_slice(name))

    def test_on_random_algebras(self):
        for sl in random_slices():
            self.assert_kernel_of_full_d1(sl)


def prev_derived_series(sl):
    """The derived series as it was computed before it bracketed only
    representatives: every pair of the basis of each term."""
    field = sl.algebra.field
    k1, u0 = sl.spaces()
    dim_l = exactla.subspace_quotient(k1, u0)[0]
    dims = [dim_l]
    if dim_l == 0:
        return dims
    basis = k1.basis
    while True:
        gens = u0.basis + [bracket_c1(x, y, sl) for i, x in enumerate(basis)
                           for y in basis[i + 1:]]
        basis = exactla.row_space(gens, field, len(sl.c1_basis)).basis
        dims.append(len(basis) - u0.dim)
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims


class TestDerivedSeriesOnRepresentatives:
    @pytest.mark.parametrize("name", ALG_FILES)
    def test_equals_brackets_of_every_pair_on_files(self, name):
        sl = file_slice(name)
        assert bar_derived_series(sl.algebra, sl) == prev_derived_series(sl)

    def test_equals_brackets_of_every_pair_on_random_algebras(self):
        for sl in random_slices():
            assert bar_derived_series(sl.algebra, sl) == prev_derived_series(sl)

    @staticmethod
    def inner_brackets_stay_inner(sl):
        """[Im D0, Ker D1] <= Im D0; the number of pairs checked."""
        k1, u0 = sl.spaces()
        for u in u0.basis:
            for w in k1.basis:
                assert u0.contains(bracket_c1(u, w, sl))
        return len(u0.basis) * len(k1.basis)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_inner_derivations_form_an_ideal_on_files(self, name):
        self.inner_brackets_stay_inner(file_slice(name))

    def test_inner_derivations_form_an_ideal_on_random_algebras(self):
        assert sum(self.inner_brackets_stay_inner(sl) for sl in random_slices())

    @pytest.mark.parametrize("name", ["golden/qplane_q.alg", "data/sampled_loops_gf3.alg",
                                      "golden/xy4_q.alg"])
    def test_one_bracket_call_per_pair_of_representatives(self, name, monkeypatch):
        # step k extends the dims[k] representatives of its term in one
        # _extensions call and brackets them pairwise with those values
        sl = BarSlice(file_algebra(name))
        made, calls = [], []
        real_bracket, real_extensions = baroracle._bracket, BarSlice._extensions

        def extensions(self, cochains):
            made.append(real_extensions(self, cochains))
            return made[-1]

        def bracket(u, v, eu, ev, sl_):
            calls.append(any(eu is e for e in made[-1]) and any(ev is e for e in made[-1]))
            return real_bracket(u, v, eu, ev, sl_)

        monkeypatch.setattr(BarSlice, "_extensions", extensions)
        monkeypatch.setattr(baroracle, "_bracket", bracket)
        dims = bar_derived_series(sl.algebra, sl)
        assert [len(ext) for ext in made] == dims[:-1]
        assert len(calls) == sum(m * (m - 1) // 2 for m in dims[:-1]) > 0
        assert all(calls)
