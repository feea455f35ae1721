"""Brute-force HH0/HH1 from the reduced bar resolution.

This is the cross-check for the parallel-paths route: same answers, very
different computation.  Cochains are E-bimodule maps valued in A, with

    C0 = sum_e eAe,  C1 = Hom(A+, A),  C2 = Hom(A+ (x)_E A+, A),

A+ the span of the nontrivial basis paths B+.  The differentials are

    (D0 a)(x) = ax - xa
    (D1 f)(x1 (x) x2) = x1 f(x2) - f(pA(x1 x2)) + f(x1) x2

and the degree-1 bracket is [f,g] = f.pA.g - g.pA.f.  The matrices are
dense and deliberately naive; products and cochain values are sparse
{basis index: coeff} dicts.  Independence from ppcomplex is the whole
point.
"""

from __future__ import annotations

from .exactla import column_space, kernel_basis, row_space, subspace_quotient
from .pathalg import compose


class BarSlice:
    __slots__ = ("algebra", "c0_basis", "c1_basis", "c2_basis",
                 "c1_index", "c2_index", "d0", "d1", "_bplus", "_spaces")

    def __init__(self, algebra):
        self.algebra = algebra
        quiver = algebra.quiver
        self._bplus = [p for p in algebra.basis if p.length > 0]
        self.c0_basis = [(v, b) for v in range(quiver.n_vertices)
                         for b in algebra.parallel(v, v)]
        self.c1_basis = [(x, b) for x in self._bplus
                         for b in algebra.parallel(x.source, x.target)]
        self.c1_index = {pair: i for i, pair in enumerate(self.c1_basis)}
        pairs = [
            (x1, x2)
            for x1 in self._bplus
            for x2 in self._bplus
            if x1.source == x2.target
        ]
        self.c2_basis = [(x1, x2, b) for x1, x2 in pairs
                         for b in algebra.parallel(x2.source, x1.target)]
        self.c2_index = {t: i for i, t in enumerate(self.c2_basis)}
        self.d0 = self._build_d0()
        self.d1 = self._build_d1(pairs)
        self._spaces = None

    def _product(self, p, q):
        """pi(p q) as a sparse {basis index: coeff} dict, {} if p, q do not
        compose.  Shared with the algebra's map: do not mutate."""
        r = compose(p, q)
        return self.algebra.path_coords(r) if r else {}

    def _build_d0(self):
        a = self.algebra
        field = a.field
        rows = [[field.zero] * len(self.c0_basis) for _ in self.c1_basis]
        for col, (_, b) in enumerate(self.c0_basis):
            for x in self._bplus:
                for j, c in self._product(b, x).items():
                    row = rows[self.c1_index[(x, a.basis[j])]]
                    row[col] = field.add(row[col], c)
                for j, c in self._product(x, b).items():
                    row = rows[self.c1_index[(x, a.basis[j])]]
                    row[col] = field.sub(row[col], c)
        return rows

    def _build_d1(self, pairs):
        a = self.algebra
        field = a.field
        rows = [[field.zero] * len(self.c1_basis) for _ in self.c2_basis]
        for x1, x2 in pairs:

            def bump(b, col, c):
                row = rows[self.c2_index[(x1, x2, b)]]
                row[col] = field.add(row[col], c)

            # -f(pA(x1 x2)): pA drops the trivial-path coordinates
            for j, c in self._product(x1, x2).items():
                x = a.basis[j]
                if x.length == 0:
                    continue
                for b in a.parallel(x.source, x.target):
                    bump(b, self.c1_index[(x, b)], field.neg(c))
            # +x1 f(x2) for f elementary at (x2, b)
            for b in a.parallel(x2.source, x2.target):
                col = self.c1_index[(x2, b)]
                for j, c in self._product(x1, b).items():
                    bump(a.basis[j], col, c)
            # +f(x1) x2 for f elementary at (x1, b)
            for b in a.parallel(x1.source, x1.target):
                col = self.c1_index[(x1, b)]
                for j, c in self._product(b, x2).items():
                    bump(a.basis[j], col, c)
        return rows

    def spaces(self):
        """(Ker D1, Im D0) as subspaces of C1, each differential eliminated
        once per slice."""
        if self._spaces is None:
            field = self.algebra.field
            n = len(self.c1_basis)
            self._spaces = (kernel_basis(self.d1, field, ncols=n),
                            column_space(self.d0, field, ambient_dim=n))
        return self._spaces


def build_bar_slice(algebra):
    return BarSlice(algebra)


def bar_hh_dims(algebra, slice_=None):
    """(dim HH0, dim HH1) = (dim Ker D0, dim Ker D1 - rank D0)."""
    sl = slice_ or BarSlice(algebra)
    k1, u0 = sl.spaces()
    return len(sl.c0_basis) - u0.dim, k1.dim - u0.dim


def _cochain_map(vec, sl):
    """C1 coordinate vector -> {basis index of x in B+: sparse value f(x)}."""
    index = sl.algebra.index
    out = {}
    for i, c in enumerate(vec):
        if c:
            x, b = sl.c1_basis[i]
            out.setdefault(index[x], {})[index[b]] = c
    return out


def _apply(fmap, val, field):
    """f(pA(v)) for a sparse v over B; trivial paths have no value under f,
    which is pA."""
    out = {}
    for i, c in val.items():
        for j, w in fmap.get(i, {}).items():
            out[j] = field.add(out.get(j, field.zero), field.mul(c, w))
    return out


def bracket_c1(u, v, sl):
    """[u, v] = u.pA.v - v.pA.u as C1 coordinate vectors."""
    a = sl.algebra
    field = a.field
    umap = _cochain_map(u, sl)
    vmap = _cochain_map(v, sl)
    out = [field.zero] * len(sl.c1_basis)
    for i in umap.keys() | vmap.keys():
        x = a.basis[i]
        # every term of f(x) is parallel to x, so (x, b) is a C1 pair
        for j, c in _apply(umap, vmap.get(i, {}), field).items():
            k = sl.c1_index[(x, a.basis[j])]
            out[k] = field.add(out[k], c)
        for j, c in _apply(vmap, umap.get(i, {}), field).items():
            k = sl.c1_index[(x, a.basis[j])]
            out[k] = field.sub(out[k], c)
    return out


def bar_derived_series(algebra, slice_=None):
    """Derived-series dims of Ker D1 / Im D0 under the cochain bracket."""
    sl = slice_ or BarSlice(algebra)
    field = algebra.field
    k1, u0 = sl.spaces()
    dim_l = subspace_quotient(k1, u0)[0]
    dims = [dim_l]
    if dim_l == 0:
        return dims
    current = k1
    while True:
        gens = list(u0.basis)
        basis = current.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                w = bracket_c1(basis[i], basis[j], sl)
                if any(w):
                    gens.append(w)
        nxt = row_space(gens, field, len(sl.c1_basis))
        dims.append(nxt.dim - u0.dim)
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims
        current = nxt
