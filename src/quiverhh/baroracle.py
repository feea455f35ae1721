"""Brute-force HH0/HH1 from the reduced bar resolution.

This is the cross-check for the parallel-paths route: same answers, very
different computation.  Cochains are E-bimodule maps valued in A, with

    C0 = sum_e eAe,  C1 = Hom(A+, A),  C2 = Hom(A+ (x)_E A+, A),

A+ the span of the nontrivial basis paths B+.  The differentials are

    (D0 a)(x) = ax - xa
    (D1 f)(x1 (x) x2) = x1 f(x2) - f(pA(x1 x2)) + f(x1) x2

and the degree-1 bracket is [f,g] = f.pA.g - g.pA.f.  D0 is held as
sparse image columns over C1 and D1 as sparse rows over C1, both
assembled here straight from the cochain formulas; cochains, products
and brackets are sparse {index: coeff} dicts.  ``d0`` and ``d1`` write
them out as new dense row-major lists.  Independence from
ppcomplex is the whole point: the two share only exactla and the
quotient algebra.
"""

from __future__ import annotations

from .exactla import (
    add_to, combine, dense, kernel_basis, row_space, rows_of_columns, sparse, subspace_quotient,
)
from .pathalg import compose


class BarSlice:
    __slots__ = ("algebra", "c0_basis", "c1_basis", "c2_basis", "c1_index",
                 "d0_cols", "d1_rows", "_bplus", "_products", "_spaces")

    def __init__(self, algebra):
        self.algebra = algebra
        quiver = algebra.quiver
        self._bplus = [p for p in algebra.basis if p.length > 0]
        self.c0_basis = [(v, b) for v in range(quiver.n_vertices)
                         for b in algebra.parallel(v, v)]
        self.c1_basis = [(x, b) for x in self._bplus
                         for b in algebra.parallel(x.source, x.target)]
        self.c1_index = {pair: i for i, pair in enumerate(self.c1_basis)}
        self._products = {}
        self.d0_cols = self._image_columns()
        self.c2_basis, self.d1_rows = self._kernel_rows()
        self._spaces = None

    @property
    def d0(self):
        rows = rows_of_columns(self.d0_cols, len(self.c1_basis))
        return [dense(r, len(self.c0_basis), self.algebra.field) for r in rows]

    @property
    def d1(self):
        n, field = len(self.c1_basis), self.algebra.field
        return [dense(r, n, field) for r in self.d1_rows]

    def _product(self, p, q):
        """pi(p q) as a sparse {basis index: coeff} dict, {} if p, q do not
        compose; memoized per (p, q).  Shared with the algebra's map: do
        not mutate."""
        got = self._products.get((p, q))
        if got is None:
            r = compose(p, q)
            got = self._products[(p, q)] = self.algebra.path_coords(r) if r else {}
        return got

    def _image_columns(self):
        # column (v, b): the cochain x -> bx - xb
        a = self.algebra
        field = a.field
        one, minus = field.one, field.neg(field.one)

        def at(x, val):
            return {self.c1_index[(x, a.basis[j])]: c for j, c in val.items()}

        return [combine([(at(x, self._product(b, x)), one) for x in self._bplus]
                        + [(at(x, self._product(x, b)), minus) for x in self._bplus], field)
                for _, b in self.c0_basis]

    def _kernel_rows(self):
        """(C2 labels, D1 rows), one (x1, x2) group of rows at a time: the
        rows (x1, x2, b) for b parallel to x1 x2."""
        a = self.algebra
        field = a.field
        labels, rows = [], []
        for x1, x2 in ((x1, x2) for x1 in self._bplus for x2 in self._bplus
                       if x1.source == x2.target):
            group = {b: {} for b in a.parallel(x2.source, x1.target)}

            def bump(b, col, c):
                add_to(group[b], {col: c}, field.one, field)

            # -f(pA(x1 x2)): I in kQ>=2 keeps pi(x1 x2) in length >= 2, where pA = id
            for j, c in self._product(x1, x2).items():
                x = a.basis[j]
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
            labels += [(x1, x2, b) for b in group]
            rows += group.values()
        return labels, rows

    def spaces(self):
        """(Ker D1, Im D0) as subspaces of C1, each differential eliminated
        once per slice."""
        if self._spaces is None:
            field = self.algebra.field
            n = len(self.c1_basis)
            self._spaces = (kernel_basis(self.d1_rows, field, n),
                            row_space(self.d0_cols, field, n))
        return self._spaces


def build_bar_slice(algebra):
    return BarSlice(algebra)


def bar_hh_dims(algebra, slice_=None):
    """(dim HH0, dim HH1) = (dim Ker D0, dim Ker D1 - rank D0)."""
    sl = slice_ or BarSlice(algebra)
    k1, u0 = sl.spaces()
    return len(sl.c0_basis) - u0.dim, k1.dim - u0.dim


def bracket_c1(u, v, sl):
    """[u, v] = u.pA.v - v.pA.u of C1 cochains u, v (sparse or dense), as a
    sparse C1 vector."""
    field = sl.algebra.field
    basis, index = sl.c1_basis, sl.c1_index
    u, v = sparse(u), sparse(v)

    def after(f, g):
        # f.pA.g sends x to the sum of c f(b) over the (x, b) coordinates c
        # of g; f(b) lives on paths parallel to x, and f(e) = 0 for trivial e
        values = {}
        for k, c in f.items():
            x, b = basis[k]
            values.setdefault(x, {})[b] = c
        for k, c in g.items():
            x, b = basis[k]
            yield {index[(x, b2)]: c2 for b2, c2 in values.get(b, {}).items()}, c

    return combine([*after(u, v), *((w, field.neg(c)) for w, c in after(v, u))], field)


def bar_derived_series(algebra, slice_=None):
    """Derived-series dims of Ker D1 / Im D0 under the cochain bracket."""
    sl = slice_ or BarSlice(algebra)
    field = algebra.field
    k1, u0 = sl.spaces()
    dim_l = subspace_quotient(k1, u0)[0]
    dims = [dim_l]
    if dim_l == 0:
        return dims
    basis = k1.basis
    while True:
        gens = u0.basis + [bracket_c1(x, y, sl) for i, x in enumerate(basis)
                           for y in basis[i + 1:]]
        basis = row_space(gens, field, len(sl.c1_basis)).basis
        dims.append(len(basis) - u0.dim)
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims
