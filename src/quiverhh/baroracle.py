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
and brackets are sparse {index: coeff} dicts.

D1 is assembled only on its arrow rows, the rows (a, x2, b) with a an
arrow, and they cut out the same Ker D1.  If f satisfies them, every
row holds by induction on |x1|: write x1 = a x1' with x1' in B+ and
z = pA(x1' x2) in span B+.  The arrow rows (a, b) for b in z give
f(pA(x1 x2)) = a f(z) + f(a) z; induction gives f(z) = x1' f(x2) +
f(x1') x2, and the arrow row (a, x1') gives f(x1) = a f(x1') + f(a) x1',
which together read x1 f(x2) + f(x1) x2.

Assembly works on basis indices and builds no path itself: the product
of two basis paths is read off the quotient's memo per pair of basis
indices, and the classes of parallel basis paths off its index.  The C1
columns (x, b) of each x in B+ are one list of ints, indexed by the
position of b in the class of x, and every D0 column and D1 row holds
those shared ints.  The C2 labels of the arrow rows are built when
``c2_basis`` is read, and ``d0`` and ``d1`` write the differentials out
as new dense row-major lists.  Ker D1 depends on the row space alone,
so D1 is eliminated on its distinct nonzero rows.

The derived series brackets only the representatives of each term
modulo Im D0, the rows whose pivot is not a pivot of Im D0: every term
contains Im D0, and [Im D0, Ker D1] lies in Im D0 (inner derivations
form an ideal), so the span is the same.
Independence from ppcomplex is the whole point: the two share only
exactla and the quotient algebra.
"""

from __future__ import annotations

from .exactla import (
    add_at, dense, kernel_basis, row_space, rows_of_columns, sparse, subspace_quotient,
)


class BarSlice:
    __slots__ = ("algebra", "c0_basis", "c1_basis", "d0_cols", "d1_rows",
                 "_plus", "_par", "_pos", "_cols", "_at", "_spaces", "_indexed")

    def __init__(self, algebra):
        self.algebra = algebra
        basis = algebra.basis
        self._par, self._pos = algebra._par, algebra._pos
        self._plus = [i for i, p in enumerate(basis) if p.arrows]
        # _cols[x]: the C1 columns (x, b) for b in _par[x], () for trivial x;
        # _at[k]: the basis indices (x, b) of C1 column k
        self._cols, self._at = [()] * len(basis), []
        for x in self._plus:
            self._cols[x] = list(range(len(self._at), len(self._at) + len(self._par[x])))
            self._at += [(x, b) for b in self._par[x]]
        # basis[v] is the trivial path at vertex v, so _par[v] is v's loops
        loops = [i for v in range(algebra.quiver.n_vertices) for i in self._par[v]]
        self.c0_basis = [(basis[i].source, basis[i]) for i in loops]
        self.c1_basis = [(basis[x], basis[b]) for x, b in self._at]
        self.d0_cols = self._image_columns(loops)
        self.d1_rows = self._kernel_rows()
        self._spaces = None
        self._indexed = {}

    @property
    def c2_basis(self):
        """The labels (a, x2, b) of the D1 rows, a an arrow, in row order,
        as a new list."""
        basis = self.algebra.basis
        return [(basis[x1], basis[x2], basis[b])
                for x1, x2, group in self._groups() for b in group]

    @property
    def d0(self):
        rows = rows_of_columns(self.d0_cols, len(self.c1_basis))
        return [dense(r, len(self.c0_basis), self.algebra.field) for r in rows]

    @property
    def d1(self):
        n, field = len(self.c1_basis), self.algebra.field
        return [dense(r, n, field) for r in self.d1_rows]

    def _image_columns(self, loops):
        # column (v, b) for b = basis[i], i in loops: the cochain x -> bx - xb
        field = self.algebra.field
        neg, cols, pos, prod = field.neg, self._cols, self._pos, self.algebra._product
        out = []
        for i in loops:
            col = {}
            for x in self._plus:
                for j, c in prod(i, x).items():
                    add_at(col, cols[x][pos[j]], c, field)
            for x in self._plus:
                for j, c in prod(x, i).items():
                    add_at(col, cols[x][pos[j]], neg(c), field)
            out.append(col)
        return out

    def _groups(self):
        """(x1, x2, the class of basis indices parallel to x1 x2) per
        composable pair of B+ with x1 an arrow, in D1 row order, x1 and x2
        as basis indices."""
        basis, classes = self.algebra.basis, self.algebra._classes
        ending = {}
        for x in self._plus:
            ending.setdefault(basis[x].target, []).append(x)
        for x1 in (x for x in self._plus if len(basis[x].arrows) == 1):
            target = basis[x1].target
            for x2 in ending.get(basis[x1].source, ()):
                yield x1, x2, classes.get((basis[x2].source, target), ())

    def _kernel_rows(self):
        """The arrow rows of D1 as sparse rows, one (x1, x2) group of rows
        at a time: the rows (x1, x2, b) for b parallel to x1 x2, row k of a
        group at the k-th b."""
        field = self.algebra.field
        neg, par, pos, cols = field.neg, self._par, self._pos, self._cols
        prod = self.algebra._product
        rows = []
        for x1, x2, group in self._groups():
            g = [{} for _ in group]
            # -f(pA(x1 x2)): I in kQ>=2 keeps pi(x1 x2) in length >= 2, where
            # pA = id.  Each x there is parallel to x1 x2, so row k takes
            # column (x, b_k); the rows start empty and no two entries meet
            for j, c in prod(x1, x2).items():
                c = neg(c)
                for row, col in zip(g, cols[j]):
                    row[col] = c
            # +x1 f(x2) for f elementary at (x2, b)
            for b, col in zip(par[x2], cols[x2]):
                for j, c in prod(x1, b).items():
                    add_at(g[pos[j]], col, c, field)
            # +f(x1) x2 for f elementary at (x1, b)
            for b, col in zip(par[x1], cols[x1]):
                for j, c in prod(b, x2).items():
                    add_at(g[pos[j]], col, c, field)
            rows += g
        return rows

    def spaces(self):
        """(Ker D1, Im D0) as subspaces of C1, each differential eliminated
        once per slice, D1 on its distinct nonzero rows."""
        if self._spaces is None:
            field, n = self.algebra.field, len(self.c1_basis)
            self._spaces = (kernel_basis(_distinct(self.d1_rows), field, n),
                            row_space(self.d0_cols, field, n))
        return self._spaces


def _distinct(rows):
    """The nonzero rows, less each row equal to an earlier one, as a list
    in order.  A row is compared with the first row of its hash only, so a
    hash collision can keep a repeat but never drops a row."""
    first, out = {}, []
    for row in rows:
        if row:
            seen = first.setdefault(hash(frozenset(row.items())), row)
            if seen is row or seen != row:
                out.append(row)
    return out


def build_bar_slice(algebra):
    return BarSlice(algebra)


def bar_hh_dims(algebra, slice_=None):
    """(dim HH0, dim HH1) = (dim Ker D0, dim Ker D1 - rank D0)."""
    sl = slice_ or BarSlice(algebra)
    k1, u0 = sl.spaces()
    return len(sl.c0_basis) - u0.dim, k1.dim - u0.dim


def _values(f, sl):
    """The sparse cochain f as {x: [(position of b in the class of x, c)]}
    over its (x, b) coordinates c."""
    at, pos = sl._at, sl._pos
    values = {}
    for k, c in f.items():
        x, b = at[k]
        values.setdefault(x, []).append((pos[b], c))
    return values


def bracket_c1(u, v, sl):
    """[u, v] = u.pA.v - v.pA.u of C1 cochains u, v (sparse or dense), as a
    sparse C1 vector.  The values of a cochain indexed in ``sl._indexed``
    (by ``bar_derived_series``, for the representatives it brackets) are
    read there instead of being rebuilt."""
    field = sl.algebra.field
    at, cols, mul = sl._at, sl._cols, field.mul
    out = {}

    def add_after(values, g, sign):
        # f.pA.g sends x to the sum of c f(b) over the (x, b) coordinates c
        # of g; f(b) lives on paths parallel to x, and f(e) = 0 for trivial e
        for k, c in g.items():
            x, b = at[k]
            c = mul(sign, c)
            for p, c2 in values.get(b, ()):
                add_at(out, cols[x][p], mul(c, c2), field)

    def values(f):
        got = sl._indexed.get(id(f))
        return got[1] if got else _values(f, sl)

    u, v = sparse(u), sparse(v)
    add_after(values(u), v, field.one)
    add_after(values(v), u, field.neg(field.one))
    return out


def bar_derived_series(algebra, slice_=None):
    """Derived-series dims of Ker D1 / Im D0 under the cochain bracket.
    Each step brackets the pairs of the term's representatives modulo
    Im D0, whose values are indexed once per step in ``sl._indexed``."""
    sl = slice_ or BarSlice(algebra)
    field = algebra.field
    k1, u0 = sl.spaces()
    dim_l, reps = subspace_quotient(k1, u0)
    dims = [dim_l]
    if dim_l == 0:
        return dims
    while True:
        # an entry holds its cochain, so its id names no other object
        sl._indexed = {id(x): (x, _values(x, sl)) for x in reps}
        gens = u0.basis + [bracket_c1(x, y, sl) for i, x in enumerate(reps)
                           for y in reps[i + 1:]]
        term = row_space(gens, field, len(sl.c1_basis))
        dims.append(term.dim - u0.dim)
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            sl._indexed = {}
            return dims
        reps = subspace_quotient(term, u0)[1]
