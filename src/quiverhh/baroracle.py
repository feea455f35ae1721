"""Brute-force HH0/HH1 from the reduced bar resolution.

This is the cross-check for the parallel-paths route: same answers, very
different computation.  Cochains are E-bimodule maps valued in A, with

    C0 = sum_e eAe,  C1 = Hom(A+, A),  C2 = Hom(A+ (x)_E A+, A),

A+ the span of the nontrivial basis paths B+.  The differentials are

    (D0 a)(x) = ax - xa
    (D1 f)(x1 (x) x2) = x1 f(x2) - f(pA(x1 x2)) + f(x1) x2

and the degree-1 bracket is [f,g] = f.pA.g - g.pA.f.  Cochains, products
and brackets are sparse {index: coeff} dicts, and every differential is
assembled here straight from the cochain formulas.

The route works on the arrow columns of C1, the columns (a, b) with a
an arrow; llex order puts the arrows first in B+, so these are the
first columns.  E(phi) extends arrow values phi to all of B+ along
``QuotientAlgebra.steps``, by f(x b') = x f(b') + f(x) b'.  Three facts
make the arrow columns enough:

1. Ker D1 is E of the kernel of the arrow rows (a, x2) with a x2 not
   itself a basis path.  The arrow rows (a, x2, b), a an arrow, cut out
   Ker D1: if f satisfies them, every row holds by induction on |x1|.
   Write x1 = a x1' with x1' in B+ and z = pA(x1' x2) in span B+.  The
   arrow rows (a, b) for b in z give f(pA(x1 x2)) = a f(z) + f(a) z;
   induction gives f(z) = x1' f(x2) + f(x1') x2, and the arrow row
   (a, x1') gives f(x1) = a f(x1') + f(a) x1', which together read
   x1 f(x2) + f(x1) x2.  The arrow rows at (a, x2) with a x2 a basis
   path read f(a x2) = a f(x2) + f(a) x2, which is E's recursion: they
   force f = E(f on arrows) and hold identically on every E(phi).
2. Restriction to the arrows is injective on Ker D1, its inverse there
   being E, and Ker D1 contains Im D0.  So Im D0 and rank D0 are read
   from the D0 columns restricted to the arrows, and every basis here
   is the RREF of the whole-C1 basis restricted: all its pivots are
   arrow columns.
3. The bracket of two cocycles is a cocycle, so [u, v] in arrow
   coordinates is [E u, E v] restricted to the arrows, which needs
   E u and E v on the paths that v and u take the arrows to.

E runs along the steps once per list of cochains: the arrow unit
cochains in ``spaces``, and each derived step's representatives.  The
whole D1 (its arrow rows over all of C1), D0 and the C2 labels are
views built anew on each read, which no computation reads.  Assembly
works on basis indices, the quotient's product memo, arrow index and
class index; the C1 columns (x, b) of each x in B+ are one shared list
of ints, indexed by the position of b in the class of x.

The derived series brackets only the representatives of each term
modulo Im D0, the rows whose pivot is not a pivot of Im D0: every term
contains Im D0, and [Im D0, Ker D1] lies in Im D0 (inner derivations
form an ideal), so the span is the same.
Independence from ppcomplex is the whole point: the two share only
exactla and the quotient algebra.
"""

from __future__ import annotations

from .exactla import (add_to, dense, kernel_basis, row_space, rows_of_columns, sparse,
                      subspace_quotient)


class BarSlice:
    __slots__ = ("algebra", "c0_basis", "c1_basis", "_plus", "_par", "_pos", "_cols",
                 "_at", "_loops", "_n", "_d0", "_steps", "_spaces")

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
        self._loops = [i for v in range(algebra.quiver.n_vertices) for i in self._par[v]]
        self.c0_basis = [(basis[i].source, basis[i]) for i in self._loops]
        self.c1_basis = [(basis[x], basis[b]) for x, b in self._at]
        # the arrow columns are 0 .. _n - 1, and _d0 is D0 restricted to them
        self._n = sum(len(self._par[x]) for x in algebra.arrows)
        self._d0 = self._image_columns(algebra.arrows)
        # (j, x, i) with basis[j] = basis[x] basis[i], x an arrow and i in B+,
        # in basis order: llex puts each prefix i before j
        self._steps = [(j, algebra.arrows[algebra.steps[j][0]], algebra.steps[j][1])
                       for j in self._plus if basis[j].length > 1]
        self._spaces = None

    @property
    def c2_basis(self):
        """The labels (a, x2, b) of the D1 rows, a an arrow, in row order,
        as a new list."""
        basis = self.algebra.basis
        return [(basis[x1], basis[x2], basis[b])
                for x1, x2, group in self._groups() for b in group]

    @property
    def d0_cols(self):
        """D0 as sparse image columns over C1, one per C0 basis element, as a
        new list."""
        return self._image_columns(self._plus)

    @property
    def d1_rows(self):
        """The arrow rows of D1 as sparse rows over C1, in ``c2_basis``
        order, as a new list."""
        field, rows = self.algebra.field, []
        for x1, x2, group in self._groups():
            g = [{} for _ in group]
            for k, col, c in self._group_terms(x1, x2):
                add_to(g[k], {col: c}, field.one, field)
            rows += g
        return rows

    @property
    def d0(self):
        rows = rows_of_columns(self.d0_cols, len(self.c1_basis))
        return [dense(r, len(self.c0_basis), self.algebra.field) for r in rows]

    @property
    def d1(self):
        n, field = len(self.c1_basis), self.algebra.field
        return [dense(r, n, field) for r in self.d1_rows]

    def _image_columns(self, xs):
        # column (v, b) for b = basis[i], i in loops: the cochain x -> bx - xb
        # on the x in xs; the paths of bx and of xb are parallel to x, so
        # each product maps to distinct columns
        field = self.algebra.field
        one, minus = field.one, field.neg(field.one)
        cols, pos, prod = self._cols, self._pos, self.algebra._product
        out = []
        for i in self._loops:
            col = {}
            for x in xs:
                add_to(col, {cols[x][pos[j]]: c for j, c in prod(i, x).items()}, one, field)
            for x in xs:
                add_to(col, {cols[x][pos[j]]: c for j, c in prod(x, i).items()}, minus, field)
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
        for x1 in self.algebra.arrows:
            target = basis[x1].target
            for x2 in ending.get(basis[x1].source, ()):
                yield x1, x2, classes.get((basis[x2].source, target), ())

    def _group_terms(self, x1, x2):
        """The entries (k, column, coefficient) of the D1 rows (x1, x2, b_k),
        b_k the k-th basis path parallel to x1 x2; entries may share a
        position, and then add up."""
        field = self.algebra.field
        neg, par, pos, cols = field.neg, self._par, self._pos, self._cols
        prod = self.algebra._product
        # -f(pA(x1 x2)): I in kQ>=2 keeps pi(x1 x2) in length >= 2, where
        # pA = id, and each x there is parallel to x1 x2, so row k takes
        # column (x, b_k)
        terms = [(k, col, neg(c)) for j, c in prod(x1, x2).items()
                 for k, col in enumerate(cols[j])]
        # +x1 f(x2) for f elementary at (x2, b), +f(x1) x2 for f at (x1, b)
        terms += [(pos[j], col, c) for b, col in zip(par[x2], cols[x2])
                  for j, c in prod(x1, b).items()]
        terms += [(pos[j], col, c) for b, col in zip(par[x1], cols[x1])
                  for j, c in prod(b, x2).items()]
        return terms

    def _extend(self, cochains):
        """E of each arrow-coordinate cochain in the list, all at once: the
        values {x: {t: {r: c}}} on B+, c the coefficient of the basis path t
        in E(cochains[r])(x), by f(x b') = x f(b') + f(x) b' along steps,
        with f(e) = 0 for trivial e.  Only nonzero entries are kept."""
        field, prod, at = self.algebra.field, self.algebra._product, self._at
        values = {}
        for r, phi in enumerate(cochains):
            for k, c in phi.items():
                x, b = at[k]
                values.setdefault(x, {}).setdefault(b, {})[r] = c
        for j, x, i in self._steps:
            fi, fx = values.get(i), values.get(x)
            if fi or fx:
                acc = {}
                for t, v in (fi or {}).items():
                    for s, d in prod(x, t).items():
                        add_to(acc.setdefault(s, {}), v, d, field)
                for b, v in (fx or {}).items():
                    for s, d in prod(b, i).items():
                        add_to(acc.setdefault(s, {}), v, d, field)
                acc = {s: v for s, v in acc.items() if v}
                if acc:
                    values[j] = acc
        return values

    def _extensions(self, cochains):
        """E(phi) of each arrow-coordinate cochain phi in the list, as its
        values {x: sparse over B} on B+, one dict per cochain."""
        out = [{} for _ in cochains]
        for x, value in self._extend(cochains).items():
            for t, v in value.items():
                for r, c in v.items():
                    out[r].setdefault(x, {})[t] = c
        return out

    def spaces(self):
        """(Ker D1, Im D0) in the arrow coordinates, as subspaces of k^n for
        the n arrow columns, each eliminated once per slice: Ker D1 on the
        arrow rows that E does not satisfy by construction, each composed
        with E."""
        if self._spaces is None:
            algebra, cols, pos = self.algebra, self._cols, self._pos
            field, made = algebra.field, set(filter(None, algebra.steps))
            # ext[col]: {k: c} for the coordinate c at C1 column col of E(unit k)
            ext = {cols[x][pos[t]]: v
                   for x, value in self._extend([{k: field.one} for k in range(self._n)]).items()
                   for t, v in value.items()}
            rows = []
            for x1, x2, group in self._groups():
                if (algebra.basis[x1].arrows[0], x2) not in made:
                    g = [{} for _ in group]
                    for k, col, c in self._group_terms(x1, x2):
                        if col in ext:
                            add_to(g[k], ext[col], c, field)
                    rows += filter(None, g)
            self._spaces = (kernel_basis(rows, field, self._n),
                            row_space(self._d0, field, self._n))
        return self._spaces


def build_bar_slice(algebra):
    return BarSlice(algebra)


def bar_hh_dims(algebra, slice_=None):
    """(dim HH0, dim HH1) = (dim Ker D0, dim Ker D1 - rank D0)."""
    sl = slice_ or BarSlice(algebra)
    k1, u0 = sl.spaces()
    return len(sl.c0_basis) - u0.dim, k1.dim - u0.dim


def bracket_c1(u, v, sl):
    """[u, v] = u.pA.v - v.pA.u of arrow-coordinate cochains u, v (sparse
    or dense) on the arrows, as a sparse arrow-coordinate vector: the
    bracket of E u and E v restricted to the arrows, which for cocycles is
    the cocycle [E u, E v] itself."""
    u, v = sparse(u), sparse(v)
    return _bracket(u, v, *sl._extensions([u, v]), sl)


def _bracket(u, v, eu, ev, sl):
    """bracket_c1 of sparse u, v whose ``_extensions`` are eu, ev."""
    field = sl.algebra.field
    at, cols, pos, neg = sl._at, sl._cols, sl._pos, field.neg
    out = {}
    for values, g, sign in ((eu, v, None), (ev, u, neg)):
        # f.pA.g sends the arrow a to the sum of c f(b) over the (a, b)
        # coordinates c of g; f(b) lives on paths parallel to a, so on
        # distinct columns
        for k, c in g.items():
            a, b = at[k]
            value = values.get(b)
            if value:
                c, col = sign(c) if sign else c, cols[a]
                add_to(out, {col[pos[j]]: c2 for j, c2 in value.items()}, c, field)
    return out


def bar_derived_series(algebra, slice_=None):
    """Derived-series dims of Ker D1 / Im D0 under the cochain bracket.
    Each step extends the term's representatives modulo Im D0 once and
    brackets them pairwise."""
    sl = slice_ or BarSlice(algebra)
    field = algebra.field
    k1, u0 = sl.spaces()
    dim_l, reps = subspace_quotient(k1, u0)
    dims = [dim_l]
    if dim_l == 0:
        return dims
    while True:
        ext = sl._extensions(reps)
        # a zero bracket spans nothing, and most brackets are zero
        gens = u0.basis + [b for i, x in enumerate(reps) for j in range(i + 1, len(reps))
                           if (b := _bracket(x, reps[j], ext[i], ext[j], sl))]
        term = row_space(gens, field, sl._n)
        dims.append(term.dim - u0.dim)
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims
        reps = subspace_quotient(term, u0)[1]
