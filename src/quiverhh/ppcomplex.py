"""First Hochschild cohomology by the parallel-paths method.

For a finite-dimensional A = kQ/I with reduced Groebner basis G the
complex starts

    k(Q0//B) --psi0--> k(Q1//B) --psi1--> k(Tip(G)//B)

with HH0 = Ker psi0 and HH1 = Ker psi1 / Im psi0.  The bracket of
Ker psi1 descends to HH1 and makes it a Lie algebra; this module also
computes its derived series, the graded pieces L_{-1}, L_i, the diagonal
part L_00, and the loop-power characteristic condition that the positive
characteristic statements hypothesize.

psi1 and the pair bracket apply the derivation D_k of a Q1//B pair
k = (alpha, gamma), which replaces alpha by gamma one occurrence at a
time, and read its images on basis paths from one table.  psi1 is only
meaningful when every element is uniform (all support paths parallel);
CochainSlice rejects anything else.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import accumulate
from types import MappingProxyType

from .exactla import (
    NotASubspace, add_to, combine, coset_coordinates, dense, kernel_basis, row_space,
    rows_of_columns, rref, sparse, subspace_quotient,
)
from .pathalg import Path, format_combination

# the one zero image the derivation table shares among its entries
_ZERO = MappingProxyType({})


def ensure_uniform(gb):
    """Every Groebner element must have all support paths parallel."""
    for g in gb.elements:
        paths = list(g.terms)
        p0 = paths[0]
        for p in paths[1:]:
            if not p.parallel_to(p0):
                raise ValueError(
                    f"non-uniform Groebner element {g!r}: "
                    f"{p0!r} and {p!r} are not parallel")


class CochainSlice:
    """Pair spaces and the psi0/psi1 matrices for one algebra.

    psi0 is held as ``psi0_cols``, one sparse column over Q1//B per Q0//B
    pair, and psi1 as ``psi1_rows``, one sparse row over Q1//B per Tip//B
    pair: Im psi0 is spanned by the columns and Ker psi1 is cut out by the
    rows.  ``psi0`` and ``psi1`` write the same matrices out as new dense
    row-major lists, for callers that read entries by position.  Pair
    spaces are read off the algebra's class index; ``degrees`` holds the degree
    l(gamma) - 1 of each Q1//B pair (alpha, gamma), and ``homogeneous``
    whether every Groebner element is.  Pair brackets are not stored, but
    the images pi(D_k(basis[j])) they and psi1 read are, in ``_images[k]``
    under j.
    """

    __slots__ = (
        "algebra", "q0_pairs", "q1_pairs", "tip_pairs", "degrees", "homogeneous",
        "psi0_cols", "psi1_rows", "_par", "_pos", "_starts", "_hh1", "_images",
    )

    def __init__(self, algebra):
        self.algebra = algebra
        ensure_uniform(algebra.gb)
        self.q0_pairs = [(v, b) for v in range(algebra.quiver.n_vertices)
                         for b in algebra.parallel(v, v)]
        # the Q1//B columns of an arrow are one block from _starts[arrow],
        # in the order of its class
        self._par, self._pos = algebra._par, algebra._pos
        self._starts = list(accumulate((len(self._par[i]) for i in algebra.arrows), initial=0))
        self.q1_pairs = [(a, algebra.basis[b]) for a, i in enumerate(algebra.arrows)
                         for b in self._par[i]]
        self.degrees = [b.length - 1 for _, b in self.q1_pairs]
        self.homogeneous = is_homogeneous(algebra.gb)
        self._images = {}
        self.psi0_cols = self._image_columns()
        self.tip_pairs, self.psi1_rows = self._kernel_rows()
        self._hh1 = None

    @property
    def psi0(self):
        rows = rows_of_columns(self.psi0_cols, len(self.q1_pairs))
        return [dense(r, len(self.q0_pairs), self.algebra.field) for r in rows]

    @property
    def psi1(self):
        n, field = len(self.q1_pairs), self.algebra.field
        return [dense(r, n, field) for r in self.psi1_rows]

    def _at_arrow(self, arrow, coords):
        """The sparse vector over Q1//B with coeff c at (arrow, basis[i]) for
        each i, c of the sparse coords over B."""
        par, pos, cls = self._par, self._pos, self._par[self.algebra.arrows[arrow]]
        start, out = self._starts[arrow], {}
        for i, c in coords.items():
            if par[i] is not cls:
                raise AssertionError("image left the pair space")
            out[start + pos[i]] = c
        return out

    def _image_columns(self):
        a = self.algebra
        quiver, field, prod, arrows = a.quiver, a.field, a._product, a.arrows
        one, minus = field.one, field.neg(field.one)
        cols = []
        for v, gamma in self.q0_pairs:
            g = a.index[gamma]
            # (arr, pi(arr . gamma)) for arrows out of v, arrow applied after
            # gamma, less (arr, pi(gamma . arr)) for arrows into v
            terms = [(self._at_arrow(arr, prod(arrows[arr], g)), one)
                     for arr in quiver.arrows_from(v)]
            terms += [(self._at_arrow(arr, prod(g, arrows[arr])), minus)
                      for arr in quiver.arrows_into(v)]
            cols.append(combine(terms, field))
        return cols

    def _image(self, k, j):
        """pi(D_k(basis[j])), sparse over B, kept in ``_images[k]`` under j
        with the images of the prefixes of basis[j]; every zero image is the
        one read-only ``_ZERO``.  Do not mutate."""
        images, steps = self._images.setdefault(k, {}), self.algebra.steps
        chain = []
        while j not in images and steps[j]:
            chain.append(j)
            j = steps[j][1]
        got = images.setdefault(j, _ZERO)  # a hit, or a trivial path: 0
        for j in reversed(chain):
            got = images[j] = self._derive(k, steps[j], got) or _ZERO
        return got

    def _derive(self, k, step, prev):
        """pi(D_k(x * basis[i])) as a new sparse dict, for step = (x, i) and
        prev = pi(D_k(basis[i])): x * prev, plus pi(gamma * basis[i]) when
        x is the arrow alpha of the pair k = (alpha, gamma)."""
        a = self.algebra
        x, i = step
        alpha, gamma = self.q1_pairs[k]
        img = a._left((x,), prev) if prev else {}
        if x == alpha:
            add_to(img, a._left(gamma.arrows, {i: a.field.one}), a.field.one, a.field)
        return img

    def _kernel_rows(self):
        """(Tip//B labels, psi1 rows), one Groebner element's group of rows
        at a time: the rows (t, b) for t its tip and b parallel to t hold
        pi(D_k(g)) at column k.  A reduced basis keeps the tail of g in B,
        read off the table, and the tip t = x * t' takes one step of it."""
        a = self.algebra
        labels, rows = [], []
        for t, g in zip(a.gb.tips(), a.gb.elements):
            cls = a._classes.get((t.source, t.target), ())
            group = [{} for _ in cls]
            tail = [(a.index[p], c) for p, c in g.terms.items() if p != t]
            step = (t.arrows[-1], a.index[Path(a.quiver, t.arrows[:-1], t.base)])
            # an element takes only the derivations of the arrows it uses
            used = {arr for p in g.terms for arr in p.arrows}
            for col, (arr, _) in enumerate(self.q1_pairs):
                if arr in used:
                    img = self._derive(col, step, self._image(col, step[1]))
                    for j, c in tail:
                        add_to(img, self._image(col, j), c, a.field)
                    for bi, c in img.items():
                        group[self._pos[bi]][col] = c
            labels += [(t, a.basis[b]) for b in cls]
            rows += group
        return labels, rows

    def _pair_bracket(self, ij):
        """[(a,g),(b,e)] = (b, pi(D_(a,g)(e))) - (a, pi(D_(b,e)(g))) for the
        pairs ij = (i, j), as a sparse vector over Q1//B."""
        i, j = ij
        a = self.algebra
        one = a.field.one
        terms = []
        for k, (arrow, path), sign in ((i, self.q1_pairs[j], one),
                                       (j, self.q1_pairs[i], a.field.neg(one))):
            terms.append((self._at_arrow(arrow, self._image(k, a.index[path])), sign))
        return combine(terms, a.field)

    def bracket(self, u, v):
        """[u, v] of sparse vectors over Q1//B, as a sparse vector: the
        bilinear extension of the pair bracket, which is antisymmetric."""
        return _bilinear(u, v, self._pair_bracket, self.algebra.field)

    # -- derived spaces ------------------------------------------------

    def hh1_spaces(self):
        """(Ker psi1, Im psi0, dim HH1, representatives as dense lists)."""
        if self._hh1 is None:
            field, n = self.algebra.field, len(self.q1_pairs)
            k = kernel_basis(self.psi1_rows, field, n)
            u = row_space(self.psi0_cols, field, n)
            dim, reps = subspace_quotient(k, u)
            self._hh1 = (k, u, dim, [dense(r, n, field) for r in reps])
        return self._hh1

    def pair_label(self, i):
        arr, b = self.q1_pairs[i]
        return f"({self.algebra.quiver.arrow_names[arr]},{b!r})"

    def format_vector(self, vec, label=None):
        """Signed combination of the nonzero coordinates of vec (sparse or
        dense) in ascending index order; label(i) names coordinate i, the
        Q1//B pair by default."""
        label = label or self.pair_label
        vec = sparse(vec)
        return format_combination(((label(i), vec[i]) for i in sorted(vec)),
                                  self.algebra.field)


def compute_hh0(algebra, slice_=None):
    """(dim, RREF basis sparse rows) of Ker psi0."""
    sl = slice_ or CochainSlice(algebra)
    rows = rows_of_columns(sl.psi0_cols, len(sl.q1_pairs))
    ker = kernel_basis(rows, algebra.field, len(sl.q0_pairs))
    return ker.dim, ker.basis


def compute_hh1(algebra, slice_=None):
    """(dim, representative dense vectors over Q1//B) of Ker psi1 / Im psi0."""
    sl = slice_ or CochainSlice(algebra)
    _, _, dim, reps = sl.hh1_spaces()
    return dim, reps


def bracket_pairs(u, v, slice_):
    """[(u, v)] on k(Q1//B) for u, v sparse or dense, as a dense list.

    The bilinear extension of the pair bracket
    [(a,g),(b,e)] = (b, pi(D_(a,g)(e))) - (a, pi(D_(b,e)(g))).
    """
    w = slice_.bracket(sparse(u), sparse(v))
    return dense(w, len(slice_.q1_pairs), slice_.algebra.field)


class StructureConstants(Mapping):
    """Read-only {(i, j): [h_i, h_j] as a dense list} for every i != j.

    Holds only ``nonzero``, the sparse [h_i, h_j] over the HH1
    representatives for i < j, in (i, j) order; a value is written out as
    a new dense list when its key is read, and [h_j, h_i] = -[h_i, h_j].
    Keys iterate as (0, 1), (1, 0), (0, 2), (2, 0), ...
    """

    __slots__ = ("dim", "nonzero", "field")

    def __init__(self, dim, nonzero, field):
        self.dim = dim
        self.nonzero = nonzero
        self.field = field

    def __getitem__(self, key):
        try:
            i, j = key
            valid = i != j and 0 <= i < self.dim and 0 <= j < self.dim
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise KeyError(key)
        one = self.field.one
        return dense(_bilinear({i: one}, {j: one}, self.nonzero.get, self.field),
                     self.dim, self.field)

    def __iter__(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                yield (i, j)
                yield (j, i)

    def __len__(self):
        return self.dim * (self.dim - 1)


class LiePresentation:
    __slots__ = ("dim", "basis_labels", "basis_vectors", "structure_constants",
                 "derived_dims", "solvable")

    def __init__(self, dim, basis_labels, basis_vectors, structure_constants,
                 derived_dims, solvable):
        self.dim = dim
        self.basis_labels = basis_labels
        self.basis_vectors = basis_vectors
        self.structure_constants = structure_constants
        self.derived_dims = derived_dims
        self.solvable = solvable

    def __repr__(self):
        return (f"LiePresentation(dim={self.dim}, derived={self.derived_dims}, "
                f"solvable={self.solvable})")


def _bilinear(x, y, table, field):
    """[x, y] of sparse vectors, for an antisymmetric bracket of basis
    vectors: table((i, j)) is the sparse [e_i, e_j] for i < j, or None when
    it is 0; [e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0 are not read."""
    mul, neg = field.mul, field.neg
    terms = []
    for i, xi in x.items():
        for j, yj in y.items():
            if i != j:
                c = table((i, j) if i < j else (j, i))
                if c is not None:
                    s = mul(xi, yj)
                    terms.append((c, s if i < j else neg(s)))
    return combine(terms, field)


class _Brackets(Sequence):
    """[x, y] for each (x, y) in pairs, computed when it is read: a sized
    sequence, so its length is known before any bracket is."""

    def __init__(self, pairs, nonzero, field):
        self.pairs, self.nonzero, self.field = pairs, nonzero, field

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, n):
        return _bilinear(*self.pairs[n], self.nonzero.get, self.field)


def _derived_dims(degrees, nonzero, field):
    """Dims of L, [L,L], ... until stable, for L spanned by the HH1
    representatives, h_m of degree degrees[m].

    [L_d, L_e] lies in L_{d+e}, so each term is held as RREF rows grouped
    by degree and only degree pairs whose sum is a representative degree
    are bracketed; with one degree for all this is a single block.  The
    next term's degree-s part lies in this one's, so its elimination stops
    at that rank, where the RREFs must be equal (AssertionError if not).
    """
    dim, present = len(degrees), set(degrees)
    blocks = {}
    for m, d in enumerate(degrees):
        blocks.setdefault(d, []).append({m: field.one})
    dims = [dim]
    while True:
        pairs = {}
        for d, rows in blocks.items():
            for e, cols in blocks.items():
                if d > e or d + e not in present:
                    continue
                pairs.setdefault(d + e, []).extend(
                    (x, y) for n, x in enumerate(rows)
                    for y in (rows[n + 1:] if d == e else cols))
        new = {}
        for s, ps in pairs.items():
            old = blocks.get(s, [])
            rank, new[s], _ = rref(_Brackets(ps, nonzero, field), field, len(old))
            if rank == len(old) and new[s] != old:
                raise AssertionError("derived term left the previous term")
        blocks = new
        dims.append(sum(len(rows) for rows in blocks.values()))
        if dims[-1] == 0 or dims[-1] == dims[-2]:
            return dims


def lie_presentation(algebra, slice_=None):
    """Structure constants, derived series and solvability of HH1.

    For a homogeneous ideal HH1 is graded, [L_d, L_e] in L_{d+e}, and the
    RREF representatives are homogeneous (AssertionError if one is not):
    a bracket whose degree d + e carries no Q1//B pair is 0 and is not
    computed, and a computed one must lie in degree d + e (AssertionError
    if not).  Otherwise every pair counts as degree 0.
    """
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    k, u, dim, reps = sl.hh1_spaces()
    vecs = [sparse(r) for r in reps]
    pair_degrees = sl.degrees if sl.homogeneous else [0] * len(sl.q1_pairs)
    present, degrees = set(pair_degrees), []
    for v in vecs:
        ds = {pair_degrees[i] for i in v}
        if len(ds) != 1:
            raise AssertionError(f"HH1 representative of degrees {sorted(ds)}")
        degrees.append(ds.pop())
    nonzero = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if degrees[i] + degrees[j] not in present:
                continue
            w = sl.bracket(vecs[i], vecs[j])
            if not k.contains(w):
                raise AssertionError("bracket of cocycles left Ker psi1")
            cij = coset_coordinates(w, k, u)
            if any(degrees[m] != degrees[i] + degrees[j] for m in cij):
                raise AssertionError(f"[h{i},h{j}] left degree {degrees[i] + degrees[j]}")
            if cij:
                nonzero[(i, j)] = cij
    dims = _derived_dims(degrees, nonzero, field) if dim else [0]
    labels = [sl.format_vector(v) for v in vecs]
    table = StructureConstants(dim, nonzero, field)
    return LiePresentation(dim, labels, reps, table, dims, dims[-1] == 0)


class GradedReport:
    __slots__ = ("homogeneous", "dim_L_minus1", "dim_L00", "graded_dims")

    def __init__(self, homogeneous, dim_L_minus1, dim_L00, graded_dims):
        self.homogeneous = homogeneous
        self.dim_L_minus1 = dim_L_minus1
        self.dim_L00 = dim_L00
        self.graded_dims = graded_dims

    def __repr__(self):
        return (f"GradedReport(homogeneous={self.homogeneous}, "
                f"L-1={self.dim_L_minus1}, L00={self.dim_L00}, "
                f"graded={self.graded_dims})")


def is_homogeneous(gb):
    for g in gb.elements:
        lengths = {p.length for p in g.terms}
        if len(lengths) > 1:
            return False
    return True


def graded_report(algebra, slice_=None):
    """L_{-1}, L_00 always; the L_i dimensions when the ideal is homogeneous.

    Pair (alpha, gamma) has degree l(gamma) - 1, and psi0 sends the Q0//B
    pair (v, gamma) to degree l(gamma).  L_{-1} and L_00 live on a set S
    of Q1//B pairs, degree -1 and the diagonal (alpha, alpha): Ker psi1
    meets span{e_c : c in S} in the kernel of psi1[:, S], of dimension
    |S| - rank(psi1[:, S]); L_00 subtracts the rank of the degree-0 psi0
    columns.  For a homogeneous ideal Ker psi1 and Im psi0 are graded, so
    their RREF rows are homogeneous, and L_i is the number of degree-i
    pivots of the first less that of the second.  A psi0 column outside
    its S or its degree raises NotASubspace.
    """
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    k, u, _, _ = sl.hh1_spaces()

    def piece(cols):
        # psi1[:, S] has the rank of the psi1 rows cut down to S
        cut = [{c: x for c, x in row.items() if c in cols} for row in sl.psi1_rows]
        return len(cols) - rref(cut, field)[0]

    def image(cols, degree):
        # the psi0 columns of this degree, each supported in cols
        out = [col for col, (_, g) in zip(sl.psi0_cols, sl.q0_pairs) if g.length == degree]
        for col in out:
            if any(r not in cols for r in col):
                raise NotASubspace(col)
        return out

    deg_indices = {}
    for idx, d in enumerate(sl.degrees):
        deg_indices.setdefault(d, set()).add(idx)
    diag = {idx for idx, (arr, b) in enumerate(sl.q1_pairs) if b.arrows == (arr,)}
    dim_l_minus1 = piece(deg_indices.get(-1, set()))
    dim_l00 = piece(diag) - rref(image(diag, 0), field)[0]

    graded_dims = None
    if sl.homogeneous:
        graded_dims = []
        for deg in range(max(deg_indices, default=-1) + 1):
            cols = deg_indices.get(deg, set())
            image(cols, deg)
            graded_dims.append(len(cols.intersection(k.pivots)) - len(cols.intersection(u.pivots)))
    return GradedReport(sl.homogeneous, dim_l_minus1, dim_l00, graded_dims)


def loop_char_report(algebra):
    """Per loop arrow: minimal m >= 2 with a^m a tip, and char | m flag."""
    quiver, field = algebra.quiver, algebra.field
    out = []
    for a in range(quiver.n_arrows):
        if quiver.arrow_src[a] != quiver.arrow_tgt[a]:
            continue
        m = algebra.gb.tip_power(a)
        if m is None:
            raise RuntimeError(
                f"no tip power of loop {quiver.arrow_names[a]}; "
                "algebra cannot be finite dimensional")
        divides = field.char != 0 and m % field.char == 0
        out.append((quiver.arrow_names[a], m, divides))
    return out


def loop_char_ok(algebra):
    return all(not divides for _, _, divides in loop_char_report(algebra))
