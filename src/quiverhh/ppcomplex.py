"""First Hochschild cohomology by the parallel-paths method.

For a finite-dimensional A = kQ/I with reduced Groebner basis G the
complex starts

    k(Q0//B) --psi0--> k(Q1//B) --psi1--> k(Tip(G)//B)

with HH0 = Ker psi0 and HH1 = Ker psi1 / Im psi0.  The bracket of
Ker psi1 descends to HH1 and makes it a Lie algebra; this module also
computes its derived series, the graded pieces L_{-1}, L_i, the diagonal
part L_00, and the loop-power characteristic condition that the positive
characteristic statements hypothesize.

psi1 substitutes arrows inside Groebner elements, which is only
meaningful when every element is uniform (all support paths parallel);
CochainSlice rejects anything else.
"""

from __future__ import annotations

from .exactla import (
    NotASubspace, coset_coordinates, kernel_basis, row_space, rref, subspace_quotient,
)
from .pathalg import FreeElement, Path, compose, format_combination
from .quotient import project_sparse


class NotParallel(Exception):
    """Substitution target is not parallel to the arrow it replaces."""


def substitute(eps, alpha, gamma):
    """eps^(alpha,gamma): replace one occurrence of alpha at a time, sum.

    alpha may be an arrow index or a length-1 Path.  gamma must be
    parallel to alpha; a trivial gamma deletes the occurrence (alpha is
    then a loop, so the neighbours still compose).  Paths without alpha
    give 0.
    """
    quiver = eps.quiver
    if isinstance(alpha, Path):
        if alpha.length != 1:
            raise ValueError("alpha must be a single arrow")
        alpha = alpha.arrows[0]
    if gamma.source != quiver.arrow_src[alpha] or gamma.target != quiver.arrow_tgt[alpha]:
        raise NotParallel(
            f"{gamma!r} is not parallel to arrow {quiver.arrow_names[alpha]}")
    field = eps.field if isinstance(eps, FreeElement) else None
    if field is None:
        raise TypeError("eps must be a FreeElement")
    acc = {}
    for q, coeff in _substitutions(eps.terms.items(), alpha, gamma):
        acc[q] = field.add(acc.get(q, field.zero), coeff)
    return FreeElement(quiver, field, acc)


def _substitutions(terms, alpha, gamma):
    """(q, coeff) per occurrence of arrow index alpha in each (p, coeff) of
    terms, q being p with that occurrence replaced by the parallel gamma."""
    for p, coeff in terms:
        word = p.arrows
        for i, a in enumerate(word):
            if a != alpha:
                continue
            new = word[:i] + gamma.arrows + word[i + 1:]
            if new:
                yield Path(p.quiver, new), coeff
            else:
                yield Path(p.quiver, (), base=p.source), coeff


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

    Matrices are dense row-major: psi0 has one row per Q1//B pair and one
    column per Q0//B pair; psi1 one row per Tip//B pair and one column
    per Q1//B pair.  Pair spaces are read off ``algebra.parallel``, and
    pair brackets are not stored: the algebra memoizes their projections.
    """

    __slots__ = (
        "algebra", "q0_pairs", "q1_pairs", "tip_pairs",
        "q1_index", "psi0", "psi1", "_hh1",
    )

    def __init__(self, algebra):
        self.algebra = algebra
        quiver = algebra.quiver
        ensure_uniform(algebra.gb)
        self.q0_pairs = [(v, b) for v in range(quiver.n_vertices)
                         for b in algebra.parallel(v, v)]
        self.q1_pairs = [(a, b) for a in range(quiver.n_arrows)
                         for b in algebra.parallel(quiver.arrow_src[a], quiver.arrow_tgt[a])]
        self.q1_index = {pair: i for i, pair in enumerate(self.q1_pairs)}
        self.tip_pairs = [(t, b) for t in algebra.gb.tips()
                          for b in algebra.parallel(t.source, t.target)]
        self.psi0 = self._build_psi0()
        self.psi1 = self._build_psi1()
        self._hh1 = None

    def _build_psi0(self):
        a = self.algebra
        quiver, field = a.quiver, a.field
        rows = [[field.zero] * len(self.q0_pairs) for _ in self.q1_pairs]
        for col, (v, gamma) in enumerate(self.q0_pairs):
            for arr in quiver.arrows_from(v):
                # (arr, pi(arr . gamma)), arrow applied after gamma
                prod = compose(quiver.arrow(arr), gamma)
                for bi, c in a.path_coords(prod).items():
                    r = self.q1_index[(arr, a.basis[bi])]
                    rows[r][col] = field.add(rows[r][col], c)
            for arr in quiver.arrows_into(v):
                prod = compose(gamma, quiver.arrow(arr))
                for bi, c in a.path_coords(prod).items():
                    r = self.q1_index[(arr, a.basis[bi])]
                    rows[r][col] = field.sub(rows[r][col], c)
        return rows

    def _build_psi1(self):
        a = self.algebra
        field = a.field
        tip_index = {pair: i for i, pair in enumerate(self.tip_pairs)}
        rows = [[field.zero] * len(self.q1_pairs) for _ in self.tip_pairs]
        elems = [(t, list(g.terms.items())) for t, g in zip(a.gb.tips(), a.gb.elements)]
        for col, (arr, gamma) in enumerate(self.q1_pairs):
            for tg, terms in elems:
                img = project_sparse(_substitutions(terms, arr, gamma), a)
                for bi, c in img.items():
                    r = tip_index[(tg, a.basis[bi])]
                    rows[r][col] = field.add(rows[r][col], c)
        return rows

    def _pair_bracket(self, i, j):
        """[(a,g),(b,e)] = (b, pi(e^(a,g))) - (a, pi(g^(b,e))) for pairs i and
        j, as a sparse {Q1//B index: coeff} dict."""
        a = self.algebra
        field = a.field
        (ai, gi), (aj, gj) = self.q1_pairs[i], self.q1_pairs[j]
        got = {}
        for arrow, path, alpha, gamma, sign in ((aj, gj, ai, gi, field.one),
                                                (ai, gi, aj, gj, field.neg(field.one))):
            img = project_sparse(_substitutions(((path, sign),), alpha, gamma), a)
            for bi, c in img.items():
                idx = self.q1_index.get((arrow, a.basis[bi]))
                if idx is None:
                    raise AssertionError("bracket left the pair space")
                got[idx] = field.add(got.get(idx, field.zero), c)
        return {k: c for k, c in got.items() if c}

    # -- derived spaces ------------------------------------------------

    def _psi0_columns(self, degree=None):
        """Columns of psi0 whose Q0//B pair (v, gamma) has l(gamma) = degree,
        all columns by default."""
        return [[row[j] for row in self.psi0]
                for j, (_, gamma) in enumerate(self.q0_pairs)
                if degree is None or gamma.length == degree]

    def hh1_spaces(self):
        if self._hh1 is None:
            field, n = self.algebra.field, len(self.q1_pairs)
            k = kernel_basis(self.psi1, field, ncols=n)
            u = row_space(self._psi0_columns(), field, ambient_dim=n)
            dim, reps = subspace_quotient(k, u)
            self._hh1 = (k, u, dim, reps)
        return self._hh1

    def pair_label(self, i):
        arr, b = self.q1_pairs[i]
        return f"({self.algebra.quiver.arrow_names[arr]},{b!r})"

    def format_vector(self, vec, label=None):
        """Signed combination of the nonzero coordinates of vec; label(i)
        names coordinate i, the Q1//B pair by default."""
        label = label or self.pair_label
        return format_combination(((label(i), c) for i, c in enumerate(vec) if c),
                                  self.algebra.field)


def compute_hh0(algebra, slice_=None):
    """(dim, RREF basis vectors) of Ker psi0."""
    sl = slice_ or CochainSlice(algebra)
    ker = kernel_basis(sl.psi0, algebra.field, ncols=len(sl.q0_pairs))
    return ker.dim, ker.basis


def compute_hh1(algebra, slice_=None):
    """(dim, representative vectors over Q1//B) of Ker psi1 / Im psi0."""
    sl = slice_ or CochainSlice(algebra)
    _, _, dim, reps = sl.hh1_spaces()
    return dim, reps


def bracket_pairs(u, v, slice_):
    """[(u, v)] on k(Q1//B): bilinear extension of the pair bracket.

    [(a,g),(b,e)] = (b, pi(e^(a,g))) - (a, pi(g^(b,e))).
    """
    field = slice_.algebra.field
    out = [field.zero] * len(slice_.q1_pairs)
    nz_v = [(j, cj) for j, cj in enumerate(v) if cj]
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in nz_v:
            scale = field.mul(ci, cj)
            for k, c in slice_._pair_bracket(i, j).items():
                out[k] = field.add(out[k], field.mul(scale, c))
    return out


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


def _derived_dims(dim, const, field):
    """Dims of L, [L,L], ... until stable; brackets via structure constants."""
    zero = field.zero
    sparse = {}
    for ij, cij in const.items():
        nz = [(k, c) for k, c in enumerate(cij) if c]
        if nz:
            sparse[ij] = nz

    def bracket_coords(x, y):
        # x, y: sparse [(index, coeff)] lists
        out = [zero] * dim
        for i, xi in x:
            for j, yj in y:
                cij = sparse.get((i, j))
                if cij is None:
                    continue
                s = field.mul(xi, yj)
                for k, c in cij:
                    out[k] = field.add(out[k], field.mul(s, c))
        return out

    basis = [[(i, field.one)] for i in range(dim)]
    dims = [dim]
    while True:
        gens = []
        for i, x in enumerate(basis):
            for y in basis[i + 1:]:
                w = bracket_coords(x, y)
                if any(w):
                    gens.append(w)
        nxt = row_space(gens, field, dim)
        dims.append(nxt.dim)
        if nxt.dim == 0 or nxt.dim == dims[-2]:
            return dims
        basis = [[(i, c) for i, c in enumerate(b) if c] for b in nxt.basis]


def lie_presentation(algebra, slice_=None):
    """Structure constants, derived series and solvability of HH1."""
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    k, u, dim, reps = sl.hh1_spaces()
    const = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = bracket_pairs(reps[i], reps[j], sl)
            if not k.contains(w):
                raise AssertionError("bracket of cocycles left Ker psi1")
            cij = coset_coordinates(w, k, u)
            const[(i, j)] = cij
            const[(j, i)] = [field.neg(c) if c else c for c in cij]
    dims = _derived_dims(dim, const, field) if dim else [0]
    solvable = dims[-1] == 0
    labels = [sl.format_vector(r) for r in reps]
    return LiePresentation(dim, labels, reps, const, dims, solvable)


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

    Pair (alpha, gamma) has degree l(gamma) - 1.  Each piece lives on a
    set S of Q1//B pairs: S is one degree for L_i, the diagonal pairs
    (alpha, alpha) for L_00.  Ker psi1 meets span{e_c : c in S} in the
    kernel of the psi1 columns in S, so that part has dimension
    |S| - rank(psi1[:, S]).  L_00 and L_i subtract the rank of the
    degree-0 or degree-i psi0 columns (L_{-1} has no image part); every
    such column must be supported in S, else NotASubspace is raised.
    """
    sl = slice_ or CochainSlice(algebra)
    field = algebra.field
    sl.hh1_spaces()

    def piece(cols, degree=None):
        dim = len(cols) - rref([[row[c] for row in sl.psi1] for c in cols], field)[0]
        if degree is None:
            return dim
        image = sl._psi0_columns(degree)
        for col in image:
            if any(x for r, x in enumerate(col) if r not in cols):
                raise NotASubspace(col)
        return dim - rref(image, field)[0]

    deg_indices = {}
    for idx, (arr, b) in enumerate(sl.q1_pairs):
        deg_indices.setdefault(b.length - 1, set()).add(idx)
    diag = {
        idx for idx, (arr, b) in enumerate(sl.q1_pairs)
        if b.length == 1 and b.arrows[0] == arr
    }
    dim_l_minus1 = piece(deg_indices.get(-1, set()))
    dim_l00 = piece(diag, 0)

    homogeneous = is_homogeneous(algebra.gb)
    graded_dims = None
    if homogeneous:
        max_deg = max((b.length - 1 for _, b in sl.q1_pairs), default=-1)
        graded_dims = [piece(deg_indices.get(deg, set()), deg)
                       for deg in range(0, max_deg + 1)]
    return GradedReport(homogeneous, dim_l_minus1, dim_l00, graded_dims)


def loop_char_report(algebra):
    """Per loop arrow: minimal m >= 2 with a^m a tip, and char | m flag."""
    quiver, field = algebra.quiver, algebra.field
    tips = set(algebra.gb.tip_words())
    out = []
    for a in range(quiver.n_arrows):
        if quiver.arrow_src[a] != quiver.arrow_tgt[a]:
            continue
        m = None
        for word in tips:
            if word and all(x == a for x in word):
                if m is None or len(word) < m:
                    m = len(word)
        if m is None:
            raise RuntimeError(
                f"no tip power of loop {quiver.arrow_names[a]}; "
                "algebra cannot be finite dimensional")
        divides = field.char != 0 and m % field.char == 0
        out.append((quiver.arrow_names[a], m, divides))
    return out


def loop_char_ok(algebra):
    return all(not divides for _, _, divides in loop_char_report(algebra))
