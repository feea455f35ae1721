"""Exact linear algebra over Q or a prime field GF(p).

A vector is a sparse row: a dict {index: coeff} that never stores a
zero.  Coefficients are in canonical form: over Q an ``int`` while the
value is integral and a ``fractions.Fraction`` with denominator > 1
otherwise, so the type depends on the value alone and most arithmetic
stays on ints; over GF(p) ints in ``range(p)``.  A matrix is a
list of sparse rows, or of sparse columns where a caller spans an image.
No floats, ever: Groebner and cohomology computations downstream are
only meaningful with exact arithmetic.  ``dense`` writes a sparse vector
out as a list of coordinates, for callers that read entries by
position; ``sparse`` takes either form back.

Elimination ends in the reduced row-echelon form, which a subspace
determines uniquely, so every basis produced by this module depends on
the subspace alone and is reproducible bit for bit.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class NotASubspace(Exception):
    """Raised when a claimed subspace inclusion u <= v fails.

    Carries the offending vector so callers can report it.
    """

    def __init__(self, vector):
        self.vector = vector
        super().__init__(f"vector outside the ambient subspace: {vector}")


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _q(x):
    """The rational x in canonical form: an int if integral, else a Fraction."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class Field:
    """Scalar arithmetic for Q (characteristic 0) or GF(p).

    GF(p) elements are ints reduced into range(p).  Q elements are ints
    while integral and Fractions with denominator > 1 otherwise; every
    result of ``add``, ``sub``, ``mul``, ``inv`` and ``of`` is put in that
    form, and ``neg`` keeps it.  ``of`` coerces an int (or Fraction in
    char 0) into canonical form.
    """

    __slots__ = ("char", "zero", "one", "add", "sub", "mul", "neg", "inv")

    def __init__(self, char=0):
        # the bound first: trial division of a large number never ends
        if char >= 1 << 31:
            raise ValueError(f"field characteristic {char} exceeds the cap 2^31")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        self.char = char
        # bound once per field, so no call branches on the characteristic
        if char == 0:
            self.zero = 0
            self.one = 1
            self.add = lambda a, b: _q(a + b)
            self.sub = lambda a, b: _q(a - b)
            self.mul = lambda a, b: _q(a * b)
            self.neg = operator.neg
            self.inv = lambda a: _q(Fraction(1) / a)
        else:
            p = char
            self.zero = 0
            self.one = 1
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: a * b % p
            self.neg = lambda a: -a % p
            self.inv = lambda a: pow(a, -1, p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"

    def of(self, n):
        if self.char == 0:
            return _q(Fraction(n))
        return int(n) % self.char

    def div(self, a, b):
        return self.mul(a, self.inv(b))


def parse_field(text):
    """Parse 'Q' or 'GF(p)' into a Field."""
    text = text.strip()
    if text == "Q":
        return Field(0)
    if text.startswith("GF(") and text.endswith(")"):
        inner = text[3:-1].strip()
        if inner.isascii() and inner.isdigit():
            digits = inner.lstrip("0")
            if not digits:
                raise ValueError("GF(0) is not a field; write Q for characteristic 0")
            if len(digits) > 10:  # past 2^31; counted, as int() refuses 4300+ digits
                raise ValueError(f"field characteristic {digits} exceeds the cap 2^31")
            return Field(int(digits))
    raise ValueError(f"unrecognized field {text!r}; expected Q or GF(p)")


def sparse(vec):
    """vec as a sparse dict: a dict is returned as it is, a sequence of
    coordinates loses its zeros."""
    return vec if isinstance(vec, dict) else {i: c for i, c in enumerate(vec) if c}


def dense(vec, n, field):
    """The n coordinates of the sparse vec as a new list, zeros field.zero."""
    out = [field.zero] * n
    for i, c in vec.items():
        out[i] = c
    return out


def rows_of_columns(cols, nrows):
    """The nrows sparse rows of the matrix whose sparse columns are cols."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    return rows


def add_to(out, vec, c, field):
    """out += c*vec in place for a sparse dict out and a nonzero c; a
    coordinate that cancels is deleted, so out never stores a zero.
    Returns out."""
    add, mul = field.add, field.mul
    # an identity test: comparing Fractions costs more than it saves, and a
    # computed 1 is a canonical int, which CPython keeps as the one object
    scaled = c is not field.one
    for i, x in vec.items():
        if scaled:
            x = mul(c, x)
        y = out.get(i)
        if y is None:
            out[i] = x
        elif y := add(y, x):
            out[i] = y
        else:
            del out[i]
    return out


def combine(pairs, field):
    """sum c*vec over (sparse vec, nonzero coeff c) pairs as a new sparse dict."""
    out = {}
    for vec, c in pairs:
        add_to(out, vec, c, field)
    return out


def _reduce(vec, rows, field):
    """vec less the multiples of rows that clear it at their pivots.

    rows maps a pivot column to a sparse row that is one there and zero at
    every other pivot in rows, so the coefficients are read off vec at once.
    """
    neg = field.neg
    return combine([(vec, field.one)]
                   + [(rows[p], neg(c)) for p, c in vec.items() if p in rows], field)


def rref(rows, field, limit=None):
    """Reduced row-echelon form of an iterable of sparse rows.

    Returns (rank, reduced_rows, pivot_columns): the rank nonzero rows of
    the unique RREF, as new dicts in pivot order.  Rows are taken one at a
    time: each is reduced by the rows kept so far, and when something is
    left it is scaled to one at its leftmost column, which is cleared from
    every kept row that holds it.  Once the rank reaches limit no further
    row is read, so the result is the RREF of the rows read up to then.
    """
    kept = {}
    rows = iter(rows)
    while len(kept) != limit and (row := next(rows, None)) is not None:
        vec = _reduce(row, kept, field)
        if not vec:
            continue
        p = min(vec)
        if vec[p] != field.one:
            inv = field.inv(vec[p])
            vec = {j: field.mul(inv, x) for j, x in vec.items()}
        new = {p: vec}
        for q, r in kept.items():
            if p in r:
                kept[q] = _reduce(r, new, field)
        kept[p] = vec
    pivots = sorted(kept)
    return len(pivots), [kept[p] for p in pivots], tuple(pivots)


class Subspace:
    """A subspace of k^n held as its RREF basis: sparse rows, no zero rows."""

    __slots__ = ("ambient_dim", "basis", "pivots", "field", "_rows", "_complements")

    def __init__(self, ambient_dim, basis, pivots, field):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self.field = field
        self._rows = dict(zip(self.pivots, basis))
        self._complements = {}

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Normal form of vec (sparse or dense) modulo this subspace, as a
        sparse dict: every pivot coordinate is killed."""
        return _reduce(sparse(vec), self._rows, self.field)

    def contains(self, vec):
        return not self.reduce(vec)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def row_space(rows, field, ambient_dim):
    """Subspace of k^ambient_dim spanned by the sparse rows."""
    rank, red, pivots = rref(rows, field)
    return Subspace(ambient_dim, red, pivots, field)


def kernel_basis(rows, field, ncols):
    """RREF basis of the right null space {x : M x = 0} of the sparse rows."""
    rank, red, pivots = rref(rows, field)
    pivot_set = set(pivots)
    vecs = {c: {c: field.one} for c in range(ncols) if c not in pivot_set}
    for p, row in zip(pivots, red):
        for c, x in row.items():
            if c != p:
                vecs[c][p] = field.neg(x)
    # the natural basis is echelon in the free columns but not RREF;
    # re-reduce so the Subspace invariant holds
    return row_space(list(vecs.values()), field, ncols)


def subspace_quotient(v, u):
    """Quotient v/u: (dimension, representative sparse rows).

    Representatives are the v-basis rows whose pivot column is not a
    pivot column of u.  Raises NotASubspace if u is not contained in v.
    """
    for w in u.basis:
        if not v.contains(w):
            raise NotASubspace(w)
    upiv = set(u.pivots)
    reps = [row for row, p in zip(v.basis, v.pivots) if p not in upiv]
    return v.dim - u.dim, reps


def coset_coordinates(w, v, u):
    """Coordinates of w + u (w sparse or dense) in the
    subspace_quotient(v, u) representatives, as a sparse dict by
    representative index.

    Valid because pivots(u) is a subset of pivots(v) when u <= v: reducing
    w by u zeroes the u-pivot coordinates, and what is left reads off the
    coefficients of the complement rows, whose pivots v indexes once per u.
    """
    if id(u) not in v._complements:  # u is kept with its entry: its id stays unique
        comp = (p for p in v.pivots if p not in u._rows)
        v._complements[id(u)] = (u, {p: k for k, p in enumerate(comp)})
    index, red = v._complements[id(u)][1], u.reduce(w)
    return {index[p]: red[p] for p in sorted(red) if p in index}
