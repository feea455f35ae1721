"""Exact linear algebra over Q or a prime field GF(p).

Everything here works on plain list-of-list matrices whose entries are
either ``fractions.Fraction`` (characteristic 0) or canonical ints in
``range(p)`` (characteristic p).  No floats, ever: Groebner and cohomology
computations downstream are only meaningful with exact arithmetic.

Row reduction uses leftmost-column, first-nonzero-row pivoting with no
heuristics, so every basis produced by this module is deterministic and
reproducible bit for bit.
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


class Field:
    """Scalar arithmetic for Q (characteristic 0) or GF(p).

    GF(p) elements are ints reduced into range(p); Q elements are
    Fractions.  ``of`` coerces an int (or Fraction in char 0) into
    canonical form.
    """

    __slots__ = ("char", "zero", "one", "add", "sub", "mul", "neg", "inv")

    def __init__(self, char=0):
        if char != 0 and not _is_prime(char):
            raise ValueError(f"field characteristic must be 0 or prime, got {char}")
        if char >= 1 << 31:
            raise ValueError(f"prime too large: {char}")
        self.char = char
        # bound once per field, so no call branches on the characteristic
        if char == 0:
            self.zero = Fraction(0)
            self.one = Fraction(1)
            self.add, self.sub, self.mul = operator.add, operator.sub, operator.mul
            self.neg = operator.neg
            self.inv = lambda a: 1 / a
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
            return Fraction(n)
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
        if inner.isdigit():
            return Field(int(inner))
    raise ValueError(f"unrecognized field {text!r}; expected Q or GF(p)")


def rref(rows, field):
    """Reduce to the unique reduced row-echelon form.

    Returns (rank, reduced_rows, pivot_columns).  The reduced matrix keeps
    the input shape; zero rows sink to the bottom.
    """
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
        # touch only columns where the pivot row is nonzero
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


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


class Subspace:
    """A subspace of k^n held as an RREF basis (no zero rows)."""

    __slots__ = ("ambient_dim", "basis", "pivots", "field")

    def __init__(self, ambient_dim, basis, pivots, field):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)
        self.field = field

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Normal form of vec modulo this subspace (kill pivot coordinates)."""
        f = self.field
        vec = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = vec[p]
            if not c:
                continue
            for j in range(p, self.ambient_dim):
                rj = row[j]
                if rj:
                    vec[j] = f.sub(vec[j], f.mul(c, rj))
        return vec

    def contains(self, vec):
        return not any(self.reduce(vec))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def row_space(rows, field, ambient_dim=None):
    """Subspace spanned by the given row vectors."""
    if ambient_dim is None:
        ambient_dim = len(rows[0]) if rows else 0
    rank, red, pivots = rref(rows, field)
    return Subspace(ambient_dim, red[:rank], pivots, field)


def column_space(rows, field, ambient_dim=None):
    if ambient_dim is None:
        ambient_dim = len(rows)
    return row_space(transpose(rows), field, ambient_dim)


def kernel_basis(rows, field, ncols=None):
    """RREF basis of the right null space {x : M x = 0}."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rank, red, pivots = rref(rows, field)
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
    # the natural basis is echelon in the free columns but not RREF;
    # re-reduce so the Subspace invariant holds
    return row_space(vecs, field, ncols)


def subspace_quotient(v, u):
    """Quotient v/u: (dimension, representative vectors).

    Representatives are the v-basis vectors whose pivot column is not a
    pivot column of u.  Raises NotASubspace if u is not contained in v.
    """
    for w in u.basis:
        if not v.contains(w):
            raise NotASubspace(w)
    upiv = set(u.pivots)
    reps = [row for row, p in zip(v.basis, v.pivots) if p not in upiv]
    return v.dim - u.dim, reps


def coset_coordinates(w, v, u):
    """Coordinates of w + u in the subspace_quotient(v, u) representatives.

    Valid because pivots(u) is a subset of pivots(v) when u <= v: reducing
    w by u zeroes the u-pivot coordinates, and what is left reads off the
    coefficients of the complement rows.
    """
    upiv = set(u.pivots)
    red = u.reduce(w)
    return [red[p] for p in v.pivots if p not in upiv]
