"""Quivers, paths and free path-algebra arithmetic.

Products read right to left: pq means "first q, then p", and a path
p = a_n ... a_1 has starting arrow a_1.  Internally a Path stores its
arrows in traversal order (first applied first); printing and parsing
reverse that, so what the user sees is the written word a_n ... a_1.

The admissible order is left length-lexicographic: shorter paths first,
ties broken letter by letter on the written form.  Vertices sit below all
arrows; within each kind, declaration order ascending gives precedence,
so the first declared arrow is the smallest.
"""

from __future__ import annotations

from .exactla import combine


class ZeroElement(Exception):
    """Raised when an operation needs a nonzero element (e.g. tip of 0)."""


ZERO = None  # the product of non-composable paths

# the longest path the relations of one input may spell out, all together:
# this many arrows is a few MB, and a longer one is refused before it is built
MAX_PATH_LENGTH = 1000000


class Quiver:
    """A finite quiver with named vertices and arrows.

    Names must be unique across vertices and arrows together, since both
    can appear in one algebra expression.
    """

    __slots__ = (
        "vertices", "arrow_names", "arrow_src", "arrow_tgt",
        "vertex_index", "arrow_index",
    )

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrow_names = []
        self.arrow_src = []
        self.arrow_tgt = []
        self.vertex_index = {}
        self.arrow_index = {}
        for i, v in enumerate(self.vertices):
            if v in self.vertex_index:
                raise ValueError(f"duplicate vertex name {v!r}")
            self.vertex_index[v] = i
        for name, src, tgt in arrows:
            if name in self.vertex_index or name in self.arrow_index:
                raise ValueError(f"duplicate name {name!r}")
            if src not in self.vertex_index:
                raise ValueError(f"arrow {name!r}: unknown source vertex {src!r}")
            if tgt not in self.vertex_index:
                raise ValueError(f"arrow {name!r}: unknown target vertex {tgt!r}")
            self.arrow_index[name] = len(self.arrow_names)
            self.arrow_names.append(name)
            self.arrow_src.append(self.vertex_index[src])
            self.arrow_tgt.append(self.vertex_index[tgt])

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_arrows(self):
        return len(self.arrow_names)

    def trivial(self, v):
        """Trivial path at vertex v (index or name)."""
        if isinstance(v, str):
            v = self.vertex_index[v]
        return Path(self, (), base=v)

    def arrow(self, a):
        """Length-1 path for arrow a (index or name)."""
        if isinstance(a, str):
            a = self.arrow_index[a]
        return Path(self, (a,))

    def arrows_from(self, v):
        return [i for i, s in enumerate(self.arrow_src) if s == v]

    def arrows_into(self, v):
        return [i for i, t in enumerate(self.arrow_tgt) if t == v]

    def written_path(self, names):
        """Build a path from arrow names in written (right-to-left) order."""
        idx = [self.arrow_index[n] for n in reversed(names)]
        return Path(self, tuple(idx))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrow_names)} arrows)"


class Path:
    """An immutable path; arrows in traversal order, base vertex if trivial."""

    __slots__ = ("quiver", "arrows", "base", "key", "_hash")

    def __init__(self, quiver, arrows, base=None):
        arrows = tuple(arrows)
        if arrows:
            src, tgt = quiver.arrow_src, quiver.arrow_tgt
            for a, b in zip(arrows, arrows[1:]):
                if tgt[a] != src[b]:
                    raise ValueError("non-composable arrow sequence")
            base = src[arrows[0]]
            key = (len(arrows), tuple(reversed(arrows)))
        else:
            if base is None:
                raise ValueError("trivial path needs a base vertex")
            key = (0, (base,))
        self.quiver = quiver
        self.arrows = arrows
        self.base = base
        self.key = key
        self._hash = hash(key)

    @property
    def length(self):
        return len(self.arrows)

    @property
    def is_trivial(self):
        return not self.arrows

    @property
    def source(self):
        return self.base

    @property
    def target(self):
        if not self.arrows:
            return self.base
        return self.quiver.arrow_tgt[self.arrows[-1]]

    def written(self):
        """Arrow indices in written order (last applied first)."""
        return tuple(reversed(self.arrows))

    def parallel_to(self, other):
        return self.source == other.source and self.target == other.target

    def __eq__(self, other):
        return isinstance(other, Path) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __repr__(self):
        return format_path(self)


def llex_compare(p, q):
    """-1, 0 or 1 comparing p and q in left length-lex order."""
    if p.key < q.key:
        return -1
    if p.key > q.key:
        return 1
    return 0


def compose(p, q):
    """The product pq: first q, then p.  ZERO when not composable."""
    if p.source != q.target:
        return ZERO
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.quiver, q.arrows + p.arrows)


def format_path(p):
    """Written form; runs of one arrow compress to powers (x*x*x -> x^3)."""
    if p.is_trivial:
        return p.quiver.vertices[p.base]
    names = [p.quiver.arrow_names[a] for a in p.written()]
    parts = []
    i = 0
    while i < len(names):
        j = i
        while j < len(names) and names[j] == names[i]:
            j += 1
        parts.append(names[i] if j - i == 1 else f"{names[i]}^{j - i}")
        i = j
    return "*".join(parts)


class FreeElement:
    """A finite k-linear combination of paths in one quiver."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = {p: c for p, c in terms.items() if c} if terms else {}

    @classmethod
    def from_path(cls, path, field, coeff=None):
        if coeff is None:
            coeff = field.one
        return cls(path.quiver, field, {path: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def tip(self):
        """(llex-maximal support path, its coefficient).  ZeroElement on 0."""
        if not self.terms:
            raise ZeroElement("tip of the zero element")
        p = max(self.terms, key=lambda q: q.key)
        return p, self.terms[p]

    def add(self, other):
        return FreeElement(self.quiver, self.field, combine(
            [(self.terms, self.field.one), (other.terms, self.field.one)], self.field))

    def scale(self, c):
        return FreeElement(self.quiver, self.field,
                           combine([(self.terms, c)], self.field) if c else None)

    def sub(self, other):
        f = self.field
        return FreeElement(self.quiver, f, combine(
            [(self.terms, f.one), (other.terms, f.neg(f.one))], f))

    def monic(self):
        _, c = self.tip()
        if c == self.field.one:
            return self
        return self.scale(self.field.inv(c))

    def __eq__(self, other):
        return (
            isinstance(other, FreeElement)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        return format_element(self)


def multiply(a, b):
    """Free-algebra product a*b (paths of a composed after paths of b)."""
    # for one p the products p*q of distinct q are distinct paths
    return FreeElement(a.quiver, a.field, combine(
        (({r: cq for q, cq in b.terms.items() if (r := compose(p, q)) is not ZERO}, cp)
         for p, cp in a.terms.items()), a.field))


def format_combination(pairs, field):
    """Signed combination of (name, nonzero coeff) pairs, "0" if there are
    none: coefficient 1 prints the bare name, a negative rational a leading
    "-" (" - " after the first term), any other coefficient "c*name"."""
    chunks = []
    for name, c in pairs:
        neg = field.char == 0 and c < 0
        mag = -c if neg else c
        body = name if mag == field.one else f"{mag}*{name}"
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks) if chunks else "0"


def format_element(a):
    items = sorted(a.terms.items(), key=lambda kv: kv[0].key, reverse=True)
    return format_combination(((format_path(p), c) for p, c in items), a.field)
