"""Finite-dimensional quotient algebras A = kQ/I as normal-form calculators.

A QuotientAlgebra is the reduced Groebner basis plus the NonTip monomial
basis B in llex order.  Everything downstream (cohomology, the bar
oracle) works in coordinates over B, and both routes read their pair
spaces X//B (b in B parallel to x) off one index of B by endpoints.
NonTip is closed under subpaths, so each nontrivial basis path is an
arrow applied after a shorter basis path; ``steps`` records that split.
pi is multiplicative, so the image of any path is reached one arrow at a
time by the left action of an arrow on coordinates, memoized per (arrow,
basis index), after the longest prefix of the path that lies in B.
"""

from __future__ import annotations

from .exactla import combine
from .groebner import DEFAULT_MAX_BASIS, CapExceeded, normal_form, nontip_enumerate
from .pathalg import FreeElement, compose


# build_quotient raises groebner.CapExceeded; callers may catch it by this name
InfiniteDimensional = CapExceeded


class QuotientAlgebra:
    __slots__ = ("quiver", "field", "gb", "basis", "index", "steps", "_parallel",
                 "_path_coords", "_next", "_times")

    def __init__(self, quiver, field, gb, basis):
        self.quiver = quiver
        self.field = field
        self.gb = gb
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        self._parallel = {}
        for p in basis:
            self._parallel.setdefault((p.source, p.target), []).append(p)
        # steps[j] = (x, i) with basis[j] = x * basis[i], None for a trivial
        # path; x * basis[i] is then basis[j] in the left action as well
        at = {(p.base, p.arrows): j for j, p in enumerate(basis)}
        self.steps = [(p.arrows[-1], at[(p.base, p.arrows[:-1])]) if p.arrows else None
                      for p in basis]
        self._next = {s: j for j, s in enumerate(self.steps) if s}
        self._times = {s: {j: field.one} for s, j in self._next.items()}
        self._path_coords = {}

    @property
    def dim(self):
        return len(self.basis)

    def parallel(self, source, target):
        """The basis paths from vertex source to vertex target, in basis
        order.  Shared between callers: do not mutate the result."""
        return self._parallel.get((source, target), ())

    def path_coords(self, p):
        """pi(p) for one path p as a sparse {basis index: coeff} dict.

        Filled on first use and shared between callers: do not mutate the
        result.
        """
        got = self._path_coords.get(p)
        if got is None:
            # B is in llex order, so basis[v] is the trivial path at vertex v;
            # the longest prefix of p in B is walked with no arithmetic
            j, k, word = p.base, 0, p.arrows
            while k < len(word) and (i := self._next.get((word[k], j))) is not None:
                j, k = i, k + 1
            got = self._path_coords[p] = self._left(word[k:], {j: self.field.one})
        return got

    def _left(self, word, coords):
        """pi(w * v) for w the path with arrows word (first applied first)
        and v sparse over B, one arrow at a time; a new dict unless word is
        empty.  Each x * basis[j] goes through normal_form once."""
        times = self._times
        for x in word:
            terms = []
            for j, c in coords.items():
                got = times.get((x, j))
                if got is None:
                    r = compose(self.quiver.arrow(x), self.basis[j])
                    nf = normal_form(FreeElement.from_path(r, self.field), self.gb)
                    got = times[(x, j)] = {self.index[q]: d for q, d in nf.terms.items()}
                terms.append((got, c))
            coords = combine(terms, self.field)
        return coords

    def __repr__(self):
        return f"QuotientAlgebra(dim={self.dim})"


def build_quotient(gb, max_basis=DEFAULT_MAX_BASIS):
    """Enumerate B = NonTip and wrap it up; InfiniteDimensional (CapExceeded)
    past the cap or on proof of infinite dimension."""
    basis = nontip_enumerate(gb, max_basis=max_basis)
    return QuotientAlgebra(gb.quiver, gb.field, gb, basis)
