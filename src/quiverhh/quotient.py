"""Finite-dimensional quotient algebras A = kQ/I as normal-form calculators.

A QuotientAlgebra is the reduced Groebner basis plus the NonTip monomial
basis B in llex order.  Everything downstream (cohomology, the bar
oracle) works in coordinates over B, and both routes read their pair
spaces X//B (b in B parallel to x) off one class index of B: a shared
list of basis indices per pair of endpoints, and each index's class and
position in it.  NonTip is closed under subpaths, so each nontrivial
basis path is an arrow applied after a shorter basis path (``steps``).
Tips have length >= 2, so ``arrows[a]`` is the basis index of arrow a.
pi is multiplicative: it acts one arrow at a time on coordinates, and one
memo holds the products of basis paths per pair of basis indices.
"""

from __future__ import annotations

from .exactla import combine
from .groebner import DEFAULT_MAX_BASIS, CapExceeded, normal_form, nontip_enumerate
from .pathalg import FreeElement, compose


# build_quotient raises groebner.CapExceeded; callers may catch it by this name
InfiniteDimensional = CapExceeded


class QuotientAlgebra:
    __slots__ = ("quiver", "field", "gb", "basis", "index", "steps", "_classes",
                 "_par", "_pos", "arrows", "_products")

    def __init__(self, quiver, field, gb, basis):
        self.quiver = quiver
        self.field = field
        self.gb = gb
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        # one shared list of basis indices per (source, target) class, in
        # basis order; _par[i] is the class of basis[i], _pos[i] its position
        self._classes, self._par, self._pos = {}, [], []
        for i, p in enumerate(basis):
            cls = self._classes.setdefault((p.source, p.target), [])
            self._par.append(cls)
            self._pos.append(len(cls))
            cls.append(i)
        # steps[j] = (x, i) with basis[j] = x * basis[i], None for a trivial
        # path; x * basis[i] is then basis[j] in the left action as well
        at = {(p.base, p.arrows): j for j, p in enumerate(basis)}
        self.steps = [(p.arrows[-1], at[(p.base, p.arrows[:-1])]) if p.arrows else None
                      for p in basis]
        self.arrows = [at[(s, (a,))] for a, s in enumerate(quiver.arrow_src)]
        self._products = {(self.arrows[s[0]], s[1]): {j: field.one}
                          for j, s in enumerate(self.steps) if s}

    @property
    def dim(self):
        return len(self.basis)

    def parallel(self, source, target):
        """The basis paths from source to target, in basis order, as a new list."""
        return [self.basis[i] for i in self._classes.get((source, target), ())]

    def path_coords(self, p):
        """pi(p) as a new sparse dict over B; basis[v] is the trivial path at v."""
        return self._left(p.arrows, {p.base: self.field.one})

    def _product(self, i, j):
        """pi(basis[i] * basis[j]) sparse over B, {} if they do not compose;
        memoized per (i, j) and shared between callers: do not mutate."""
        got = self._products.get((i, j))
        if got is None:
            p = self.basis[i]
            got = (self._left(p.arrows, {j: self.field.one})
                   if p.source == self.basis[j].target else {})
            if (i, j) not in self._products:  # _left stores an arrow's product
                self._products[(i, j)] = got
            got = self._products[(i, j)]
        return got

    def _left(self, word, coords):
        """pi(w * v) for w the path with arrows word (first applied first)
        and v sparse over B, one arrow at a time; a new dict unless word is
        empty.  Each x * basis[j] goes through normal_form once."""
        products = self._products
        for x in word:
            xi, terms = self.arrows[x], []
            for j, c in coords.items():
                got = products.get((xi, j))
                if got is None:
                    r = compose(self.quiver.arrow(x), self.basis[j])
                    nf = normal_form(FreeElement.from_path(r, self.field), self.gb)
                    got = products[(xi, j)] = {self.index[q]: d for q, d in nf.terms.items()}
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
