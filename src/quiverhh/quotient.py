"""Finite-dimensional quotient algebras A = kQ/I as normal-form calculators.

A QuotientAlgebra is the reduced Groebner basis plus the NonTip monomial
basis B in llex order.  Everything downstream (cohomology, the bar
oracle) works in coordinates over B, and both routes read their pair
spaces X//B (b in B parallel to x) off one index of B by endpoints.
Normal forms are unique for a complete basis and pi is linear, so the
projection of any element is a sum of per-path images; each algebra
memoizes those in one map from a path to its sparse coordinates.
"""

from __future__ import annotations

from .exactla import combine
from .groebner import DEFAULT_MAX_BASIS, CapExceeded, normal_form, nontip_enumerate
from .pathalg import FreeElement, Path, compose


# build_quotient raises groebner.CapExceeded; callers may catch it by this name
InfiniteDimensional = CapExceeded


class QuotientAlgebra:
    __slots__ = ("quiver", "field", "gb", "basis", "index", "_parallel", "_path_coords")

    def __init__(self, quiver, field, gb, basis):
        self.quiver = quiver
        self.field = field
        self.gb = gb
        self.basis = basis
        self.index = {p: i for i, p in enumerate(basis)}
        self._parallel = {}
        for p in basis:
            self._parallel.setdefault((p.source, p.target), []).append(p)
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
        result.  pi is multiplicative, pi(a*w) = pi(a*pi(w)) for an arrow
        a, so p is reached from its longest prefix (first applied arrows)
        with a known image one arrow at a time, and only products of an
        arrow and a basis path go through normal_form.
        """
        memo = self._path_coords
        got = memo.get(p)
        if got is not None:
            return got
        chain = []
        while got is None and p not in self.index:
            chain.append(p)
            p = Path(self.quiver, p.arrows[:-1])
            got = memo.get(p)
        if got is None:
            got = memo[p] = {self.index[p]: self.field.one}
        for q in reversed(chain):
            arrow = self.quiver.arrow(q.arrows[-1])
            got = memo[q] = combine(
                ((self._arrow_product(arrow, j), c) for j, c in got.items()), self.field)
        return got

    def _arrow_product(self, arrow, j):
        """pi(arrow * basis[j]), kept in the same map."""
        r = compose(arrow, self.basis[j])
        got = self._path_coords.get(r)
        if got is None:
            nf = normal_form(FreeElement.from_path(r, self.field), self.gb)
            got = self._path_coords[r] = {self.index[q]: c for q, c in nf.terms.items()}
        return got

    def __repr__(self):
        return f"QuotientAlgebra(dim={self.dim})"


def build_quotient(gb, max_basis=DEFAULT_MAX_BASIS):
    """Enumerate B = NonTip and wrap it up; InfiniteDimensional (CapExceeded)
    past the cap or on proof of infinite dimension."""
    basis = nontip_enumerate(gb, max_basis=max_basis)
    return QuotientAlgebra(gb.quiver, gb.field, gb, basis)


def project_sparse(terms, algebra):
    """pi(sum c*p) over (path p, coeff c) pairs as a sparse {basis index: coeff}
    dict, zeros dropped."""
    return combine(((algebra.path_coords(p), c) for p, c in terms), algebra.field)
