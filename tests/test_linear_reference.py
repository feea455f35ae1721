"""B, the tips and the reduced basis of kQ/I by linear algebra alone.

The reference builds no Groebner basis.  Every product p*r*q of a relation
r with paths p and q, cut to its terms of length below N, lies in
I + kQ_{>=N}, and together they span its part below N.  Row-reduced by
``exactla.rref`` with the columns in descending llex order, the pivot
columns are the tips of that ideal below N, and the other columns are its
NonTip paths below N.  The row of a tip t is t - NF(t).

kQ/(I + kQ_{>=N}) is a quotient of kQ/I.  It equals kQ/I in every length
below N when I is homogeneous, and in full when kQ_{>=N} lies in I.
Otherwise it can be smaller: x^2 - x^3 has tip x^3, yet x^2 lies in
I + kQ_{>=N} for every N.  So a file whose relations are not homogeneous
is compared only where the test certifies kQ_{>=N} in I by itself: every
path of length N must lie in the span of the whole products p*r*q up to
some length M, a product with a longer term dropped, not cut.

With N the longest path of ``nontip_enumerate``'s basis plus 2, every tip
of the reduced basis is below N, so B, the tips (the pivot paths that no
other pivot path divides) and the elements of ``complete`` must all be
read off the reduction.  A file whose paths below N (or below M + 1, to
certify) are more than COLUMN_CAP is skipped: the cap decides, not a name.
"""

import itertools

import pytest

from quiverhh.cli import parse_algebra
from quiverhh.exactla import row_space, rref
from quiverhh.groebner import complete, nontip_enumerate
from quiverhh.pathalg import FreeElement, Path, multiply

from conftest import ALG_FILES, TESTS

# the xy6 files need 4,095 columns, and take about 3 s each
COLUMN_CAP = 1000


def paths_by_length(quiver, n):
    """[paths of length k for k < n], the trivial ones first."""
    levels = [[quiver.trivial(v) for v in range(quiver.n_vertices)]]
    for _ in range(1, n):
        levels.append([Path(quiver, p.arrows + (a,)) for p in levels[-1]
                       for a in quiver.arrows_from(p.target)])
    return levels


def product_rows(rels, levels, index, cut):
    """The nonzero products p*r*q as sparse rows over the column index,
    kept below the length len(levels): cut to their shorter terms, or,
    when not cut, dropped whole if they have a longer term."""
    top = len(levels)
    for r in rels:
        field, low = r.field, min(p.length for p in r.terms)
        for lq in range(top - low):
            for q in levels[lq]:
                rq = multiply(r, FreeElement.from_path(q, field))
                if rq.is_zero:
                    continue
                for lp in range(top - low - lq):
                    for p in levels[lp]:
                        terms = multiply(FreeElement.from_path(p, field), rq).terms
                        if cut:
                            terms = {w: x for w, x in terms.items() if w.length < top}
                        elif any(w.length >= top for w in terms):
                            continue
                        if terms:
                            yield {index[w]: x for w, x in terms.items()}


def columns(levels):
    """(paths below the top length in descending llex order, their indices)."""
    cols = sorted((p for level in levels for p in level), key=lambda p: p.key, reverse=True)
    return cols, {p: i for i, p in enumerate(cols)}


def reduce_products(rels, levels, field):
    """(the reduced rows of the cut products by pivot path, each a
    {path: coeff}, and the paths with no pivot in llex order)."""
    cols, index = columns(levels)
    _, red, pivots = rref(product_rows(rels, levels, index, True), field)
    rows = {cols[c]: {cols[j]: x for j, x in row.items()} for c, row in zip(pivots, red)}
    return rows, [p for p in reversed(cols) if p not in rows]


def certify_tail_in_ideal(quiver, rels, field, n):
    """True once some M shows every path of length n in the span of the
    whole products up to length M; False when M + 1 passes the column cap."""
    for m in itertools.count(n):
        levels = paths_by_length(quiver, m + 1)
        cols, index = columns(levels)
        if len(cols) > COLUMN_CAP:
            return False
        space = row_space(product_rows(rels, levels, index, False), field, len(cols))
        if all(space.contains({index[p]: field.one}) for p in levels[n]):
            return True


def divides(u, w):
    m = len(u)
    return any(w[s:s + m] == u for s in range(len(w) - m + 1))


@pytest.mark.parametrize("name", ALG_FILES)
def test_basis_and_tips_match_the_linear_reference(name):
    with open(f"{TESTS}/{name}", encoding="utf-8") as fh:
        field, quiver, rels = parse_algebra(fh.read())
    gb = complete(rels, quiver=quiver, field=field)
    basis = nontip_enumerate(gb)
    n = max(p.length for p in basis) + 2
    levels = paths_by_length(quiver, n)
    ncols = sum(map(len, levels))
    if ncols > COLUMN_CAP:
        pytest.skip(f"{ncols} columns below length {n}, past the cap {COLUMN_CAP}")
    if not all(len({p.length for p in r.terms}) == 1 for r in rels) \
            and not certify_tail_in_ideal(quiver, rels, field, n):
        pytest.skip(f"not homogeneous, and kQ_{{>={n}}} in I not certified within the cap")
    rows, nonpivot = reduce_products(rels, levels, field)
    assert nonpivot == basis
    pivots = [p.arrows for p in rows]
    tips = sorted((p for p in rows if not any(u != p.arrows and divides(u, p.arrows)
                                               for u in pivots)), key=lambda p: p.key)
    assert tips == gb.tips()
    assert [FreeElement(quiver, field, rows[t]) for t in tips] == gb.elements
