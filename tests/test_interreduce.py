"""The completed basis is the reduced one, with no pass at the end.

``groebner.complete`` reduces every live tail that a new tip occurs in as
each element enters, so the live elements are a reduced basis at every
step and the result is read off them.  The basis it returns must be a
fixed point of ``ref_interreduce``, a loop that reduces each element by
the others until nothing changes, on every algebra file, the seeded
random relation sets and the Brauer graph corpus; so must the partial
basis that ``Incomplete`` carries.
"""

import random

import pytest

from quiverhh.brauer import DEFAULT_SEED, _relation_parts, _type1, corpus
from quiverhh.cli import parse_algebra
from quiverhh.exactla import Field
from quiverhh.groebner import GroebnerBasis, Incomplete, complete, is_reduced, normal_form
from quiverhh.pathalg import format_element

from conftest import ALG_FILES, TESTS, time_limit
from test_baroracle import RANDOM_KEPT, RANDOM_SEED, random_quiver, random_relations


def ref_interreduce(gb, closure_added):
    """The reduced basis: each element reduced by the others until stable,
    sorted by tip."""
    quiver, field = gb.quiver, gb.field
    elems = list(gb.elements)
    changed = True
    while changed:
        changed = False
        for i in range(len(elems)):
            h = normal_form(elems[i], elems[:i] + elems[i + 1:])
            if h.is_zero:
                del elems[i]
                changed = True
                break
            h = h.monic()
            if h != elems[i]:
                elems[i] = h
                changed = True
    elems.sort(key=lambda g: g.tip()[0].key)
    return GroebnerBasis(quiver, field, elems, reduced=True, closure_added=closure_added)


def assert_fixed_point(quiver, field, elements):
    """elements, sorted by tip, are a reduced set that the reference leaves
    as it is, in its elements and in their text."""
    gb = GroebnerBasis(quiver, field, elements)
    ref = ref_interreduce(gb, 0)
    assert ref.elements == elements
    assert [format_element(g) for g in ref.elements] == [format_element(g) for g in elements]
    assert is_reduced(gb)


def checked_complete(monkeypatch, rels, **kwargs):
    """complete(rels), checked against the reference; returns (basis, the
    number of elements that entered the tip index while it ran)."""
    real_index, entered = GroebnerBasis._index, []

    def counted(self, w, rest):
        if not self.reduced:  # the working basis, not the one returned
            entered.append(w)
        return real_index(self, w, rest)

    with monkeypatch.context() as m:
        m.setattr(GroebnerBasis, "_index", counted)
        gb = complete(rels, **kwargs)
    assert gb.reduced
    assert_fixed_point(gb.quiver, gb.field, gb.elements)
    return gb, len(entered)


def random_relation_sets():
    """(quiver, field, relations) of the draws of
    test_baroracle.random_algebras, rejected ones included."""
    rng = random.Random(RANDOM_SEED)
    kept = 0
    while kept < RANDOM_KEPT:
        field = Field((0, 2, 3)[kept % 3])
        quiver = random_quiver(rng)
        rels = random_relations(rng, quiver, field)
        if rels:
            kept += 1
            yield quiver, field, rels


@pytest.mark.parametrize("name", ALG_FILES)
def test_fixture_files(monkeypatch, name):
    with open("%s/%s" % (TESTS, name), encoding="utf-8") as fh:
        field, quiver, rels = parse_algebra(fh.read())
    with time_limit(20):
        checked_complete(monkeypatch, rels, quiver=quiver, field=field)


def test_random_relation_sets(monkeypatch):
    left = 0
    for quiver, field, rels in random_relation_sets():
        try:
            gb, entered = checked_complete(monkeypatch, rels, max_tip_length=8,
                                           quiver=quiver, field=field)
        except Incomplete:
            continue
        left += entered - len(gb)
    # some completions push out an element whose tip a newer tip divides
    assert left > 0


def test_partial_basis_is_reduced():
    # at tip length 4, 7 of the sets hit the cap, and the partial basis of
    # one of them has a tail that a completion reducing no tails leaves
    capped = 0
    for quiver, field, rels in random_relation_sets():
        try:
            complete(rels, max_tip_length=4, quiver=quiver, field=field)
        except Incomplete as exc:
            partial = sorted(exc.partial, key=lambda g: g.tip()[0].key)
            assert_fixed_point(quiver, field, partial)
            capped += 1
    assert capped > 0


def test_corpus_graphs(monkeypatch):
    field = Field(0)
    with time_limit(120):
        for graph in corpus(seed=DEFAULT_SEED, size=100, max_dim=40):
            quiver, pairs, r2, r3, _ = _relation_parts(graph, field)
            for graded in (False, True):
                rels = _type1(quiver, field, pairs, graded) + r2 + r3
                checked_complete(monkeypatch, rels, quiver=quiver, field=field)
