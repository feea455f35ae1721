"""One-pass inter-reduction of the completed basis.

``groebner._interreduce`` reduces each element still in the tip index of
the completion once by the others.  It is checked against
``ref_interreduce``, the loop it replaced (reduce until nothing changes),
on every algebra file, the seeded random relation sets and the Brauer
graph corpus, and it runs one word normal form per element it keeps.
"""

import random

import pytest

from quiverhh import groebner
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
            h = normal_form(elems[i], gb, skip=i)
            if h.is_zero:
                del elems[i]
                gb = GroebnerBasis(quiver, field, elems)
                changed = True
                break
            h = h.monic()
            if h != elems[i]:
                elems[i] = h
                gb = GroebnerBasis(quiver, field, elems)
                changed = True
    elems.sort(key=lambda g: g.tip()[0].key)
    return GroebnerBasis(quiver, field, elems, reduced=True, closure_added=closure_added)


def checked_complete(monkeypatch, rels, **kwargs):
    """complete(rels), with its inter-reduction compared to the reference
    and its word normal forms counted; returns (basis, [(entered, kept)])."""
    real_interreduce, real_reduce = groebner._interreduce, groebner._reduce
    seen = []

    def checked(gb, elems, closure_added):
        quiver, field = gb.quiver, gb.field
        live = list(gb._first.values())
        ref = ref_interreduce(GroebnerBasis(quiver, field, [
            groebner._element(quiver, field, elems[i]) for i in live]), closure_added)
        calls = []

        def counted(terms, *args, **kw):
            calls.append(dict(terms))
            return real_reduce(terms, *args, **kw)

        with monkeypatch.context() as m:
            m.setattr(groebner, "_reduce", counted)
            got = real_interreduce(gb, elems, closure_added)
        assert got.elements == ref.elements
        assert [format_element(g) for g in got.elements] == \
            [format_element(g) for g in ref.elements]
        assert (got.reduced, got.closure_added) == (True, closure_added)
        assert is_reduced(got)
        # one normal form per live element, each of a live element, and
        # the until-stable reference drops none of them
        assert len(calls) == len(live) == len(got.elements)
        assert all(any(t == elems[i] for i in live) for t in calls)
        seen.append((len(elems), len(live)))
        return got

    with monkeypatch.context() as m:
        m.setattr(groebner, "_interreduce", checked)
        gb = complete(rels, **kwargs)
    assert len(seen) == 1
    return gb, seen


@pytest.mark.parametrize("name", ALG_FILES)
def test_fixture_files(monkeypatch, name):
    with open("%s/%s" % (TESTS, name), encoding="utf-8") as fh:
        field, quiver, rels = parse_algebra(fh.read())
    with time_limit(20):
        checked_complete(monkeypatch, rels, quiver=quiver, field=field)


def test_random_relation_sets(monkeypatch):
    # the draws of test_baroracle.random_algebras, rejected ones included
    rng = random.Random(RANDOM_SEED)
    kept = left = 0
    while kept < RANDOM_KEPT:
        field = Field((0, 2, 3)[kept % 3])
        quiver = random_quiver(rng)
        rels = random_relations(rng, quiver, field)
        if not rels:
            continue
        kept += 1
        try:
            _, seen = checked_complete(monkeypatch, rels, max_tip_length=8,
                                       quiver=quiver, field=field)
        except Incomplete:
            continue
        left += seen[0][0] - seen[0][1]
    # some completions push out an element whose tip a newer tip divides
    assert left > 0


def test_corpus_graphs(monkeypatch):
    field = Field(0)
    with time_limit(120):
        for graph in corpus(seed=DEFAULT_SEED, size=100, max_dim=40):
            quiver, pairs, r2, r3, _ = _relation_parts(graph, field)
            for graded in (False, True):
                rels = _type1(quiver, field, pairs, graded) + r2 + r3
                checked_complete(monkeypatch, rels, quiver=quiver, field=field)

