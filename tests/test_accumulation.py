"""One in-place sparse accumulation under every linear combination.

``exactla.add_to`` and ``combine`` are checked against a dense reference
over Q, GF(2), GF(3) and GF(7).  The free-element arithmetic, normal
forms, overlap relations, the derivation table and the relation parser, all
built on them, are checked against test-local copies (``ref_*``) of the
loops they replaced, entry types included and, where those loops kept
it, term order too.
"""

import functools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.cli import ParseError, parse_algebra
from quiverhh.exactla import Field, add_to, combine, dense
from quiverhh.groebner import GroebnerBasis, _overlap_relation, _overlaps, complete, normal_form
from quiverhh.pathalg import ZERO, FreeElement, Path, Quiver, compose, multiply
from quiverhh.ppcomplex import CochainSlice, lie_presentation
from quiverhh.quotient import build_quotient

from conftest import ALG_FILES, TESTS, time_limit
from test_baroracle import (
    RANDOM_KEPT, RANDOM_MAX_DIM, RANDOM_SEED, random_algebras, random_quiver, random_relations,
)
from test_groebner import draw_element, draw_plain_list
from test_ppcomplex import ref_build_psi1

FIELDS = [Field(0), Field(2), Field(3), Field(7)]
FIELD_IDS = ["Q", "GF2", "GF3", "GF7"]


def typed(terms):
    """(key, coeff, type of coeff) for every entry, in the dict's order."""
    return [(k, c, type(c)) for k, c in terms.items()]


def no_zero_of_the_field_type(vec, field):
    return all(c and type(c) is type(field.zero) for c in vec.values())


# -- add_to and combine against a dense reference ----------------------------

@st.composite
def accumulations(draw):
    """(field, n, start, steps): a dense start vector and a list of (dense
    vec, nonzero c) steps, some of which undo or repeat an earlier step or
    cancel everything accumulated so far."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    coeff = st.integers(-4, 4).map(field.of)
    vec = st.lists(coeff, min_size=n, max_size=n)
    start = draw(vec)
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("new", "one", "undo", "redo", "cancel")))
        if kind == "cancel":
            steps.append(("cancel", field.neg(field.one)))
        elif kind in ("undo", "redo") and steps and steps[-1][0] != "cancel":
            v, c = steps[draw(st.integers(0, len(steps) - 1))]
            if v != "cancel":
                steps.append((v, field.neg(c) if kind == "undo" else c))
        else:
            # field.one itself takes the unscaled path of add_to
            c = field.one if kind == "one" else draw(coeff.filter(bool))
            steps.append((draw(vec), c))
    return field, n, start, steps


def dense_sum(acc, vec, c, field):
    return [field.add(a, field.mul(c, x)) for a, x in zip(acc, vec)]


def nonzero(acc):
    return {i: x for i, x in enumerate(acc) if x}


class TestAddTo:
    @settings(max_examples=300, deadline=None)
    @given(accumulations())
    def test_matches_the_dense_sum_in_place(self, case):
        field, n, start, steps = case
        out = nonzero(start)
        acc = list(start)
        for vec, c in steps:
            if vec == "cancel":
                vec = acc
            given_vec = nonzero(vec)
            got = add_to(out, given_vec, c, field)
            assert got is out
            assert given_vec == nonzero(vec)
            acc = dense_sum(acc, vec, c, field)
            assert out == nonzero(acc)
            assert dense(out, n, field) == acc
            assert no_zero_of_the_field_type(out, field)

    @settings(max_examples=300, deadline=None)
    @given(accumulations())
    def test_combine_matches_the_dense_sum(self, case):
        field, n, start, steps = case
        pairs = [(nonzero(start), field.one)]
        acc = list(start)
        for vec, c in steps:
            vec = acc if vec == "cancel" else vec
            pairs.append((nonzero(vec), c))
            acc = dense_sum(acc, vec, c, field)
        copies = [dict(v) for v, _ in pairs]
        got = combine(pairs, field)
        assert got == nonzero(acc)
        assert no_zero_of_the_field_type(got, field)
        assert [v for v, _ in pairs] == copies
        assert all(got is not v for v, _ in pairs)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_full_cancellation_leaves_the_same_empty_dict(self, field):
        out = {0: field.one, 3: field.neg(field.one), 5: field.of(5)}
        vec = {i: c for i, c in out.items() if c}
        got = add_to(out, dict(vec), field.neg(field.one), field)
        assert got is out and out == {}
        assert combine([(vec, field.one), (vec, field.neg(field.one))], field) == {}

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_a_key_that_cancels_comes_back_at_the_end(self, field):
        one, minus = field.one, field.neg(field.one)
        out = {0: one, 1: one}
        add_to(out, {0: one}, minus, field)
        assert out == {1: one}
        add_to(out, {0: field.of(3) or one}, one, field)
        assert typed(out) == typed({1: one, 0: field.of(3) or one})

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_unit_coefficient_stores_the_entries_themselves(self, field):
        x = field.of(2) or field.one
        out = add_to({}, {4: x}, field.one, field)
        assert out[4] is x


# -- free elements, normal forms, overlaps and substitution vs the loops ------
# they replaced; each ref_* below is the replaced code, verbatim but for names

def ref_free_element(quiver, field, terms=None):
    out = FreeElement(quiver, field)
    if terms:
        zero = field.zero
        for p, c in terms.items():
            if c != zero:
                out.terms[p] = c
    return out


def ref_add(self, other):
    f = self.field
    terms = dict(self.terms)
    zero = f.zero
    for p, c in other.terms.items():
        s = f.add(terms.get(p, zero), c)
        if s == zero:
            terms.pop(p, None)
        else:
            terms[p] = s
    out = FreeElement(self.quiver, f)
    out.terms = terms
    return out


def ref_scale(self, c):
    f = self.field
    if c == f.zero:
        return FreeElement(self.quiver, f)
    out = FreeElement(self.quiver, f)
    out.terms = {p: f.mul(c, x) for p, x in self.terms.items()}
    return out


def ref_sub(self, other):
    return ref_add(self, ref_scale(other, self.field.neg(self.field.one)))


def ref_multiply(a, b):
    f = a.field
    zero = f.zero
    acc = {}
    for p, cp in a.terms.items():
        for q, cq in b.terms.items():
            r = compose(p, q)
            if r is ZERO:
                continue
            s = f.add(acc.get(r, zero), f.mul(cp, cq))
            if s == zero:
                acc.pop(r, None)
            else:
                acc[r] = s
    out = FreeElement(a.quiver, f)
    out.terms = acc
    return out


def ref_substitute(eps, alpha, gamma):
    """D_(alpha,gamma)(eps): arrow index alpha replaced by the parallel path
    gamma, one occurrence at a time, summed."""
    field = eps.field
    acc = {}
    for p, coeff in eps.terms.items():
        word = p.arrows
        for i, a in enumerate(word):
            if a == alpha:
                q = Path(p.quiver, word[:i] + gamma.arrows + word[i + 1:], p.source)
                acc[q] = field.add(acc.get(q, field.zero), coeff)
    return ref_free_element(eps.quiver, field, acc)


def ref_add_product(terms, field, head, items, tail, subtract=False):
    op = field.sub if subtract else field.add
    for q, x in items:
        arrows = head + q.arrows + tail
        r = Path(q.quiver, arrows) if arrows else q
        old = terms.get(r)
        if old is None:
            terms[r] = field.neg(x) if subtract else x
        else:
            v = op(old, x)
            if v:
                terms[r] = v
            else:
                del terms[r]


def _path_key(p):
    return p.key


def ref_normal_form(f, basis, rng=None, skip=None):
    if not isinstance(basis, GroebnerBasis):
        basis = GroebnerBasis(f.quiver, f.field, basis)
    if not basis._lengths:
        return f
    memo = {}

    def hits(p):
        got = memo.get(p)
        if got is None:
            got = memo[p] = [(s, i) for s, i in basis._hits(p.arrows) if i != skip]
        return got

    reducible = [p for p in f.terms if hits(p)]
    if not reducible:
        return f
    field, mul = f.field, f.field.mul
    terms = dict(f.terms)
    while reducible:
        if rng is None:
            p = max(reducible, key=_path_key)
            found = hits(p)
            s = max(t for t, _ in found)
            i = min(i for t, i in found if t == s)
        else:
            p = rng.choice(sorted(reducible, key=_path_key))
            s, i = rng.choice(sorted(hits(p)))
        word = p.arrows
        lam = field.neg(terms.pop(p))
        g = basis.elements[i]
        tip = g.tip()[0]
        ref_add_product(terms, field, word[:s],
                        [(q, mul(lam, x)) for q, x in g.terms.items()
                         if q != tip and q.parallel_to(tip)],
                        word[s + tip.length:])
        reducible = [q for q in terms if hits(q)]
    out = FreeElement(f.quiver, field)
    out.terms = terms
    return out


def ref_overlap_relation(f, g, b, c, at_f, at_g, tf=None, tg=None):
    field = f.field
    terms = {}
    ref_add_product(terms, field, c, [(q, x) for q, x in f.terms.items()
                                      if q is not tf and q.source == at_f], ())
    ref_add_product(terms, field, (), [(q, x) for q, x in g.terms.items()
                                       if q is not tg and q.target == at_g], b, subtract=True)
    out = FreeElement(f.quiver, field)
    out.terms = terms
    return out


def ref_parse_terms(field, signed_terms):
    """The relation parser's old sum of (signed int coeff, path) terms."""
    terms = {}
    for coeff, path in signed_terms:
        value = field.of(coeff)
        prev = terms.get(path, field.zero)
        terms[path] = field.add(prev, value)
    return ref_free_element(next(iter(terms)).quiver, field, terms)


LOOPS = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
# c is a loop at u; a and b run between u and v, so many products are ZERO
CYCLE = Quiver(["u", "v"], [("c", "u", "u"), ("a", "u", "v"), ("b", "v", "u")])


def draw_pair(data, quiver, field):
    """Two elements; the second often takes back terms of the first."""
    a = draw_element(data, quiver, field, 0, 4, 6)
    b = draw_element(data, quiver, field, 0, 4, 6)
    if data.draw(st.booleans()):
        b = ref_sub(b, a)
    return a, b


def field_coeff(data, field):
    return data.draw(st.sampled_from(
        [field.zero, field.one, field.neg(field.one)] + [field.of(k) for k in (2, 3, 5)]))


class TestFreeElementsAgainstTheReplacedLoops:
    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(FIELDS), quiver=st.sampled_from([LOOPS, CYCLE]),
           data=st.data())
    def test_add_sub_scale_and_multiply(self, field, quiver, data):
        a, b = draw_pair(data, quiver, field)
        c = field_coeff(data, field)
        assert typed(a.add(b).terms) == typed(ref_add(a, b).terms)
        assert typed(a.sub(b).terms) == typed(ref_sub(a, b).terms)
        assert typed(a.sub(a).terms) == typed(ref_sub(a, a).terms) == []
        assert typed(a.scale(c).terms) == typed(ref_scale(a, c).terms)
        assert typed(multiply(a, b).terms) == typed(ref_multiply(a, b).terms)
        assert typed(multiply(b, a).terms) == typed(ref_multiply(b, a).terms)

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(FIELDS), data=st.data())
    def test_zero_coefficients_are_dropped_on_construction(self, field, data):
        paths = [LOOPS.trivial(0)] + [Path(LOOPS, w) for w in ((0,), (1,), (0, 1), (1, 1))]
        terms = {p: field_coeff(data, field) for p in paths if data.draw(st.booleans())}
        assert typed(FreeElement(LOOPS, field, terms).terms) == \
            typed(ref_free_element(LOOPS, field, terms).terms)


@functools.lru_cache(maxsize=None)
def sampled_algebras():
    return random_algebras(RANDOM_SEED, RANDOM_KEPT, RANDOM_MAX_DIM)


class TestDerivationTableAgainstTheFormula:
    @settings(max_examples=60, deadline=None)
    @given(source=st.one_of(st.sampled_from(ALG_FILES), st.integers(0, RANDOM_KEPT - 1)),
           data=st.data())
    def test_images_and_psi1_rows(self, source, data):
        """Every table entry pi(D_k(basis[j])), the bracket's and psi1's and
        those of drawn (k, j), is normal_form of the formula; psi1 rows are
        the reference rows."""
        with time_limit(20):
            if isinstance(source, str):
                A = build_quotient(file_gb(source)[1])
            else:
                A = sampled_algebras()[source]
            sl = CochainSlice(A)
            for _ in range(3):
                sl._image(data.draw(st.integers(0, len(sl.q1_pairs) - 1)),
                          data.draw(st.integers(0, A.dim - 1)))
            lie_presentation(A, sl)
            for k, row in sl._images.items():
                alpha, gamma = sl.q1_pairs[k]
                for j, img in row.items():
                    ref = normal_form(ref_substitute(FreeElement.from_path(A.basis[j], A.field),
                                                     alpha, gamma), A.gb)
                    assert sorted(typed(img)) == \
                        sorted((A.index[p], c, type(c)) for p, c in ref.terms.items())
            assert sl.psi1_rows == ref_build_psi1(sl)


_GB_CACHE = {}


def file_gb(name):
    """(relations, reduced Groebner basis) of an algebra file under tests/."""
    got = _GB_CACHE.get(name)
    if got is None:
        with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
            field, quiver, rels = parse_algebra(fh.read())
        got = _GB_CACHE[name] = (rels, complete(rels, quiver=quiver, field=field))
    return got


def overlap_cases(elems):
    """Every (f, g, b, c) overlap of the monic elems, b and c traversal words."""
    for f in elems:
        for g in elems:
            for b, c in _overlaps(f.tip()[0].arrows, g.tip()[0].arrows):
                yield f, g, b, c


def check_overlaps(elems):
    """For uniform f and g, the word routine that completion runs on the
    rests, against the replaced loop."""
    for f, g, b, c in overlap_cases(elems):
        tf, tg = f.tip()[0], g.tip()[0]
        if all(q.parallel_to(tf) for q in f.terms) and all(q.parallel_to(tg) for q in g.terms):
            want = ref_overlap_relation(f, g, b, c, tf.source, tg.target)
            got = _overlap_relation({q.arrows: x for q, x in f.terms.items() if q != tf},
                                    {q.arrows: x for q, x in g.terms.items() if q != tg},
                                    b, c, f.field)
            assert typed(got) == [(q.arrows, x, t) for q, x, t in typed(want.terms)], (f, g, b, c)


class TestGroebnerAgainstTheReplacedLoops:
    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(ALG_FILES), data=st.data(), seed=st.integers(0, 2 ** 31))
    def test_normal_form_on_groebner_bases(self, name, data, seed):
        with time_limit(10):
            _, gb = file_gb(name)
            f = draw_element(data, gb.quiver, gb.field, 0, 6, 5)
            assert typed(normal_form(f, gb).terms) == typed(ref_normal_form(f, gb).terms)
            assert typed(normal_form(f, gb, rng=random.Random(seed)).terms) == \
                typed(ref_normal_form(f, gb, rng=random.Random(seed)).terms)

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(ALG_FILES), data=st.data(), seed=st.integers(0, 2 ** 31))
    def test_normal_form_on_plain_lists(self, name, data, seed):
        # tails may hold trivial paths: a trivial product keeps its vertex
        with time_limit(10):
            rels, gb = file_gb(name)
            elems = draw_plain_list(data, gb.quiver, gb.field, rels)
            f = draw_element(data, gb.quiver, gb.field, 0, 5, 5)
            assert typed(normal_form(f, elems).terms) == typed(ref_normal_form(f, elems).terms)
            assert typed(normal_form(f, elems, rng=random.Random(seed)).terms) == \
                typed(ref_normal_form(f, elems, rng=random.Random(seed)).terms)

    @pytest.mark.parametrize("name", ALG_FILES)
    def test_overlap_relations_of_fixture_files(self, name):
        rels, gb = file_gb(name)
        check_overlaps(gb.elements)
        check_overlaps([r.monic() for r in rels])

    def test_overlap_relations_of_random_relations(self):
        rng = random.Random(RANDOM_SEED)
        for k in range(36):
            field = Field((0, 2, 3)[k % 3])
            quiver = random_quiver(rng)
            check_overlaps([r.monic() for r in random_relations(rng, quiver, field)])


class TestParserSum:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("expr,terms", [
        ("x*y - x*y + 2*x*y", [(1, "xy"), (-1, "xy"), (2, "xy")]),
        ("y*x + 0*x*x - x*y + 3*x*y", [(1, "yx"), (0, "xx"), (-1, "xy"), (3, "xy")]),
        ("2*x*y + 5*x*y + y*y", [(2, "xy"), (5, "xy"), (1, "yy")]),
    ])
    def test_terms_sum_as_before(self, field, expr, terms):
        text = "field %r\nvertex e\narrow x: e -> e\narrow y: e -> e\nrel %s\n" % (field, expr)
        quiver = Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")])
        ref = ref_parse_terms(field, [(k, quiver.written_path(w)) for k, w in terms])
        if ref.is_zero:
            with pytest.raises(ParseError, match="relation reduces to zero"):
                parse_algebra(text)
            return
        _, _, (rel,) = parse_algebra(text)
        assert sorted((p.key, c, type(c)) for p, c in rel.terms.items()) == \
            sorted((p.key, c, type(c)) for p, c in ref.terms.items())
