import pytest
from hypothesis import given, settings, strategies as st

from quiverhh.exactla import Field
from quiverhh.pathalg import (
    ZERO,
    FreeElement,
    Path,
    Quiver,
    ZeroElement,
    compose,
    format_element,
    format_path,
    llex_compare,
    multiply,
)

from conftest import elem, wnames, written


@pytest.fixture
def kron():
    # precedence b2 < b1 < a2 < a1
    return Quiver(
        ["e1", "e2"],
        [("b2", "e1", "e2"), ("b1", "e2", "e1"),
         ("a2", "e1", "e2"), ("a1", "e2", "e1")],
    )


class TestQuiver:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Quiver(["e", "e"], [])
        with pytest.raises(ValueError):
            Quiver(["e"], [("x", "e", "e"), ("x", "e", "e")])
        with pytest.raises(ValueError):
            Quiver(["e"], [("e", "e", "e")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Quiver(["e"], [("x", "e", "f")])

    def test_arrow_queries(self, kron):
        assert kron.arrows_from(kron.vertex_index["e1"]) == [
            kron.arrow_index["b2"], kron.arrow_index["a2"]]
        assert kron.arrows_into(kron.vertex_index["e1"]) == [
            kron.arrow_index["b1"], kron.arrow_index["a1"]]


class TestCompose:
    def test_identity(self, kron):
        a = kron.arrow("b2")
        e1 = kron.trivial("e1")
        e2 = kron.trivial("e2")
        assert compose(a, e1) == a
        assert compose(e2, a) == a

    def test_noncomposable_is_zero(self, kron):
        # b2: e1 -> e2 after b1: e2 -> e1 is fine; b2 after b2 is not
        b2 = kron.arrow("b2")
        assert compose(b2, b2) is ZERO
        assert not ZERO

    def test_noncomposable_arrow_sequence_is_rejected(self, kron):
        # b2 ends at e2 and a2 starts at e1
        with pytest.raises(ValueError, match="^non-composable arrow sequence$"):
            Path(kron, (kron.arrow_index["b2"], kron.arrow_index["a2"]))

    def test_kronecker_relation_paths(self, kron):
        a1, a2 = kron.arrow("a1"), kron.arrow("a2")
        p = compose(a1, a2)
        assert p.length == 2
        assert wnames(kron, p) == ("a1", "a2")
        assert p.source == kron.vertex_index["e1"]
        assert p.target == kron.vertex_index["e1"]

    def test_written_concatenation(self, kron):
        p = written(kron, "a1", "a2")
        q = written(kron, "b1", "b2")
        pq = compose(p, q)
        assert wnames(kron, pq) == ("a1", "a2", "b1", "b2")

    def test_associative(self, two_loops):
        x, y = two_loops.arrow("x"), two_loops.arrow("y")
        assert compose(compose(x, y), x) == compose(x, compose(y, x))


class TestLlex:
    def test_length_dominates(self, two_loops):
        x = two_loops.arrow("x")
        xx = compose(x, x)
        assert llex_compare(x, xx) < 0

    def test_x3_beats_yx2(self, two_loops):
        x3 = written(two_loops, "x", "x", "x")
        yx2 = written(two_loops, "y", "x", "x")
        assert llex_compare(x3, yx2) > 0

    def test_xy_beats_yx(self, two_loops):
        xy = written(two_loops, "x", "y")
        yx = written(two_loops, "y", "x")
        assert llex_compare(xy, yx) > 0

    def test_vertices_below_arrows(self, two_loops):
        e = two_loops.trivial("e")
        y = two_loops.arrow("y")
        assert llex_compare(e, y) < 0


class TestFreeElement:
    def test_zero_strip_and_equality(self, two_loops, rationals):
        x = two_loops.arrow("x")
        a = elem(rationals, two_loops, (1, x), (-1, x))
        assert a.terms == {}
        with pytest.raises(ZeroElement):
            a.tip()

    def test_tip_of_x3_plus_yx2(self, two_loops, rationals):
        g = elem(rationals, two_loops,
                 (1, written(two_loops, "x", "x", "x")),
                 (1, written(two_loops, "y", "x", "x")))
        p, c = g.tip()
        assert wnames(two_loops, p) == ("x", "x", "x")
        assert c == rationals.one

    def test_tip_2y2_plus_xy(self, two_loops, rationals):
        g = elem(rationals, two_loops,
                 (2, written(two_loops, "y", "y")),
                 (1, written(two_loops, "x", "y")))
        p, c = g.tip()
        assert wnames(two_loops, p) == ("x", "y")
        assert c == rationals.one

    def test_multiply_by_zero(self, two_loops, rationals):
        x = two_loops.arrow("x")
        a = FreeElement.from_path(x, rationals)
        z = FreeElement(two_loops, rationals, {})
        assert multiply(a, z).terms == {}

    def test_distributivity_x_plus_y_times_x(self, two_loops, rationals):
        x, y = two_loops.arrow("x"), two_loops.arrow("y")
        a = elem(rationals, two_loops, (1, x), (1, y))
        b = FreeElement.from_path(x, rationals)
        prod = multiply(a, b)
        want = elem(rationals, two_loops,
                    (1, written(two_loops, "x", "x")),
                    (1, written(two_loops, "y", "x")))
        assert prod == want

    def test_distributivity_xy_plus_yx_times_x(self, two_loops, rationals):
        a = elem(rationals, two_loops,
                 (1, written(two_loops, "x", "y")),
                 (1, written(two_loops, "y", "x")))
        b = FreeElement.from_path(two_loops.arrow("x"), rationals)
        prod = multiply(a, b)
        want = elem(rationals, two_loops,
                    (1, written(two_loops, "x", "y", "x")),
                    (1, written(two_loops, "y", "x", "x")))
        assert prod == want

    def test_noncomposable_terms_vanish(self, kron, rationals):
        b2 = FreeElement.from_path(kron.arrow("b2"), rationals)
        assert multiply(b2, b2).terms == {}


class TestFormat:
    def test_written_order_and_powers(self, two_loops, rationals):
        g = elem(rationals, two_loops,
                 (1, written(two_loops, "x", "x", "x")),
                 (2, written(two_loops, "y", "x")))
        assert format_element(g) == "x^3 + 2*y*x"

    def test_trivial_path(self, two_loops):
        assert format_path(two_loops.trivial("e")) == "e"

    def test_negative_coefficients(self, two_loops, rationals):
        g = elem(rationals, two_loops,
                 (1, written(two_loops, "x", "y")),
                 (-1, written(two_loops, "y", "x")))
        assert format_element(g) == "x*y - y*x"


# random path words on the two-loop quiver (always composable)
_words = st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=5)


def _path(quiver, word):
    return quiver.written_path(tuple(word))


class TestOrderProperties:
    @given(_words, _words, _words)
    @settings(max_examples=150, deadline=None)
    def test_admissible(self, u, v, w):
        q = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
        p1, p2, r = _path(q, u), _path(q, v), _path(q, w)
        c = llex_compare(p1, p2)
        if c < 0:
            assert llex_compare(compose(p1, r), compose(p2, r)) < 0
            assert llex_compare(compose(r, p1), compose(r, p2)) < 0
        # a proper right or left factor is strictly smaller
        pr = compose(p1, r)
        assert llex_compare(p1, pr) < 0
        assert llex_compare(r, pr) < 0

    @given(_words, _words)
    @settings(max_examples=150, deadline=None)
    def test_total_order(self, u, v):
        q = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
        p1, p2 = _path(q, u), _path(q, v)
        c12, c21 = llex_compare(p1, p2), llex_compare(p2, p1)
        assert (c12 == 0) == (p1 == p2)
        assert (c12 < 0) == (c21 > 0)

    @given(
        st.lists(st.tuples(st.integers(-3, 3).filter(bool), _words),
                 min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(-3, 3).filter(bool), _words),
                 min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_tip_multiplicative(self, ta, tb):
        q = Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])
        f = Field(0)
        a = elem(f, q, *[(c, _path(q, w)) for c, w in ta])
        b = elem(f, q, *[(c, _path(q, w)) for c, w in tb])
        if not a.terms or not b.terms:
            return
        prod = multiply(a, b)
        pa, ca = a.tip()
        pb, cb = b.tip()
        pp, cp = prod.tip()
        assert pp == compose(pa, pb)
        assert cp == f.mul(ca, cb)
