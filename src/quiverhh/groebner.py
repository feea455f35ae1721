"""Noncommutative Groebner bases for path-algebra ideals.

Reduction, overlap relations, Buchberger-style completion, NonTip basis
enumeration, and the chain sets of the Uf-graph.  All ideals live in the
arrow-square part kQ_{>=2}, so tips always have length at least 2.

Words below are manipulated in traversal order (tuples of arrow indices,
first applied first).  A subword at traversal offset s corresponds to a
written occurrence further right, so the leftmost written occurrence of a
tip is the one with the largest traversal offset.

A GroebnerBasis is its own tip index: it finds the tip path of each
element once, as the element enters, and keeps a dict from tip word to
element, so the tips occurring in a word are found by dict lookups of
its subwords, one per tip length and offset.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

from .exactla import add_to
from .pathalg import FreeElement, Path, format_element, format_path

# the default caps, --max-tip-len and --max-basis on the command line
DEFAULT_MAX_TIP_LENGTH = 50
DEFAULT_MAX_BASIS = 100000


class Incomplete(Exception):
    """Completion hit the tip-length cap; carries the partial basis."""

    def __init__(self, partial, offender, cap):
        self.partial = partial
        self.offender = offender
        self.cap = cap
        self.tip_length = offender.tip()[0].length
        super().__init__(f"completion exceeded the tip length cap --max-tip-len {cap}: an "
                         f"adjoined element has a tip of length {self.tip_length} "
                         f"(offender {format_element(offender)})")


class CapExceeded(Exception):
    """NonTip enumeration stopped after ``reached`` paths: past max_basis, or,
    when ``window`` is set, at a proof of infinite dimension (a NonTip path
    repeats that window; see nontip_enumerate)."""

    def __init__(self, cap, reached, window=None):
        self.cap = cap
        self.reached = reached
        self.window = window
        if window is None:
            text = (f"quotient algebra dimension exceeds --max-basis {cap}: NonTip "
                    f"enumeration reached {reached} paths")
        else:
            text = (f"quotient algebra is not finite dimensional: proven infinite, a NonTip "
                    f"path repeats the window {format_path(window)} and the stretch between "
                    f"the repeats pumps (stopped at {reached} paths, --max-basis {cap})")
        super().__init__(text)


class ChainCapExceeded(Exception):
    """uf_chains passed max_basis, holding ``reached`` paths, at W^(``level``)."""

    def __init__(self, cap, reached, level):
        self.cap = cap
        self.reached = reached
        self.level = level
        super().__init__(f"chain sets exceed --max-basis {cap}: the paths held reached "
                         f"{reached} while building W[{level}]")


class GroebnerBasis:
    """A list of monic elements, indexed by their tips as they enter.

    When ``reduced`` is set the basis is the unique reduced one, closed
    under overlap reduction: tips are pairwise non-dividing and every tail
    is supported on NonTip.  ``_tips[i]`` is the tip word of element i and
    ``_rests[i]`` its other terms parallel to the tip, a word dict.  ``_first``
    maps a tip word to the first element with that tip, and ``_lengths`` is
    the sorted set of tip lengths.
    """

    __slots__ = ("quiver", "field", "elements", "reduced", "closure_added",
                 "_tips", "_rests", "_first", "_lengths")

    def __init__(self, quiver, field, elements, reduced=False, closure_added=0):
        self.quiver = quiver
        self.field = field
        self.reduced = reduced
        self.closure_added = closure_added
        self.elements = []
        self._tips = []
        self._rests = []
        self._first = {}
        self._lengths = []
        for g in elements:
            t, _ = g.tip()
            self.elements.append(g)
            self._index(t.arrows, {q.arrows: x for q, x in g.terms.items()
                                   if q is not t and q.parallel_to(t)})

    def _index(self, w, rest):
        k = len(self._tips)
        if w not in self._first:
            self._first[w] = k
            if len(w) not in self._lengths:
                insort(self._lengths, len(w))
        self._tips.append(w)
        self._rests.append(rest)
        return k

    def _hits(self, word):
        """(traversal offset, element index) of every tip occurring in word,
        shortest tips first; a generator, so that any() stops at the first."""
        first, n = self._first, len(word)
        for m in self._lengths:
            if m > n:
                break
            for s in range(n - m + 1):
                i = first.get(word[s:s + m])
                if i is not None:
                    yield s, i

    def tips(self):
        return [Path(self.quiver, w) for w in self._tips]

    def tip_power(self, a):
        """The least m with a^m a tip, for arrow index a; None if none."""
        return next((m for m in self._lengths if (a,) * m in self._first), None)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        tag = "reduced " if self.reduced else ""
        return f"GroebnerBasis({tag}{len(self.elements)} elements)"


# Word dicts {traversal word: coeff} stand for elements inside this module;
# the trivial path at vertex v is keyed (~v,), which no tip occurs in.
def _word_key(w):
    """Path.key of the nontrivial path with traversal word w (llex order)."""
    return len(w), w[::-1]


def _path(quiver, w):
    return Path(quiver, w) if w[0] >= 0 else quiver.trivial(~w[0])


def _element(quiver, field, terms):
    return FreeElement(quiver, field, {_path(quiver, w): x for w, x in terms.items()})


def _monic(terms, field):
    """(tip word, terms scaled to a monic tip) of a nonzero word dict; terms
    itself when its tip is monic already."""
    tip = max(terms, key=_word_key)
    if terms[tip] == field.one:
        return tip, terms
    c = field.inv(terms[tip])
    return tip, {w: field.mul(c, x) for w, x in terms.items()}


def _reduce(terms, basis, rng=None, words=None):
    """Reduce the word dict terms in place (see normal_form); False if no term
    was.  words, if given, holds every term that a tip occurs in.  The llex
    keys of the reducible terms stay in one ascending list; a step pops one."""
    hits = {w: list(basis._hits(w)) for w in (terms if words is None else words)}
    reducible = sorted(_word_key(w) for w in hits if hits[w])
    if not reducible:
        return False
    field, src, tips, rests = basis.field, basis.quiver.arrow_src, basis._tips, basis._rests
    while reducible:
        if rng is None:
            w = reducible.pop()[1][::-1]
            # max offset = leftmost written; ties to the first element
            s, i = max(hits[w], key=lambda hit: (hit[0], -hit[1]))
        else:
            w = reducible.pop(rng.randrange(len(reducible)))[1][::-1]
            s, i = rng.choice(sorted(hits[w]))
        # w = b*tip*c, so x*w rewrites to -x * b*(g - tip)*c (g is monic);
        # a trivial b*q*c is the trivial path at the tip's source
        head, tail = w[:s], w[s + len(tips[i]):]
        product = {head + q + tail or (~src[w[0]],): x for q, x in rests[i].items()}
        add_to(terms, product, field.neg(terms.pop(w)), field)
        for q in product:
            if q not in hits:
                hits[q] = list(basis._hits(q))
            if hits[q]:
                key = _word_key(q)
                k = bisect_left(reducible, key)
                if k < len(reducible) and reducible[k] == key:
                    if q not in terms:
                        del reducible[k]
                elif q in terms:
                    reducible.insert(k, key)
    return True


def normal_form(f, basis, rng=None):
    """Remainder of f with no support path divisible by any basis tip.

    Deterministic by default: rewrite the llex-greatest reducible support
    path, at the leftmost written occurrence of any tip, by the first
    matching basis element.  Pass an ``rng`` (random.Random) to randomize
    all three choices; confluence of a completed basis makes the result
    identical either way, which the property tests exercise.  Basis
    elements must be monic.  A plain list of monic elements is indexed here
    first.  The rewriting runs on f's word dict and keeps the reducible
    paths in one list in llex order, kept sorted as terms come and go, so
    no step orders them again; f itself comes back when nothing reduces.
    """
    if not isinstance(basis, GroebnerBasis):
        basis = GroebnerBasis(f.quiver, f.field, basis)
    paths = {p.arrows or (~p.base,): p for p in f.terms}
    terms = dict(zip(paths, f.terms.values()))
    if not _reduce(terms, basis, rng):
        return f
    return FreeElement(f.quiver, f.field, {paths.get(w) or _path(f.quiver, w): x
                                           for w, x in terms.items()})


def _overlaps(tf, tg):
    """Yield the (b, c) traversal words with tf*c = b*tg written, i.e.
    tf[:l] == tg[n-l:], by ascending l.

    The lengths l are found in O(len(tf) + len(tg)) by a Knuth-Morris-Pratt
    scan of tg for tf: the scan ends at the longest such l, and the others
    are the borders of tf[:l], read off the failure table.  The pairs are
    yielded one at a time, since together they hold O(len(tf) * len(tg))
    letters.
    """
    m, n = len(tf), len(tg)
    if not m or not n:
        return
    fail = [0] * m  # fail[i]: longest proper border of tf[:i+1]
    k = 0
    for i in range(1, m):
        while k and tf[i] != tf[k]:
            k = fail[k - 1]
        if tf[i] == tf[k]:
            k += 1
        fail[i] = k
    k = 0
    for x in tg:
        while k == m or (k and x != tf[k]):
            k = fail[k - 1]
        if x == tf[k]:
            k += 1
    lengths = []
    while k:
        lengths.append(k)
        k = fail[k - 1]
    for l in reversed(lengths):
        yield tf[l:], tg[:n - l]


def _overlap_relation(rest_f, rest_g, b, c, field):
    """f*c - b*g as a word dict, for monic uniform f and g of tail dicts rest_f
    and rest_g with Tip(f)*c = b*Tip(g) (traversal words b, c): tips cancel."""
    terms = {c + q: x for q, x in rest_f.items()}
    return add_to(terms, {q + b: x for q, x in rest_g.items()}, field.neg(field.one), field)


def _validate_generators(generators):
    """The uniform parts e_j a e_i of each generator a, in the order their
    endpoints first occur in a; together they generate the same ideal."""
    out = []
    for a in generators:
        if a.is_zero:
            raise ValueError("zero generator")
        parts = {}
        for p, x in a.terms.items():
            if p.length < 2:
                raise ValueError(
                    f"generator support must sit in length >= 2, found {p!r}")
            parts.setdefault((p.source, p.target), {})[p.arrows] = x
        out.extend(parts.values())
    return out


def complete(generators, max_tip_length=DEFAULT_MAX_TIP_LENGTH, quiver=None, field=None):
    """Overlap-closure completion to the unique reduced Groebner basis.

    Runs on word dicts, and every element enters by one step, settle: it
    is reduced against the live elements, made monic and entered; those
    whose tip its tip divides leave the tip index, their pairs are skipped
    and their normal forms settle in turn (Buchberger's deletion criterion,
    which also resolves Mora's inclusion obstructions), and every live tail
    its tip occurs in is reduced in place.  The generators settle, then a
    FIFO queue of (i, j) index pairs drains, each overlap relation settling
    as an adjoined element.  Tips never change, so queued pairs stay
    valid, and the live elements are a reduced basis at every step, read
    off with no pass at the end.  An adjoined tip past max_tip_length
    raises Incomplete carrying the partial basis; closure_added counts
    adjoined elements, not re-entries.  The empty basis (zero ideal) is
    fine; pass quiver and field explicitly then.  A generator mixing
    endpoints stands for its uniform parts.
    """
    if generators:
        quiver, field = generators[0].quiver, generators[0].field
    generators = _validate_generators(generators)
    gb = GroebnerBasis(quiver, field, ())
    tips, rests, first = gb._tips, gb._rests, gb._first
    queue = deque()
    closure_added = 0

    def terms(i):  # the monic word dict of element i
        return {**rests[i], tips[i]: field.one}

    def occurs(tip, w):
        m = len(tip)
        return any(w[s:s + m] == tip for s in range(len(w) - m + 1))

    def settle(h, cap=None):
        # cap marks an adjoined overlap remainder: its tip is checked and
        # it is counted; the re-entries it pushes out are neither
        nonlocal closure_added
        pending = deque([h])
        while pending:
            h = pending.popleft()
            _reduce(h, gb)
            if not h:
                continue
            tip, h = _monic(h, field)
            if cap is not None:
                if len(tip) > cap:
                    raise Incomplete([_element(quiver, field, terms(k)) for k in first.values()],
                                     _element(quiver, field, h), cap)
                closure_added += 1
                cap = None
            out = [i for w, i in first.items() if occurs(tip, w)]
            for i in out:
                del first[tips[i]]
            del h[tip]
            k = gb._index(tip, h)
            live = list(first.values())
            queue.extend([(i, k) for i in live] + [(k, i) for i in live[:-1]])
            for i in live[:-1]:
                # no other live tip occurs in a live tail
                words = [q for q in rests[i] if occurs(tip, q)]
                if words:
                    _reduce(rests[i], gb, words=words)
            pending.extend(terms(i) for i in out)

    for h in generators:
        settle(h)
    while queue:
        i, j = queue.popleft()
        if not (rests[i] or rests[j]):
            continue  # tf*c - b*tg = 0 for two monic monomials
        for b, c in _overlaps(tips[i], tips[j]):
            if first.get(tips[i]) != i or first.get(tips[j]) != j:
                break  # a pair of an element that left
            settle(_overlap_relation(rests[i], rests[j], b, c, field), max_tip_length)
    live = sorted(first.values(), key=lambda i: _word_key(tips[i]))
    return GroebnerBasis(quiver, field, [_element(quiver, field, terms(i)) for i in live],
                         reduced=True, closure_added=closure_added)


def is_reduced(basis):
    """Check the reduced-GB invariants (monic, tip-reduced, NonTip tails)."""
    for i, (g, w) in enumerate(zip(basis.elements, basis._tips)):
        if g.tip()[1] != g.field.one:
            return False
        if any(j != i for _, j in basis._hits(w)):
            return False
        if any(any(basis._hits(p.arrows)) for p in g.terms if p.arrows != w):
            return False
    return True


def _repeated_window(word, d):
    """The first length-d subword that occurs twice in word, if any."""
    seen = set()
    for s in range(len(word) - d + 1):
        if word[s:s + d] in seen:
            return word[s:s + d]
        seen.add(word[s:s + d])


def nontip_enumerate(basis, max_basis=DEFAULT_MAX_BASIS):
    """All paths avoiding every tip as a subword, in llex order.

    Breadth first by length; within a length, extension by smaller arrows
    first keeps llex order.  Raises CapExceeded past max_basis, and at
    once when the algebra is provably infinite dimensional (Ufnarovski's
    criterion): with d = max(longest tip - 1, 1) a path is NonTip iff all
    its windows of d+1 letters are, so once a NonTip path has more
    length-d windows than there are NonTip paths of length d, one window
    repeats and the stretch between the repeats can be pumped.  A level
    is counted in full but built only up to max_basis + 1 paths in all.
    """
    quiver, first, lengths = basis.quiver, basis._first, basis._lengths
    d = max(max(lengths, default=0) - 1, 1)
    width = 0  # NonTip paths of length d, known once k reaches d
    out = [quiver.trivial(v) for v in range(quiver.n_vertices)]
    if len(out) > max_basis:
        raise CapExceeded(max_basis, len(out))
    level = out[:]
    k = 0
    while level:
        k += 1
        # the new letter is written first, so only a new written prefix
        # (= traversal suffix) can introduce a tip: test these suffixes
        starts = [k - m for m in lengths if m <= k]
        nxt, reached = [], len(out)
        for a in range(quiver.n_arrows):
            src = quiver.arrow_src[a]
            for w in level:
                if w.target != src:
                    continue
                word = w.arrows + (a,)
                for s in starts:
                    if word[s:] in first:
                        break
                else:
                    reached += 1
                    if reached <= max_basis + 1:
                        nxt.append(Path(quiver, word))
        if k == d:
            width = reached - len(out)
        if nxt and k == d + width:
            window = Path(quiver, _repeated_window(nxt[0].arrows, d))
            raise CapExceeded(max_basis, reached, window)
        if reached > max_basis:
            raise CapExceeded(max_basis, reached)
        out.extend(nxt)
        level = nxt
    return out


def uf_chains(basis, n, max_basis=DEFAULT_MAX_BASIS):
    """Chain sets W^(-1) .. W^(n) of the Uf-graph.

    The Uf-graph has the arrows and the proper right factors of tips as
    nodes, and u -> v iff the written concatenation uv contains a tip but
    no proper written prefix of it does; equivalently some tip ends
    exactly at the end of uv and none occurs earlier.  W^(-1) is the
    trivial paths; an i-chain is a tuple (w_1, .., w_{i+1}) of graph nodes
    reachable from a vertex, every node a nontrivial NonTip path.  For a
    reduced basis W^(0) matches Q1 and W^(1) the tips.  An i-chain holds
    i+1 paths; ChainCapExceeded is raised before a chain would bring the
    paths held across all levels past max_basis.  The list ends at the
    first empty level, since every later one is empty too, so it may hold
    fewer than n + 2 levels.
    """
    quiver = basis.quiver
    held = quiver.n_vertices
    if held > max_basis:
        raise ChainCapExceeded(max_basis, held, -1)
    levels = [[quiver.trivial(v) for v in range(quiver.n_vertices)]]
    if n < 0:
        return levels[: n + 2]
    first, lengths = basis._first, basis._lengths
    nodes = {quiver.arrow(a) for a in range(quiver.n_arrows)}
    for w in first:
        for k in range(1, len(w)):
            nodes.add(Path(quiver, w[:k]))  # written suffix = right factor
    nodes = sorted(nodes)
    succ = {}

    def successors(u):
        # built on first use: a long tip brings a node for each of its
        # prefixes, and few of them end a chain
        if u in succ:
            return succ[u]
        succ[u] = out = []
        for v in nodes:
            if u.source != v.target:
                continue
            word = v.arrows + u.arrows  # uv: v applied first
            # tip ends at the written front = traversal offset 0
            if not any(word[:m] in first for m in lengths):
                continue
            # no tip inside the proper written prefix (drop last applied
            # letter = first written letter = final traversal entry)
            if any(basis._hits(word[1:])):
                continue
            out.append(v)
        return out

    held += quiver.n_arrows
    if held > max_basis:
        raise ChainCapExceeded(max_basis, held, 0)
    chains = [(quiver.arrow(a),) for a in range(quiver.n_arrows)]
    chains.sort(key=lambda ch: ch[0].key)
    levels.append(chains)
    for i in range(1, n + 1):
        if not chains:
            break  # no chain to extend
        nxt = []
        for ch in chains:
            for v in successors(ch[-1]):  # right factors only
                if any(basis._hits(v.arrows)):
                    continue
                held += i + 1
                if held > max_basis:
                    raise ChainCapExceeded(max_basis, held, i)
                nxt.append(ch + (v,))
        nxt.sort(key=lambda ch: tuple(p.key for p in ch))
        levels.append(nxt)
        chains = nxt
    return levels
