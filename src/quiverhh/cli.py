"""Command line front end and the two text file formats.

Algebra files describe a quiver with relations:

    field GF(3)
    vertex e1 e2
    arrow b2: e1 -> e2
    arrow b1: e2 -> e1
    rel b1*b2 - a1*a2
    rel x^3 + 2*y*x

``field`` is ``Q`` or ``GF(p)``.  Vertices may share a line.  Arrow
declaration order is ascending precedence for the length-lexicographic
order.  Relation expressions are integer combinations of path words
written left to right in composition order (leftmost factor applied
last); ``*`` separates factors, ``^`` repeats one, and every support
path must have length at least 2.  ``#`` starts a comment.

Brauer graph files:

    field Q
    vertex v1 mult 2
    vertex v2 mult 1
    edge a v1 v2
    edge b v1 v2
    cyclic v1: a b
    cyclic v2: b a

Loops list their two ends as ``e.1`` and ``e.2``; the suffix is
rejected on non-loops.  A vertex with a single half-edge may omit its
``cyclic`` line.

Subcommands: gb, basis, hh, chains, oracle (algebra files), bga,
report (Brauer graph files).  Output is line oriented ``key: value``
text.  Exit status 0 means every check passed, 1 a mathematical
disagreement or failed check, 2 a syntax or validation error, 3 a cap
overflow, 4 an internal error (any other exception, reported in one line).
"""

import argparse
import os
import re
import sys
from itertools import zip_longest

from .exactla import Field, add_to, parse_field
from .pathalg import (
    MAX_PATH_LENGTH, Path, Quiver, FreeElement, format_path, format_element,
)
from .groebner import (
    DEFAULT_MAX_BASIS, DEFAULT_MAX_TIP_LENGTH, ChainCapExceeded, Incomplete, CapExceeded,
    complete, uf_chains,
)
from .quotient import build_quotient
from .ppcomplex import (
    CochainSlice,
    lie_presentation,
    graded_report,
    loop_char_report,
)
from .baroracle import build_bar_slice, bar_hh_dims, bar_derived_series
from .brauer import (
    DEFAULT_SEED,
    BrauerGraph,
    BrauerGraphError,
    DimensionCapExceeded,
    half_token,
    invariant_report,
    corpus,
    relations,
)


class ParseError(Exception):
    """Syntax error in an input file, with 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.:]*")
_INT_RE = re.compile(r"[0-9]+")
_PLAIN_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_ARROW_RE = re.compile(r"(.*\S)\s*:\s*(\S+)\s*->\s*(\S+)\Z")
# the program's own bound on an integer literal, checked before int(): main
# lifts CPython's int-to-str digit limit so that long results can print
MAX_LITERAL_DIGITS = 4000
# corpus() builds every graph, about 1.4 KB each, before report prints one
MAX_CORPUS_SIZE = 100000


def _literal(digits, lineno, col):
    """int(digits) for the literal at (lineno, col), refused past the cap."""
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError("integer literal of %d digits exceeds the cap of %d digits"
                         % (len(digits), MAX_LITERAL_DIGITS), lineno, col)
    return int(digits)


def _tokenize(text, lineno, base_col):
    # token kinds: name, int, and the single characters + - * ^
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = base_col + i
        if ch in "+-*^":
            out.append((ch, ch, col))
            i += 1
            continue
        m = _INT_RE.match(text, i)
        if m:
            out.append(("int", _literal(m.group(), lineno, col), col))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            out.append(("name", m.group(), col))
            i = m.end()
            continue
        raise ParseError("unexpected character %r" % ch, lineno, col)
    return out


class _ExprParser:
    """Recursive-descent parser for relation expressions.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := (int '*')? factor ('*' factor)*
    factor := name ('^' int)?
    """

    def __init__(self, quiver, field):
        self.quiver = quiver
        self.field = field
        self.spent = 0  # arrows of the file's terms parsed so far

    def _peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return (None, None, self.end_col)

    def _take(self):
        tok = self._peek()
        if tok[0] is not None:
            self.pos += 1
        return tok

    def _fail(self, message, col=None):
        if col is None:
            col = self._peek()[2]
        raise ParseError(message, self.lineno, col)

    def parse(self, tokens, lineno, end_col):
        self.toks, self.pos, self.lineno, self.end_col = tokens, 0, lineno, end_col
        terms = {}
        sign = 1
        kind, _, _ = self._peek()
        if kind in ("+", "-"):
            sign = -1 if self._take()[0] == "-" else 1
        while True:
            coeff, path = self._term()
            self.spent += path.length
            if value := self.field.of(sign * coeff):
                add_to(terms, {path: value}, self.field.one, self.field)
            kind, _, _ = self._peek()
            if kind is None:
                break
            if kind not in ("+", "-"):
                self._fail("expected '+' or '-' between terms")
            sign = -1 if self._take()[0] == "-" else 1
        return FreeElement(self.quiver, self.field, terms)

    def _term(self):
        coeff = 1
        kind, value, col = self._peek()
        if kind == "int":
            self._take()
            coeff = value
            kind, _, _ = self._peek()
            if kind != "*":
                self._fail("integer coefficient needs '*' and a path", col)
            self._take()
        # factors in written order, each applied before the one to its left;
        # the path is built once, so a term of n factors parses in O(n)
        word, source, _ = self._factor()
        factors, length = [word], len(word)
        while self._peek()[0] == "*":
            self._take()
            kind, _, col = self._peek()
            word, src, tgt = self._factor()
            length += len(word)
            self._check_cap("path of length", length, col)
            if tgt != source:
                self._fail("factors are not composable", col)
            factors.append(word)
            source = src
        return coeff, Path(self.quiver, [a for f in reversed(factors) for a in f], source)

    def _factor(self):
        """(arrow word, source, target) of a vertex, an arrow or a loop power."""
        kind, value, col = self._take()
        if kind != "name":
            self._fail("expected a vertex or arrow name", col)
        q = self.quiver
        if value in q.vertex_index:
            word, source, target = (), q.vertex_index[value], q.vertex_index[value]
        elif value in q.arrow_index:
            word = (q.arrow_index[value],)
            source, target = q.arrow_src[word[0]], q.arrow_tgt[word[0]]
        else:
            self._fail("unknown vertex or arrow %r" % value, col)
        if self._peek()[0] == "^":
            self._take()
            kind, power, pcol = self._take()
            if kind != "int" or power < 1:
                self._fail("exponent must be a positive integer", pcol)
            if word and power > 1:
                if source != target:
                    self._fail("power of a non-loop path", col)
                self._check_cap("exponent", power, pcol)
                word *= power
        return word, source, target

    def _check_cap(self, what, length, col):
        # a term of this length, alone and after the file's terms so far
        cap = MAX_PATH_LENGTH
        if length > cap:
            self._fail("%s %d exceeds the path length cap %d" % (what, length, cap), col)
        if self.spent + length > cap:
            self._fail("relations spell out %d arrows in all, past the path length cap %d"
                       % (self.spent + length, cap), col)


def _directives(text, handlers):
    """The field of text's one ``field`` line.  Every other directive goes,
    in file order, to handlers[head](rest, lineno, col, rest_col, end_col):
    rest stripped, the columns of head and rest, and the one past the line."""
    field = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(None, 1)[0]
        col = line.index(head) + 1
        rest = line[col - 1 + len(head):]
        rest_col = col + len(head) + len(rest) - len(rest.lstrip())
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", lineno, col)
            try:
                field = parse_field(rest)
            except ValueError as exc:
                raise ParseError(str(exc), lineno, rest_col) from None
        elif head in handlers:
            handlers[head](rest.strip(), lineno, col, rest_col, len(line) + 1)
        else:
            raise ParseError("unknown directive %r" % head, lineno, col)
    if field is None:
        raise ParseError("missing field line", 1, 1)
    return field


def parse_algebra(text):
    """Parse an algebra file into (field, quiver, relations)."""
    vertices = []
    arrows = []
    seen = {}
    rels = []

    def vertex(rest, lineno, col, rest_col, _):
        names = rest.split()
        if not names:
            raise ParseError("vertex line needs at least one name", lineno, col)
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ParseError("bad vertex name %r" % name, lineno, rest_col)
            if name in seen:
                raise ParseError("duplicate name %r" % name, lineno, rest_col)
            seen[name] = "vertex"
            vertices.append(name)

    def arrow(rest, lineno, col, rest_col, _):
        m = _ARROW_RE.match(rest)
        if m is None:
            raise ParseError("expected 'arrow <name>: <src> -> <tgt>'", lineno, col)
        name, src, tgt = m.groups()
        if not _NAME_RE.fullmatch(name):
            raise ParseError("bad arrow name %r" % name, lineno, rest_col)
        if name in seen:
            raise ParseError("duplicate name %r" % name, lineno, rest_col)
        for v in (src, tgt):
            if v not in seen or seen[v] != "vertex":
                raise ParseError("unknown vertex %r" % v, lineno, rest_col)
        seen[name] = "arrow"
        arrows.append((name, src, tgt))

    def rel(rest, lineno, col, rest_col, end_col):
        if not rest:
            raise ParseError("empty relation", lineno, col)
        rels.append((lineno, rest, rest_col, end_col))

    field = _directives(text, {"vertex": vertex, "arrow": arrow, "rel": rel})
    if not vertices:
        raise ParseError("no vertices declared", 1, 1)
    quiver = Quiver(vertices, arrows)
    relations = []
    parser = _ExprParser(quiver, field)
    for lineno, expr, rest_col, end_col in rels:
        elem = parser.parse(_tokenize(expr, lineno, rest_col), lineno, end_col)
        if not elem.terms:
            raise ParseError("relation reduces to zero", lineno, rest_col)
        if min(p.length for p in elem.terms) < 2:
            raise ParseError("relation contains a path of length < 2", lineno, rest_col)
        relations.append(elem)
    return field, quiver, relations


def algebra_to_text(field, quiver, relations):
    """Serialize to the algebra file format; inverse of parse_algebra
    for integer-coefficient relations."""
    lines = ["field %r" % field]
    lines.append("vertex %s" % " ".join(quiver.vertices))
    for name, s, t in zip(quiver.arrow_names, quiver.arrow_src, quiver.arrow_tgt):
        lines.append("arrow %s: %s -> %s" % (name, quiver.vertices[s], quiver.vertices[t]))
    for rel in relations:
        lines.append("rel %s" % format_element(rel))
    return "\n".join(lines) + "\n"


def parse_brauer(text):
    """Parse a Brauer graph file into (field, BrauerGraph)."""
    mults = {}
    edges = []
    kinds = {}  # a name is one vertex or one edge
    cyclic = {}
    lines = {}  # vertex -> (line, col, {token: col}) of its cyclic line, else vertex line

    def claim(name, kind, lineno, col):
        if name in kinds:
            what = kind if kinds[name] == kind else "name"
            raise ParseError("duplicate %s %r" % (what, name), lineno, col)
        kinds[name] = kind

    def vertex(rest, lineno, col, rest_col, _):
        parts = rest.split()
        if len(parts) != 3 or parts[1] != "mult":
            raise ParseError("expected 'vertex <name> mult <m>'", lineno, col)
        name, _, mtext = parts
        if not _PLAIN_NAME_RE.match(name):
            raise ParseError("bad vertex name %r" % name, lineno, rest_col)
        claim(name, "vertex", lineno, rest_col)
        mult = (_INT_RE.fullmatch(mtext)
                and _literal(mtext, lineno, rest_col + len(rest) - len(mtext)))
        if not mult:
            raise ParseError("multiplicity must be a positive integer", lineno, rest_col)
        mults[name] = mult
        lines[name] = (lineno, rest_col, {})

    def edge(rest, lineno, col, rest_col, _):
        parts = rest.split()
        if len(parts) != 3:
            raise ParseError("expected 'edge <name> <vertex> <vertex>'", lineno, col)
        name, v, w = parts
        if not _PLAIN_NAME_RE.match(name):
            raise ParseError("bad edge name %r" % name, lineno, rest_col)
        claim(name, "edge", lineno, rest_col)
        for x in (v, w):
            if x not in mults:
                raise ParseError("unknown vertex %r" % x, lineno, rest_col)
        edges.append((name, v, w))

    def cyclic_line(rest, lineno, col, rest_col, _):
        if ":" not in rest:
            raise ParseError("expected 'cyclic <vertex>: <half-edges>'", lineno, col)
        vname, tail = rest.split(":", 1)
        vname = vname.strip()
        if vname not in mults:
            raise ParseError("unknown vertex %r" % vname, lineno, rest_col)
        if vname in cyclic:
            raise ParseError("duplicate cyclic line for %r" % vname, lineno, rest_col)
        tokens = tail.split()
        if not tokens:
            raise ParseError("empty cyclic ordering", lineno, col)
        cyclic[vname] = tokens
        lines[vname] = (lineno, rest_col, {m.group(): rest_col + len(rest) - len(tail) + m.start()
                                           for m in reversed(list(re.finditer(r"\S+", tail)))})

    field = _directives(text, {"vertex": vertex, "edge": edge, "cyclic": cyclic_line})
    try:
        return field, BrauerGraph(list(mults.items()), edges, cyclic)
    except BrauerGraphError as exc:
        if exc.vertex is None:  # a fact of the whole graph has no one line
            raise
        lineno, col, columns = lines[exc.vertex]
        raise ParseError(str(exc), lineno, columns.get(exc.token, col)) from None


def brauer_to_text(field, graph):
    """Serialize to the Brauer graph file format; inverse of parse_brauer."""
    lines = ["field %r" % field]
    for name in graph.vertex_names:
        lines.append("vertex %s mult %d" % (name, graph.mult[name]))
    for name, v, w in graph.edges:
        lines.append("edge %s %s %s" % (name, v, w))
    for vname in graph.vertex_names:
        tokens = [half_token(graph.edges[ei][0], end, graph.is_loop(ei))
                  for ei, end in graph.cyclic[vname]]
        lines.append("cyclic %s: %s" % (vname, " ".join(tokens)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand implementations


def _load(path, parse):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _bool(value):
    return "true" if value else "false"


def _dims_text(dims):
    return ",".join(str(d) for d in dims)


def _completed(args):
    """The reduced Groebner basis of the relations in the algebra file."""
    field, quiver, relations = _load(args.file, parse_algebra)
    return complete(relations, max_tip_length=args.max_tip_len, quiver=quiver, field=field)


def cmd_gb(args, out):
    gb = _completed(args)
    out("field: %r" % gb.field)
    out("size: %d" % len(gb.elements))
    out("closure-added: %d" % gb.closure_added)
    for i, (g, t) in enumerate(zip(gb.elements, gb.tips())):
        out("gb[%d]: %s" % (i, format_element(g)))
        out("tip[%d]: %s" % (i, format_path(t)))
    return 0


def cmd_basis(args, out):
    algebra = build_quotient(_completed(args), max_basis=args.max_basis)
    out("field: %r" % algebra.field)
    out("dim: %d" % algebra.dim)
    for i, p in enumerate(algebra.basis):
        out("basis[%d]: %s" % (i, format_path(p)))
    return 0


def _hh0_dim(sl):
    # dim Ker psi0 by rank-nullity, off the Im psi0 that HH1 eliminates
    return len(sl.q0_pairs) - sl.hh1_spaces()[1].dim


def _print_hh(algebra, out):
    sl = CochainSlice(algebra)
    pres = lie_presentation(algebra, sl)
    hh0_dim = _hh0_dim(sl)
    out("dim: %d" % algebra.dim)
    out("hh0: %d" % hh0_dim)
    out("hh1: %d" % pres.dim)
    for i, label in enumerate(pres.basis_labels):
        out("h[%d]: %s" % (i, label))
    for (i, j), coords in pres.structure_constants.nonzero.items():
        out("[h%d,h%d]: %s" % (i, j, sl.format_vector(coords, lambda k: "h%d" % k)))
    out("derived: %s" % _dims_text(pres.derived_dims))
    out("solvable: %s" % _bool(pres.solvable))
    rep = graded_report(algebra, sl)
    out("homogeneous: %s" % _bool(rep.homogeneous))
    out("L[-1]: %d" % rep.dim_L_minus1)
    out("L[0,0]: %d" % rep.dim_L00)
    if rep.graded_dims is not None:
        for deg, dim in enumerate(rep.graded_dims):
            out("L[%d]: %d" % (deg, dim))
    for name, power, divides in loop_char_report(algebra):
        out("loop[%s]: power=%d char-ok=%s" % (name, power, _bool(not divides)))
    return 0


def cmd_hh(args, out):
    algebra = build_quotient(_completed(args), max_basis=args.max_basis)
    out("field: %r" % algebra.field)
    return _print_hh(algebra, out)


def cmd_chains(args, out):
    levels = uf_chains(_completed(args), args.n, max_basis=args.max_basis)
    # the levels past the first empty one are empty and are not built
    for i in range(args.n + 2):
        out("W[%d]: %d" % (i - 1, len(levels[i]) if i < len(levels) else 0))
    return 0


def cmd_oracle(args, out):
    algebra = build_quotient(_completed(args), max_basis=args.max_basis)
    sl = CochainSlice(algebra)
    pres = lie_presentation(algebra, sl)
    pp_hh0 = _hh0_dim(sl)
    bar = build_bar_slice(algebra)
    bar_hh0, bar_hh1 = bar_hh_dims(algebra, bar)
    bar_derived = bar_derived_series(algebra, bar)
    out("field: %r" % algebra.field)
    out("pp-hh0: %d" % pp_hh0)
    out("pp-hh1: %d" % pres.dim)
    out("pp-derived: %s" % _dims_text(pres.derived_dims))
    out("bar-hh0: %d" % bar_hh0)
    out("bar-hh1: %d" % bar_hh1)
    out("bar-derived: %s" % _dims_text(bar_derived))
    diffs = ["%s pp=%d bar=%d" % (name, pp, bar) for name, pp, bar
             in (("hh0", pp_hh0, bar_hh0), ("hh1", pres.dim, bar_hh1)) if pp != bar]
    derived = zip_longest(pres.derived_dims, bar_derived, fillvalue="-")
    diffs += ["derived[%d] pp=%s bar=%s" % (i, pp, bar)
              for i, (pp, bar) in enumerate(derived) if pp != bar][:1]
    out("verdict: %s" % ("DISAGREE (%s)" % ", ".join(diffs) if diffs else "AGREE"))
    return 1 if diffs else 0


def cmd_bga(args, out):
    field, graph = _load(args.file, parse_brauer)
    out(algebra_to_text(field, *relations(graph, field, args.gr)).rstrip("\n"))
    return 0


def _print_report(rep, out):
    graph = rep.graph
    out("vertices: %d" % len(graph.vertex_names))
    out("edges: %d" % len(graph.edges))
    out("field: %r" % rep.field)
    out("dimA: %d" % rep.dim_a)
    out("dimGr: %d" % rep.dim_gr)
    out("hh1A: %d" % rep.dim_hh1_a)
    out("hh1Gr: %d" % rep.dim_hh1_gr)
    out("l00A: %d" % rep.dim_l00_a)
    out("l00Gr: %d" % rep.dim_l00_gr)
    out("gamma: %d" % rep.gamma)
    out("s2: %d" % rep.s2)
    out("solvableA: %s" % _bool(rep.solvable_a))
    out("solvableGr: %s" % _bool(rep.solvable_gr))
    out("derivedA: %s" % _dims_text(rep.derived_a))
    out("derivedGr: %s" % _dims_text(rep.derived_gr))
    out("closure-added: %d" % rep.closure_added_a)
    for check in rep.checks:
        detail = " (%s)" % check.detail if check.detail else ""
        out("check[%s]: %s%s" % (check.name, check.status, detail))
    out("status: %s" % ("PASS" if rep.ok else "FAIL"))
    return 0 if rep.ok else 1


def cmd_report(args, out):
    if args.corpus:
        rc = 0
        graphs = corpus(seed=args.seed, size=args.size)
        field = Field(0)
        for i, graph in enumerate(graphs):
            rep = invariant_report(graph, field,
                                   max_tip_length=args.max_tip_len,
                                   max_basis=args.max_basis)
            bad = [c.name for c in rep.checks if c.status == "fail"]
            status = "FAIL" if bad else "PASS"
            out("graph[%d]: edges=%d vertices=%d dim=%d status=%s%s"
                % (i, len(graph.edges), len(graph.vertex_names),
                   rep.dim_a, status,
                   " failed=" + ",".join(bad) if bad else ""))
            if bad:
                rc = 1
        out("corpus: %s" % ("FAIL" if rc else "PASS"))
        return rc
    field, graph = _load(args.file, parse_brauer)
    rep = invariant_report(graph, field,
                           max_tip_length=args.max_tip_len,
                           max_basis=args.max_basis)
    return _print_report(rep, out)


def _int_at_least(low, high=None):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (high, value))
        return value
    # argparse names the type in its "invalid <name> value" message
    parse.__name__ = "int"
    return parse


def _caps(p, basis=True):
    p.add_argument("--max-tip-len", type=_int_at_least(1), default=DEFAULT_MAX_TIP_LENGTH,
                   help="abort completion past this tip length")
    if basis:
        p.add_argument("--max-basis", type=_int_at_least(1), default=DEFAULT_MAX_BASIS,
                       help="abort basis enumeration past this size")


def _algebra_args(p, basis=True):
    p.add_argument("file", help="algebra file")
    _caps(p, basis)


def _chains_args(p):
    p.add_argument("file", help="algebra file")
    p.add_argument("--n", type=_int_at_least(-1), required=True,
                   help="highest chain degree, at least -1")
    _caps(p)


def _bga_args(p):
    p.add_argument("file", help="Brauer graph file")
    p.add_argument("--gr", action="store_true",
                   help="emit the associated graded algebra instead")


def _report_args(p):
    p.add_argument("file", nargs="?", help="Brauer graph file")
    p.add_argument("--corpus", action="store_true",
                   help="run the seeded random corpus instead of a file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="corpus seed")
    p.add_argument("--size", type=_int_at_least(1, MAX_CORPUS_SIZE), default=20,
                   help="corpus size, 1 to %d" % MAX_CORPUS_SIZE)
    _caps(p)


# command -> (help, adds its arguments); main looks cmd_<command> up as it runs
_COMMANDS = {
    "gb": ("reduced noncommutative Groebner basis", lambda p: _algebra_args(p, basis=False)),
    "basis": ("monomial basis of the quotient", _algebra_args),
    "hh": ("HH0, HH1 with Lie structure and grading", _algebra_args),
    "chains": ("sizes of the chain sets W(i)", _chains_args),
    "oracle": ("cross-check HH against the bar resolution", _algebra_args),
    "bga": ("emit the algebra file of a Brauer graph", _bga_args),
    "report": ("invariant report for a Brauer graph", _report_args),
}


def build_parser(command=None):
    """The quiverhh parser, with only the subparser of command if that is
    known (all that parse_args reads when argv[0] names it), else all seven.
    The usage line it prints on its own errors names all seven: a metavar
    says so when one subparser is added, and only then, since argparse names
    the action by its metavar in the missing and invalid command errors."""
    parser = argparse.ArgumentParser(
        prog="quiverhh",
        description="Hochschild cohomology of quiver algebras "
                    "and Brauer graph algebras, in exact arithmetic.")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(_COMMANDS) if len(names) == 1 else None)
    for name in names:
        help_, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_))
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command == "report" and not args.corpus and args.file is None:
        parser.error("report needs a file or --corpus")
    out = lambda line: print(line)
    # a result may outgrow CPython's int-to-str limit (a squared 4,000-digit
    # coefficient); the limit is restored for the caller
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits:
        digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        rc = globals()["cmd_" + args.command](args, out)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader closed the pipe and wants no more output; send what is
        # still buffered to devnull so the flush at shutdown cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (Incomplete, CapExceeded, ChainCapExceeded, DimensionCapExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        print("error: internal error: %s: %s"
              % (type(exc).__name__, " ".join(str(exc).splitlines())), file=sys.stderr)
        return 4
    finally:
        if set_digits:
            set_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
