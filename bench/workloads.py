"""Seeded inputs and output checks for the three benchmark workloads.

Every workload turns a seed into a list of jobs.  A job is one CLI call
(``argv`` for ``quiverhh.cli.main``) on one input file written here, plus
what its output must show:

- ``exit``: the exit status;
- ``verdict``: the program's own verdict line (``status: PASS`` of
  ``report``, ``verdict: AGREE`` of ``oracle``);
- ``values``: lines whose values are known without the code under test,
  from closed formulas: HH0 and HH1 of k[x,y]/(x^n, y^n), and the
  dimension of a Brauer graph algebra.

A job that misses any of these has failed.  Only a missing or different
``values`` line shows that an output is wrong.

Each workload has a fixed list of algebras or graphs, so that every seed
asks for the same work: with random algebras the job-list time moved by
15-30% from seed to seed.  The seed changes the presentation: the names
of vertices, arrows and edges, unit multiples of relations, and the job
order.  Declaration order is kept, so the term order and every matrix
stay the same.  ``corpus`` and ``oracle`` draw their fixed inputs from the
library (``brauer.corpus``, and a rejection sampler that runs completion
and NonTip enumeration) at set-up, in a process that never runs a job.
"""

from __future__ import annotations

import json
import os
import random

# arrow and edge names; the vertex names v, e and o are left out
NAMES = "abcdfghpqrsuwxyz"

# lie: k[x,y]/(x^n, y^n) for these n, over Q and GF(3).  GF(3) at n = 6
# is the case where the characteristic divides n.
LIE_NS = (4, 5, 6)
LIE_FIELDS = (0, 3)

# corpus: brauer.corpus(CORPUS_SEED, CORPUS_SIZE, max_dim=CORPUS_MAX_DIM),
# over Q.  CORPUS_SEED is the library's default corpus seed.
CORPUS_SEED = 271828
CORPUS_SIZE = 100
CORPUS_MAX_DIM = 40

# oracle: one 3-loop algebra per (field characteristic, dim) slot, the
# first that the rejection sampler seeded with SAMPLER_SEED finds for it;
# completion must adjoin at least one element.
SAMPLER_SEED = 271828
ORACLE_SLOTS = ((0, 11), (0, 12), (0, 13), (3, 12), (3, 13))
# plus k[x,y]/(x^4, y^4) over Q, the largest bar slice of the workload
ORACLE_POWER = 4


def _field_text(char):
    return "Q" if char == 0 else "GF(%d)" % char


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _relation_text(terms, names, scale):
    """sum of c*word over (c, word) terms; word letters index names."""
    text = ""
    for c, word in terms:
        c *= scale
        text += " %s %s%s" % ("-" if c < 0 else "+", "" if abs(c) == 1 else "%d*" % abs(c),
                              "*".join(names[a] for a in word))
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _loop_algebra_text(char, relations, names, vertex="v", scales=None):
    """Algebra file: one vertex, a loop per name, relations over them."""
    lines = ["field %s" % _field_text(char), "vertex %s" % vertex]
    lines += ["arrow %s: %s -> %s" % (a, vertex, vertex) for a in names]
    lines += ["rel %s" % _relation_text(r, names, scales[i] if scales else 1)
              for i, r in enumerate(relations)]
    return "\n".join(lines) + "\n"


def _presented(rng, char, loops, relations):
    """_loop_algebra_text with seeded names and unit multiples of relations."""
    names = rng.sample(NAMES, loops)
    # 1 and 2 are units over Q and over GF(3)
    scales = [rng.choice((1, 2)) for _ in relations]
    return _loop_algebra_text(char, relations, names, rng.choice("veo"), scales)


def _truncated_poly(n):
    """x*y - y*x, x^n, y^n with x = loop 0, y = loop 1."""
    return [[(1, (0, 1)), (-1, (1, 0))], [(1, (0,) * n)], [(1, (1,) * n)]]


def _truncated_poly_hh(n, char):
    """dim HH0 = dim A = n^2; HH1 = Der(A) has dim 2n(n-1), or 2n^2 when
    the characteristic divides n (then d/dx may send x to 1)."""
    return n * n, (2 * n * n if char and n % char == 0 else 2 * n * (n - 1))


def _lie_jobs(seed, workdir):
    rng = random.Random(seed)
    specs = [(n, char) for n in LIE_NS for char in LIE_FIELDS]
    rng.shuffle(specs)
    jobs = []
    for n, char in specs:
        name = "tp_n%d_%s.alg" % (n, "q" if char == 0 else "gf%d" % char)
        _write(os.path.join(workdir, name), _presented(rng, char, 2, _truncated_poly(n)))
        hh0, hh1 = _truncated_poly_hh(n, char)
        jobs.append({"id": name, "argv": ["hh", name],
                     "expect": {"exit": 0, "values": ["hh0: %d" % hh0, "hh1: %d" % hh1]}})
    return jobs


def _brauer_dim(graph):
    """dim of a Brauer graph algebra: 2|E| + sum_v val(v) (m(v) val(v) - 1)."""
    val = dict.fromkeys(graph.mult, 0)
    for _, v, w in graph.edges:
        val[v] += 1
        val[w] += 1
    return 2 * len(graph.edges) + sum(k * (graph.mult[v] * k - 1) for v, k in val.items())


def _renamed(rng, graph, text):
    """Brauer graph text with seeded vertex and edge names, order kept."""
    old = list(graph.mult) + [name for name, _, _ in graph.edges]
    new = ["%s%d" % (rng.choice(NAMES), k) for k in rng.sample(range(100), len(old))]
    names = dict(zip(old, new))

    def token(t):
        # "v1", "v1:" (cyclic line), "a" or "a.1" (an end of a loop)
        base, colon = (t[:-1], ":") if t.endswith(":") else (t, "")
        base, dot, end = base.partition(".")
        return names.get(base, base) + dot + end + colon

    return "".join(" ".join(map(token, ln.split())) + "\n" for ln in text.splitlines())


def _corpus_jobs(seed, workdir):
    from quiverhh import brauer, cli
    from quiverhh.exactla import Field

    rng = random.Random(seed)
    graphs = list(enumerate(brauer.corpus(seed=CORPUS_SEED, size=CORPUS_SIZE,
                                          max_dim=CORPUS_MAX_DIM)))
    rng.shuffle(graphs)
    jobs = []
    for i, graph in graphs:
        name = "g%03d.bg" % i
        text = _renamed(rng, graph, cli.brauer_to_text(Field(0), graph))
        _write(os.path.join(workdir, name), text)
        dim = _brauer_dim(graph)
        values = ["vertices: %d" % len(graph.mult), "edges: %d" % len(graph.edges),
                  "dimA: %d" % dim, "dimGr: %d" % dim]
        jobs.append({"id": name, "argv": ["report", name],
                     "expect": {"exit": 0, "verdict": "status: PASS", "values": values}})
    return jobs


def _random_loop_relations(rng, loops):
    """Quadratic binomials w - c*u plus monomials of length 2 or 3."""
    words = [(a, b) for a in range(loops) for b in range(loops)]
    rels = []
    for w in rng.sample(words, rng.randint(2, 4)):
        u = rng.choice(words)
        if u != w:
            rels.append([(1, w), (-rng.randint(1, 2), u)])
    for _ in range(rng.randint(2, 5)):
        rels.append([(1, tuple(rng.randrange(loops) for _ in range(rng.choice((2, 3, 3)))))])
    return rels


def _sample_loop_algebras(slots):
    """First 3-loop relation set of the seeded stream that fits each slot."""
    from quiverhh import cli, groebner, quotient

    rng = random.Random(SAMPLER_SEED)
    found = {}
    max_dim = max(d for _, d in slots)
    while len(found) < len(slots):
        char = rng.choice(sorted({c for c, d in slots if (c, d) not in found}))
        rels = _random_loop_relations(rng, 3)
        try:
            _, _, elems = cli.parse_algebra(_loop_algebra_text(char, rels, NAMES[:3]))
            # a cap on tip length only rejects candidates sooner: a kept
            # candidate completed, so the job's own completion is the same
            gb = groebner.complete(elems, max_tip_length=6)
            dim = quotient.build_quotient(gb, max_basis=max_dim).dim
        except (ValueError, groebner.Incomplete, quotient.InfiniteDimensional):
            continue
        if gb.closure_added > 0 and (char, dim) in slots:
            found.setdefault((char, dim), rels)
    return [found[slot] for slot in slots]


def _oracle_jobs(seed, workdir):
    rng = random.Random(seed)
    inputs = [("loops_%s_d%d.alg" % ("q" if c == 0 else "gf%d" % c, d), c, 3, rels, [])
              for (c, d), rels in zip(ORACLE_SLOTS, _sample_loop_algebras(ORACLE_SLOTS))]
    hh0, hh1 = _truncated_poly_hh(ORACLE_POWER, 0)
    inputs.append(("tp_n%d_q.alg" % ORACLE_POWER, 0, 2, _truncated_poly(ORACLE_POWER),
                   ["%s-hh%d: %d" % (route, k, v) for route in ("pp", "bar")
                    for k, v in ((0, hh0), (1, hh1))]))
    rng.shuffle(inputs)
    jobs = []
    for name, char, loops, rels, values in inputs:
        _write(os.path.join(workdir, name), _presented(rng, char, loops, rels))
        jobs.append({"id": name, "argv": ["oracle", name],
                     "expect": {"exit": 0, "verdict": "verdict: AGREE", "values": values}})
    return jobs


WORKLOADS = {"lie": _lie_jobs, "corpus": _corpus_jobs, "oracle": _oracle_jobs}


def generate(workload, seed, workdir):
    """Write the inputs and ``jobs.json`` of one workload into workdir."""
    jobs = WORKLOADS[workload](seed, workdir)
    _write(os.path.join(workdir, "jobs.json"), json.dumps(jobs, indent=1))
    return jobs


def check(job, exit_code, stdout):
    """(miss, wrong): the first unmet expectation or None, and whether a
    value known without the code under test is missing or different."""
    expect = job["expect"]
    lines = set(stdout.splitlines())
    wrong = [v for v in expect["values"] if v not in lines]
    if exit_code != expect["exit"]:
        miss = "exit %r, expected %r" % (exit_code, expect["exit"])
    elif expect.get("verdict") and expect["verdict"] not in lines:
        miss = "no %r line" % expect["verdict"]
    elif wrong:
        miss = "no %r line" % wrong[0]
    else:
        miss = None
    return miss, bool(wrong)
