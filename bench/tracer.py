"""Spans around the public functions of quiverhh, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules at
every module that binds it: a function imported by name (``from
.groebner import normal_form``) is a separate binding in the importing
module and is wrapped there too.  Public classes get their ``__init__`` and
public methods wrapped, except ``exactla.Field``, whose methods are scalar
additions and multiplications.  A span is (name, start, end, parent, job);
spans stay in memory and are written once, when the traced pass ends.

A few spans also carry counts taken at the same boundary (matrix shapes,
Groebner basis sizes, pair-space sizes).  The probes that take them run
outside the span they describe, and their time is left out of every self
time.

``summarize`` turns a written span file into the per-layer metrics.  The
untraced pass never imports this module's ``install``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("cli", "brauer", "groebner", "quotient", "ppcomplex", "exactla", "baroracle")
UNTRACED_CLASSES = {"exactla.Field"}


def _shape(rows):
    nrows = len(rows)
    return nrows, (len(rows[0]) if nrows else 0)


def _nnz(rows):
    # dict rows hold only nonzero entries; list rows hold every entry
    return sum(len(r) if isinstance(r, dict) else sum(1 for x in r if x) for r in rows)


def _terms_key(f):
    return frozenset(f.terms.items())


class Tracer:
    def __init__(self):
        self.names = []
        # [name id, start, end, parent, job, counts, probe time inside]
        self.spans = []
        self.stack = []
        self.job = -1
        self._nf_inputs = set()
        self._basis_keys = {}
        self.nf_distinct = 0

    # -- recording ------------------------------------------------------

    def begin_job(self, job):
        self._end_job()
        self.job = job

    def _end_job(self):
        self.nf_distinct += len(self._nf_inputs)
        self._nf_inputs = set()
        self._basis_keys = {}

    def _nf_pre(self, args, kwargs):
        f = args[0]
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        elems = tuple(getattr(basis, "elements", basis))
        ids = tuple(map(id, elems))
        got = self._basis_keys.get(ids)
        if got is None:
            # keep elems alive so their ids are not reused within the job
            got = (elems, tuple(_terms_key(g) for g in elems))
            self._basis_keys[ids] = got
        self._nf_inputs.add((_terms_key(f), got[1]))
        return None

    @staticmethod
    def _multiply_pre(args, kwargs):
        u, v, algebra = args[:3]
        memo = getattr(algebra, "_multable", None)
        return {"hit": int(memo is not None and (u, v) in memo)}

    @staticmethod
    def _rref_pre(args, kwargs):
        rows, cols = _shape(args[0])
        return {"rows": rows, "cols": cols}

    @staticmethod
    def _rref_post(counts, args, kwargs, result):
        counts["rank"] = result[0]
        return counts

    @staticmethod
    def _complete_post(counts, args, kwargs, gb):
        return {"closure_added": gb.closure_added, "elements": len(gb.elements)}

    @staticmethod
    def _nontip_post(counts, args, kwargs, basis):
        return {"paths": len(basis)}

    @staticmethod
    def _cochain_post(counts, args, kwargs, result):
        sl = args[0]
        return {"q1_pairs": len(sl.q1_pairs), "tip_pairs": len(sl.tip_pairs),
                "psi1_cells": len(sl.tip_pairs) * len(sl.q1_pairs),
                "psi1_nnz": _nnz(sl.psi1)}

    @staticmethod
    def _bar_post(counts, args, kwargs, result):
        sl = args[0]
        return {"d1_rows": len(sl.c2_basis), "d1_cols": len(sl.c1_basis),
                "d1_nnz": _nnz(sl.d1)}

    def _probes(self, name):
        pre = {
            "groebner.normal_form": self._nf_pre,
            "quotient.algebra_multiply": self._multiply_pre,
            "exactla.rref": self._rref_pre,
        }.get(name)
        post = {
            "exactla.rref": self._rref_post,
            "groebner.complete": self._complete_post,
            "groebner.nontip_enumerate": self._nontip_post,
            "ppcomplex.CochainSlice.__init__": self._cochain_post,
            "baroracle.BarSlice.__init__": self._bar_post,
        }.get(name)
        return pre, post

    def _charge(self, parent, seconds):
        if parent >= 0:
            self.spans[parent][6] += seconds

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        pre, post = self._probes(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            counts = None
            if pre is not None:
                t = clock()
                counts = pre(args, kwargs)
                tracer._charge(parent, clock() - t)
            rec = [nid, 0.0, 0.0, parent, tracer.job, counts, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                t = clock()
                rec[5] = post(counts, args, kwargs, result)
                tracer._charge(parent, clock() - t)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, package="quiverhh"):
        modules = {m: importlib.import_module("%s.%s" % (package, m)) for m in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (short, attr)
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self.wrap(qual, obj)
                elif (isinstance(obj, type) and not issubclass(obj, BaseException)
                      and qual not in UNTRACED_CLASSES):
                    for mname, meth in list(vars(obj).items()):
                        if isinstance(meth, types.FunctionType) and (
                                mname == "__init__" or not mname.startswith("_")):
                            setattr(obj, mname, self.wrap("%s.%s" % (qual, mname), meth))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and isinstance(obj, types.FunctionType):
                    setattr(mod, attr, w)

    def write(self, path):
        self._end_job()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "nf_distinct": self.nf_distinct}, fh)


# -- per-layer metrics from a span file -----------------------------------

def _outer_time(spans, names, wanted):
    """Total duration of spans named in wanted, not nested in another such."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (nid, start, end, parent, _, _, _) in enumerate(spans):
        hit = names[nid] in wanted
        outer = parent >= 0 and (inside[parent] or names[spans[parent][0]] in wanted)
        inside[i] = outer
        if hit and not outer:
            total += end - start
    return total


def summarize(path, wall_s):
    """Per-layer metrics of one traced pass whose job list took wall_s."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names, spans = data["names"], data["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = {}
    calls = {}
    counts = {}
    for i, (nid, start, end, parent, _, c, probe) in enumerate(spans):
        name = names[nid]
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i] - probe
        calls[name] = calls.get(name, 0) + 1
        if c:
            acc = counts.setdefault(name, {})
            for k, v in c.items():
                acc[k] = acc.get(k, 0) + v

    def outer(*wanted):
        return _outer_time(spans, names, set(wanted))

    def n(name):
        return calls.get(name, 0)

    def cnt(name, key):
        return counts.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def module_self(mod, exclude=()):
        return sum(t for nm, t in self_time.items()
                   if nm.split(".", 1)[0] == mod and nm not in exclude)

    parse = ("cli.parse_algebra", "cli.parse_brauer")
    rref_spans = [(s[4], s[5]) for s in spans if names[s[0]] == "exactla.rref"]
    bar_spans = [(s[4], s[5]) for s in spans if names[s[0]] == "baroracle.BarSlice.__init__"]
    d1_shapes = {(job, c["d1_rows"], c["d1_cols"]) for job, c in bar_spans}
    cli_self = module_self("cli", exclude=parse)
    jobs_s = sum(s[2] - s[1] for s in spans if s[3] < 0 and names[s[0]] == "cli.main")
    m = {
        "groebner.normal_form.calls": n("groebner.normal_form"),
        "groebner.normal_form_s": outer("groebner.normal_form"),
        "groebner.normal_form.distinct_ratio": ratio(data["nf_distinct"],
                                                     n("groebner.normal_form")),
        "quotient.project_pi.calls": n("quotient.project_pi"),
        "quotient.project_pi_s": outer("quotient.project_pi"),
        "ppcomplex.bracket_pairs.calls": n("ppcomplex.bracket_pairs"),
        "ppcomplex.bracket_pairs_s": outer("ppcomplex.bracket_pairs"),
        "ppcomplex.lie.self_s": self_time.get("ppcomplex.lie_presentation", 0.0),
        "ppcomplex.cochain_s": outer("ppcomplex.CochainSlice.__init__"),
        "ppcomplex.q1_pairs": cnt("ppcomplex.CochainSlice.__init__", "q1_pairs"),
        "ppcomplex.tip_pairs": cnt("ppcomplex.CochainSlice.__init__", "tip_pairs"),
        "ppcomplex.psi1.cells": cnt("ppcomplex.CochainSlice.__init__", "psi1_cells"),
        "ppcomplex.psi1.nnz": cnt("ppcomplex.CochainSlice.__init__", "psi1_nnz"),
        "ppcomplex.hh1_spaces_s": outer("ppcomplex.CochainSlice.hh1_spaces"),
        "ppcomplex.graded_s": outer("ppcomplex.graded_report"),
        "groebner.complete_s": outer("groebner.complete"),
        "groebner.complete.calls": n("groebner.complete"),
        "groebner.closure_added": cnt("groebner.complete", "closure_added"),
        "groebner.gb_elements": cnt("groebner.complete", "elements"),
        "groebner.nontip_s": outer("groebner.nontip_enumerate"),
        "groebner.nontip.paths": cnt("groebner.nontip_enumerate", "paths"),
        "exactla.rref.calls": n("exactla.rref"),
        "exactla.rref_s": outer("exactla.rref"),
        "exactla.rref.cells": sum(c["rows"] * c["cols"] for _, c in rref_spans),
        "exactla.rref.max_cells": max((c["rows"] * c["cols"] for _, c in rref_spans),
                                      default=0),
        "exactla.rref.rank_ratio": ratio(sum(c["rank"] for _, c in rref_spans),
                                         sum(c["rows"] for _, c in rref_spans)),
        "baroracle.build_s": outer("baroracle.BarSlice.__init__"),
        "baroracle.d1.cells": sum(c["d1_rows"] * c["d1_cols"] for _, c in bar_spans),
        "baroracle.d1.nnz": cnt("baroracle.BarSlice.__init__", "d1_nnz"),
        "baroracle.d1.rref_calls": sum(1 for job, c in rref_spans
                                       if (job, c["rows"], c["cols"]) in d1_shapes),
        "baroracle.rank_s": outer("baroracle.bar_hh_dims"),
        "baroracle.derived_s": outer("baroracle.bar_derived_series"),
        "baroracle.bracket_c1.calls": n("baroracle.bracket_c1"),
        "quotient.multiply.calls": n("quotient.algebra_multiply"),
        "quotient.multiply.memo_hit_ratio": ratio(cnt("quotient.algebra_multiply", "hit"),
                                                  n("quotient.algebra_multiply")),
        "brauer.relations_s": outer("brauer.generate_relations", "brauer.gr_relations"),
        "brauer.report.self_s": self_time.get("brauer.invariant_report", 0.0),
        "cli.parse_s": outer(*parse),
        "cli.self_s": cli_self,
        "trace.attributed_ratio": ratio(jobs_s - cli_self, wall_s),
    }
    for mod in LAYERS[1:]:
        m["%s.self_s" % mod] = module_self(mod)
    return m
