"""Spans and per-layer counters for the traced run, installed from outside.

Tracer.install() wraps the public functions of each charcubic layer where
their callers look them up: every module attribute and class attribute in the
charcubic package that holds the original function object gets the wrapper,
so `from .multipoly import map_compose` in autgroup, `uni.mul` lookups and
`MultiPoly.__rmul__ = __mul__` aliases are all covered.  restore() puts every
original back.

Only calls made inside an operation (Tracer.run_op) are counted; a wrapped
function called while a pass is being built or checked runs straight through.
A span's self time is its duration minus the time its child spans cover.
Self time and call counts are aggregated for every counted call; span records
(name, start, end, parent, operation id) are kept in memory for the coarse
layers only, because the arithmetic layers make millions of calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

from charcubic import (autgroup, characters, cli, family, homology, lines,
                       matrices, modular, multipoly, parsing, sqrtalgebra)
from charcubic import univariate as uni

MARK = "__bench_wrapped__"
MAX_SPANS = 300_000

# layers that run too often to record one span per call
FINE = {"multipoly.mul", "multipoly.add", "multipoly.pow", "sqrtalgebra.mul",
        "matrices.mul", "univariate.arith", "parsing"}


def _targets():
    """(span name, owner, attribute) for every wrapped public function."""
    mp = multipoly.MultiPoly
    out = [
        ("multipoly.mul", mp, "__mul__"),
        ("multipoly.add", mp, "__add__"),
        ("multipoly.add", mp, "__sub__"),
        ("multipoly.pow", mp, "__pow__"),
        ("multipoly.substitute", mp, "substitute"),
        ("multipoly.evaluate", mp, "evaluate"),
        ("multipoly.map_compose", multipoly, "map_compose"),
        ("multipoly.jacobian_determinant", multipoly, "jacobian_determinant"),
        ("autgroup.word_to_map", autgroup, "word_to_map"),
        ("autgroup.horowitz_decompose", autgroup, "horowitz_decompose"),
        ("autgroup.affine_stabilizer", autgroup, "affine_stabilizer"),
        ("autgroup.is_automorphism", autgroup, "is_automorphism"),
        ("autgroup.gamma_to_s4", autgroup, "gamma_to_s4"),
        ("homology.homology_action", homology, "homology_action"),
        ("modular.word_to_pgl", modular, "word_to_pgl"),
        ("family.critical_points", family, "critical_points"),
        ("family.critical_values", family, "critical_values"),
        ("univariate.rational_roots", uni, "rational_roots"),
        ("univariate.squarefree_decomposition", uni, "squarefree_decomposition"),
        ("lines.lines_on_fiber", lines, "lines_on_fiber"),
        ("lines.class_gram", lines, "class_gram"),
        ("lines.line_incidence", lines, "line_incidence"),
        ("sqrtalgebra.mul", sqrtalgebra.SqrtAlgebraElem, "__mul__"),
        ("sqrtalgebra.inverse", sqrtalgebra.SqrtAlgebraElem, "inverse"),
        ("matrices.smith_normal_form", matrices, "smith_normal_form"),
        ("matrices.char_poly", matrices, "char_poly"),
        ("matrices.mul", matrices.Matrix, "__mul__"),
        ("cli.run", cli, "run"),
    ]
    named = {attr for _, owner, attr in out if owner is uni}
    for attr, fn in vars(uni).items():
        if (inspect.isfunction(fn) and fn.__module__ == uni.__name__
                and not attr.startswith("_") and attr not in named):
            out.append(("univariate.arith", uni, attr))
    for attr in ("torus_character", "sphere_character", "traces_to_params"):
        out.append(("characters", characters, attr))
    for attr in ("parse_rational", "parse_triple", "parse_int_list", "parse_matrix",
                 "parse_poly", "parse_poly_map", "parse_word", "word_tokens"):
        out.append(("parsing", parsing, attr))
    return out


def _owners():
    """Every charcubic module and the classes defined in them."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "charcubic" or n.startswith("charcubic."))]
    classes = [c for m in mods for c in vars(m).values()
               if inspect.isclass(c) and c.__module__.startswith("charcubic")]
    return mods + list(dict.fromkeys(classes))


def installed_wrappers():
    """(owner, attribute) pairs that currently hold a benchmark wrapper."""
    return [(getattr(o, "__name__", o), a) for o in _owners()
            for a, v in list(vars(o).items()) if getattr(v, MARK, False)]


def _params_kind(args, kwargs):
    params = kwargs.get("params", args[1] if len(args) > 1 else (0, 0, 0))
    if all(c == 0 for c in params):
        return "zero"
    return "int" if all(Fraction(c).denominator == 1 for c in params) else "rat"


def _integral(poly):
    # by coefficient value through the public API, so the split keeps its
    # meaning whatever the coefficients are stored as
    return all(c.denominator == 1 for _, c in poly.terms())


class Tracer:
    def __init__(self):
        self.agg = defaultdict(lambda: [0, 0.0])    # span name -> [calls, self seconds]
        self.split = defaultdict(lambda: [0, 0.0])  # the same, split by operand kind
        self.root_s = 0.0                           # time inside operation root spans
        self.counts = defaultdict(int)
        self.spans = []                             # [name, start, end, parent, op]
        self.dropped = 0
        self.op_id = -1
        self.active = False                         # inside run_op
        self._stack = [[0.0, -1]]                   # frames: [child seconds, span index]
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name):
        idx = -1
        if name not in FINE:
            if len(self.spans) < MAX_SPANS:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, self._stack[-1][1], self.op_id])
            else:
                self.dropped += 1
        frame = [0.0, idx if idx >= 0 else self._stack[-1][1]]
        self._stack.append(frame)
        return frame, idx

    def _exit(self, name, frame, idx, t0, t1):
        self._stack.pop()
        self._stack[-1][0] += t1 - t0
        self_s = t1 - t0 - frame[0]
        a = self.agg[name]
        a[0] += 1
        a[1] += self_s
        if idx >= 0:
            self.spans[idx][1:3] = (t0, t1)
        return self_s

    def run_op(self, op_id, fn):
        """Run one benchmark operation as the root span of its tree."""
        self.op_id = op_id
        frame, idx = self._enter("op")
        self.active = True
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.active = False
            self._exit("op", frame, idx, t0, t1)
            self.root_s += t1 - t0

    def wrap(self, name, fn):
        tracer = self
        hook = {"multipoly.mul": self._mul_hook,
                "autgroup.word_to_map": self._kind_hook,
                "autgroup.horowitz_decompose": self._decompose_hook}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame, idx = tracer._enter(name)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                self_s = tracer._exit(name, frame, idx, t0, t1)
                if hook is not None:
                    hook(args, kwargs, result, self_s)
                    # the hook's own time is the tracer's, not the caller's
                    tracer._stack[-1][0] += perf_counter() - t1

        setattr(wrapper, MARK, True)
        return wrapper

    # -- counters ----------------------------------------------------------------

    def _mul_hook(self, args, kwargs, result, self_s):
        if result is not None:
            self.counts["multipoly.mul.out_terms"] += len(result)
        a, b = args[0], args[1]
        if not isinstance(b, multipoly.MultiPoly):
            return
        side = "int" if _integral(a) and _integral(b) else "rat"
        self.counts["multipoly.mul.%s_pairs" % side] += len(a) * len(b)
        self.split["multipoly.mul." + side][1] += self_s

    def _kind_hook(self, args, kwargs, result, self_s):
        a = self.split["autgroup.word_to_map." + _params_kind(args, kwargs)]
        a[0] += 1
        a[1] += self_s

    def _decompose_hook(self, args, kwargs, result, self_s):
        a = self.split["autgroup.horowitz_decompose." + _params_kind(args, kwargs)]
        a[0] += 1
        a[1] += self_s
        if result is not None:
            self.counts["autgroup.horowitz_decompose.steps"] += len(result[0])

    # -- install / restore ----------------------------------------------------------

    def install(self):
        owners = _owners()
        for name, owner, attr in _targets():
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original)
            for o in owners:
                for a, v in list(vars(o).items()):
                    if v is original:
                        self._patches.append((o, a, v))
                        setattr(o, a, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports --------------------------------------------------------------------

    def metric(self, name):
        """Value of a per-layer metric named <span>.calls, <span>.self_s or a counter."""
        if name in self.counts:
            return self.counts[name]
        if name.endswith("_pairs_per_s"):
            side = name.rsplit(".", 1)[1].split("_")[0]
            secs = self.split["multipoly.mul." + side][1]
            return self.counts["multipoly.mul.%s_pairs" % side] / secs if secs else 0.0
        span, stat = name.rsplit(".", 1)
        table = self.split if span in self.split else self.agg
        if stat == "calls":
            return table[span][0] if span in table else 0
        if stat == "self_s":
            return table[span][1] if span in table else 0.0
        return 0

    def write_spans(self, path, op_kinds):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "kind": op_kinds.get(op)}) + "\n")
