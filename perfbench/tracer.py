"""Outside-in tracer for one qsphere job.

``Tracer.install`` wraps, from outside the package, the public functions
and public methods of the layer modules in ``LAYERS``.  Each wrapped call
records a span (id, parent id, name, start, end) and adds to its name's
call count, total time and self time (total minus the time of the wrapped
calls nested inside it).  A module-level function is replaced in every
``qsphere`` module namespace that bound it by name, not only where it is
defined: ``hopf`` does ``from .presentations import build``, so patching
``presentations.build`` alone would miss the builds made by
``hopf.build_coaction``.

Binary ``Scalar`` operations are counted, not timed: a span per operation
would swamp the run.  The recursive ``RewriteSystem.reduce_word`` and
``RFormEvaluator.eval_words`` are never wrapped, because a wrapper doubles
their frame depth and turns deep inputs that pass into ``RecursionError``;
their work is read from the sizes of their memo tables instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("rewrite", "presentations", "hopf", "rmatrix", "linalg", "parser")

NEVER_WRAP = frozenset(
    {
        "rewrite.RewriteSystem.reduce_word",
        "rmatrix.RFormEvaluator.eval_words",
    }
)


def _terms_key(poly):
    return frozenset(poly.terms.items())


class Tracer:
    """Spans and counts for the calls made into the layer modules."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, total_s, self_s]
        self.spans = []  # (span_id, parent_id, name, start_s, end_s)
        self.scalar_ops = [0, 0, 0]  # ops, ops with monomial dens, den lengths
        self.free_equal = 0  # tensor_equal calls whose raw dicts already agree
        self.rref_entries = 0
        self.antipode_seen = set()
        self.antipode_repeats = 0
        self.eval_bar_seen = set()
        self.eval_bar_repeats = 0
        self.systems = []  # every RewriteSystem built during the job
        self.evaluators = []  # every RFormEvaluator built during the job
        self._stack = []  # [child_time_s, span_id] per open span
        self._next_id = 0

    # -- installation

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "qsphere"
        }
        probes = {
            "hopf.tensor_equal": self._probe_tensor_equal,
            "hopf.antipode": self._probe_antipode,
            "rmatrix.RFormEvaluator.eval_bar": self._probe_eval_bar,
            "linalg.rref": self._probe_rref,
        }
        for layer in LAYERS:
            mod = modules[f"qsphere.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrapped = self._span(name, obj, probes.get(name))
                    for other in modules.values():
                        for key, val in list(vars(other).items()):
                            if val is obj:
                                setattr(other, key, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj, probes)
        scalars = modules["qsphere.scalars"]
        for op in ("__add__", "__mul__", "__truediv__"):
            # __sub__ is self + (-other) and __pow__ repeats __mul__, so
            # these three see every binary operation exactly once
            setattr(scalars.Scalar, op, self._count(getattr(scalars.Scalar, op)))
        rewrite = modules["qsphere.rewrite"]
        rmatrix = modules["qsphere.rmatrix"]
        self._track(rewrite.RewriteSystem, self.systems)
        self._track(rmatrix.RFormEvaluator, self.evaluators)
        return self

    def _wrap_methods(self, layer, cls, probes):
        for attr, obj in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in NEVER_WRAP:
                continue
            if inspect.isfunction(obj):
                setattr(cls, attr, self._span(name, obj, probes.get(name)))

    def _span(self, name, fn, probe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(*args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                spans.append((span_id, parent, name, start, end))

        return traced

    def _count(self, op):
        counts = self.scalar_ops

        @functools.wraps(op)
        def counted(a, b):
            da, db = a.den, b.den
            counts[0] += 1
            counts[2] += len(da) + len(db)
            if len(da) - da.count(0) == 1 and len(db) - db.count(0) == 1:
                counts[1] += 1
            return op(a, b)

        return counted

    @staticmethod
    def _track(cls, registry):
        init = cls.__init__

        @functools.wraps(init)
        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            registry.append(self)

        cls.__init__ = tracked

    # -- probes: ratios measured where the work happens

    def _probe_tensor_equal(self, d1, d2, legs):
        if d1 == d2:
            self.free_equal += 1

    def _probe_antipode(self, a, P):
        key = (id(P), _terms_key(a))
        if key in self.antipode_seen:
            self.antipode_repeats += 1
        else:
            self.antipode_seen.add(key)

    def _probe_eval_bar(self, ev, a, b):
        key = (id(ev), _terms_key(a), _terms_key(b))
        if key in self.eval_bar_seen:
            self.eval_bar_repeats += 1
        else:
            self.eval_bar_seen.add(key)

    def _probe_rref(self, A):
        self.rref_entries += len(A) * (len(A[0]) if A else 0)

    # -- results

    def summary(self) -> dict:
        """Plain counts and times; shares are formed after summing jobs."""
        ops, laurent, den_len = self.scalar_ops
        return {
            "spans": {k: v for k, v in self.stats.items() if v[0]},
            "scalar_ops": ops,
            "scalar_laurent_ops": laurent,
            "scalar_den_len": den_len,
            "tensor_equal_free_equal": self.free_equal,
            "antipode_repeats": self.antipode_repeats,
            "eval_bar_repeats": self.eval_bar_repeats,
            "rref_entries": self.rref_entries,
            "nf_cache_words": sum(len(s._nf_cache) for s in self.systems),
            "eval_words_memo": sum(len(e._memo) for e in self.evaluators),
        }
