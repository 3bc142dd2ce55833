"""Per-module spans and counters, recorded from outside the package.

`Tracer.install()` replaces selected functions of `affa` with timing
wrappers: in the defining module, in every `affa` module that imported
the function by name, and on the classes that own methods.  Each wrapper
keeps a call count and self time (its duration minus the time of wrapped
calls made inside it).  Entry points of a layer ("coarse" functions) also
record one span each -- name, operation id, parent span, start, end --
kept in memory and written out by `write()`.  `uninstall()` restores the
original functions.

Self times are wall-clock.  Spans that start on a worker thread with no
open span of their own (the batch pool) are charged as children of the
span that is open on the installing thread, so `cli.run` keeps only the
time spent in cli itself; with one pool thread, as the batch workload
runs it, those charges never overlap.
"""

from __future__ import annotations

import json
import threading
import time

import affa.classify
import affa.cli
import affa.cyclotomic
import affa.diagram
import affa.equiv
import affa.evaluate
import affa.fusion
import affa.labeling
import affa.testgen
import affa.theory

MODULES = (affa.cyclotomic, affa.theory, affa.diagram, affa.labeling,
           affa.evaluate, affa.fusion, affa.equiv, affa.classify,
           affa.testgen, affa.cli)

# Spans beyond this many are counted but not kept, to bound memory.
MAX_SPANS = 200_000

_D = affa.diagram


def _targets():
    """(metric name, owner, attribute, coarse span?) for every wrapped
    function; owner is a module or a class."""
    cyc = affa.cyclotomic.Cyclo
    return [
        ("cyclotomic.mul", cyc, "__mul__", False),
        ("cyclotomic.inverse", cyc, "inverse", False),
        ("cyclotomic.pow", cyc, "__pow__", False),
        ("theory.box_signature", affa.theory, "box_signature", False),
        ("theory.click_rewrite", affa.theory, "click_rewrite", False),
        ("diagram.make", _D.Diagram, "make", False),
        ("diagram.validate", _D.Diagram, "validate", False),
        ("diagram.compose", _D.Morphism, "compose", False),
        ("diagram.tensor", _D.Morphism, "tensor", False),
        ("diagram.trace_close", _D.Morphism, "trace_close", False),
        ("diagram.expand_plain", _D.Morphism, "expand_plain", True),
        ("diagram.parse", _D.Morphism, "parse", True),
        ("cli.run", affa.cli, "run", True),
        ("cli.eval_one", affa.cli, "_eval_one", True),
        ("testgen.random_closed", affa.testgen, "random_closed", True),
        ("labeling.invariant", affa.labeling, "invariant", True),
        ("labeling.label_regions", affa.labeling, "label_regions", True),
        ("evaluate.eval_closed", affa.evaluate, "eval_with_steps", True),
        ("evaluate.inner_product", affa.evaluate, "inner_product", True),
        ("evaluate.morphism_eq", affa.evaluate, "morphism_eq", True),
        ("fusion.span_diagrams", affa.fusion, "span_diagrams", True),
        ("fusion.gram_matrix", affa.fusion, "gram_matrix", True),
        ("equiv.check_cocycle", affa.equiv, "check_cocycle", True),
        ("equiv.check_functor", affa.equiv, "check_functor", True),
        ("equiv.to_image", affa.equiv, "to_image", True),
        ("classify.count_classes", affa.classify, "count_classes", True),
    ]


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span):
        self.child = 0.0
        self.span = span


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {"evaluate.steps": 0,
                         "diagram.expand_plain.terms_out": 0,
                         "fusion.span_diagrams.basis_size": 0}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = -1
        self._local = threading.local()
        self._main_stack: list[_Frame] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- bookkeeping --------------------------------------------------
    def _stack(self) -> list[_Frame]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._main_stack if threading.current_thread() is \
                threading.main_thread() else []
            self._local.stack = st
        return st

    def _timed(self, name: str, fn, coarse: bool, post=None):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, spans = self.calls, self.self_s, self.spans
        main_stack, lock, stack_of = self._main_stack, self._lock, \
            self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = None
            if coarse:
                parent = next((f.span for f in reversed(stack)
                               if f.span is not None), None)
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    spans.append([name, self.op_id, parent, 0.0, 0.0])
                else:
                    self.dropped_spans += 1
            frame = _Frame(span)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame.child
                if span is not None:
                    spans[span][3], spans[span][4] = t0, t1
                if stack:
                    stack[-1].child += dur
                elif stack is not main_stack and main_stack:
                    with lock:
                        main_stack[-1].child += dur
            if post is not None:
                post(out)
            return out
        return wrapper

    def _count_steps(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counters["evaluate.steps"] += out[1]
            return out
        return wrapper

    def _post(self, name: str):
        counters = self.counters
        if name == "diagram.expand_plain":
            def post(m):
                counters["diagram.expand_plain.terms_out"] += len(m.terms)
            return post
        if name == "fusion.span_diagrams":
            def post(basis):
                counters["fusion.span_diagrams.basis_size"] += len(basis)
            return post
        return None

    # -- patching -----------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        raw = owner.__dict__[attr]
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, owner, attr, coarse in _targets():
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._timed(name, fn, coarse, self._post(name))
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(wrapped))
            elif isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                # aliases such as Cyclo.__rmul__ = __mul__
                for alias, val in list(owner.__dict__.items()):
                    if val is fn and alias != attr:
                        self._patch(owner, alias, wrapped)
            else:
                for mod in MODULES:
                    if mod.__dict__.get(attr) is fn:
                        self._patch(mod, attr, wrapped)
        term = affa.evaluate._eval_term
        self._patch(affa.evaluate, "_eval_term", self._count_steps(term))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- results ------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer figures under the names BENCHMARK.json lists."""
        c, s = self.calls, self.self_s
        out: dict[str, float] = {}
        for name in c:
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        # cli's own share also runs on pool threads, inside _eval_one
        out["cli.run.self_s"] += out.pop("cli.eval_one.self_s")
        out.pop("cli.eval_one.calls")
        out.update(self.counters)
        calls = c["diagram.expand_plain"]
        out["diagram.expand_plain.terms_per_call"] = (
            self.counters["diagram.expand_plain.terms_out"] / calls
            if calls else 0.0)
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["layers"] = {name: {"calls": self.calls[name],
                                "self_s": self.self_s[name]}
                         for name in sorted(self.calls)}
        doc["counters"] = self.counters
        doc["span_fields"] = ["name", "op", "parent", "start", "end"]
        doc["spans"] = self.spans
        doc["dropped_spans"] = self.dropped_spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")

