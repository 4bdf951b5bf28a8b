"""Span tracing around the public functions of sparselms' layers.

The tracer replaces a function at the name its caller looks it up by
(``module.attr``) with a wrapper that records a span: name, parent span,
start, end, an optional label and an optional work count. Open spans live
on a per-thread stack, finished spans in a list in memory; :meth:`Tracer.dump`
writes them out once the traced program has finished.

A target that no longer exists is recorded as absent instead of failing,
so a refactor that removes or renames a function leaves the traced run
working; its span then reports zero calls.
"""

import functools
import importlib
import itertools
import threading
import time

clock_ns = time.monotonic_ns


class Tracer:
    def __init__(self):
        self.spans = []  # finished: (id, parent id or -1, name, t0_ns, t1_ns, label, count)
        self.targets = {}  # "module.attr" -> {"span": name, "status": "patched" | "absent"}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, module_name, attr, name, label=None, count=None):
        """Wrap ``module_name.attr`` in place; record it as absent if it is missing.

        ``label(args, kwargs)`` tags a span (e.g. with the variant) and
        ``count(args, kwargs, result)`` gives the work it did (e.g. updates).
        """
        target = f"{module_name}.{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.targets[target] = {"span": name, "status": "absent"}
            return
        setattr(module, attr, self.wrap(name, fn, label, count))
        self.targets[target] = {"span": name, "status": "patched"}

    def wrap(self, name, fn, label=None, count=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            tag = label(args, kwargs) if label else None
            result = failed = object()
            t0 = clock_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock_ns()
                stack.pop()
                work = count(args, kwargs, result) if count and result is not failed else 0
                self.spans.append((span_id, parent, name, t0, t1, tag, work))

        return traced

    def dump(self):
        return {"targets": self.targets, "spans": [list(s) for s in self.spans]}


def summarize(spans):
    """Per span name: calls, total and self time (ns), work count, and per label.

    Self time is a span's duration minus the durations of its child spans,
    which on one thread never overlap each other.
    """
    child_ns = {}
    for _id, parent, _name, t0, t1, _tag, _work in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out = {}
    for span_id, _parent, name, t0, t1, tag, work in spans:
        rec = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0,
                                    "labels": {}})
        self_ns = (t1 - t0) - child_ns.get(span_id, 0)
        rec["calls"] += 1
        rec["total_ns"] += t1 - t0
        rec["self_ns"] += self_ns
        rec["work"] += work
        if tag is not None:
            lab = rec["labels"].setdefault(tag, {"self_ns": 0, "work": 0})
            lab["self_ns"] += self_ns
            lab["work"] += work
    return out


def top_level_ns(spans, after_ns):
    """Total duration of root spans that start at or after ``after_ns``."""
    return sum(t1 - t0 for _i, parent, _n, t0, t1, _t, _w in spans
               if parent < 0 and t0 >= after_ns)
