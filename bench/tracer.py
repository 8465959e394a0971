"""Span tracing of nfisac calls, installed from outside the library.

Each wrapped function is replaced on the module it is looked up from, so a
call made through ``from .conic import solve`` inside ``nfisac.sca`` is
wrapped as ``sca.solve`` while it still records under the span name
``conic.solve``.  Span stacks are kept per thread, so calls made by the
Monte Carlo pool workers nest correctly on their own threads; a span opened
on a worker thread has no parent.

Spans are kept in memory and written out once the run has ended.  A span's
self time is its duration minus the time its child spans on the same thread
cover.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, counts=None):
        """Record every call of ``module.attr`` as a span called ``name``.

        ``counts`` maps the return value to a dict of counters kept on the
        span.  A name the module no longer has is listed in ``missing``.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # [id, parent, name, thread, phase, start, end, child time, counts]
            span = [next(tracer._ids), stack[-1][0] if stack else 0, name,
                    threading.get_ident(), tracer.phase, time.perf_counter(),
                    0.0, 0.0, None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span[8] = counts(result)
                return result
            finally:
                span[6] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][7] += span[6] - span[5]
                tracer.spans.append(span)

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def unwrap(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def totals(self, phase="run"):
        """Per span name: calls, total seconds, self seconds and summed counters."""
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0,
                                   "counts": defaultdict(float)})
        for _, _, name, _, ph, start, end, child, counts in self.spans:
            if ph != phase:
                continue
            agg = out[name]
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child
            for key, value in (counts or {}).items():
                agg["counts"][key] += value
        return out

    def worker_busy(self, phase="run"):
        """Seconds covered by root spans opened on threads other than the main one."""
        main = threading.main_thread().ident
        return sum(end - start for _, parent, _, thread, ph, start, end, _, _ in self.spans
                   if ph == phase and parent == 0 and thread != main)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing": self.missing}) + "\n")
            for sid, parent, name, thread, phase, start, end, child, counts in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "thread": thread, "phase": phase, "start": start,
                                     "end": end, "self": end - start - child,
                                     "counts": counts}) + "\n")
