"""Span tracer for the benchmark.

Every traced library function is replaced, at every module and class that
binds it, by a wrapper that records one span per call.  Spans are
aggregated in memory as they close: call count, total time and self time
(the span's duration minus the time covered by its child spans).  Wrappers
can also update named counters from a call's arguments or result.

``audit`` checks the tracer's coverage independently: it counts, through a
profile hook, every execution of each traced function's code object, which
no binding site can bypass, and compares that with the spans recorded.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, nested=()):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        # (outer, inner) pairs: calls and time of `inner` spans opened while
        # an `outer` span is open
        self.nested_calls = Counter()
        self.nested_s = defaultdict(float)
        self._watch = defaultdict(list)
        for outer, inner in nested:
            self._watch[inner].append(outer)
        self._open = Counter()
        self._stack = []
        self._originals = {}
        self._patches = []

    def _wrap(self, name, fn, observe):
        stack, open_, watch = self._stack, self._open, self._watch.get(name, ())
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        nested_calls, nested_s, counts = self.nested_calls, self.nested_s, self.counts
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            open_[name] += 1
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                open_[name] -= 1
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                for outer in watch:
                    if open_[outer]:
                        nested_calls[outer, name] += 1
                        nested_s[outer, name] += dt
            if observe is not None:
                observe(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets, modules):
        """Wrap each target for the duration of the block.

        ``targets`` lists (span name, owner, attribute, observe).  A function
        owned by a module is replaced in every module of ``modules`` that
        binds the same object; a method is replaced on its class.
        """
        try:
            for name, owner, attr, observe in targets:
                fn = vars(owner)[attr]
                wrapper = self._wrap(name, fn, observe)
                self._originals[fn.__code__] = name
                sites = [(owner, attr)]
                if not isinstance(owner, type):
                    sites += [(mod, key) for mod in modules for key, val in vars(mod).items()
                              if val is fn and not (mod is owner and key == attr)]
                for site, key in sites:
                    self._patches.append((site, key, fn))
                    setattr(site, key, wrapper)
            yield self
        finally:
            while self._patches:
                site, key, fn = self._patches.pop()
                setattr(site, key, fn)

    def audit(self, fn):
        """Run ``fn`` with a profile hook that counts executions of every
        traced code object; return {span name: (spans, executions)} for each
        name where the two differ."""
        codes = self._originals
        executed = Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    executed[name] += 1

        before = Counter(self.calls)
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        spans = self.calls - before
        return {name: (spans[name], executed[name]) for name in set(codes.values())
                if spans[name] != executed[name]}
