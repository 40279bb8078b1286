"""In-memory span recorder that wraps weylkit's layer functions from outside.

``Tracer.install`` replaces each target function (a module function, a
method, or a ``functools.cached_property``) by a wrapper that records one
span per call, and rebinds every ``weylkit`` module attribute that held the
original, so that calls such as ``sympoly.build_module`` are seen too.
``Tracer.restore`` puts every original binding back.

Spans live in flat arrays until ``summary`` reduces them: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span named ``name`` per call; ``on_result``

        sees (tracer, result) after the span closes, for counters."""
        nid = self._id(name)
        clock, stack = self._clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (span name, owner, attribute, on_result or None)."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "weylkit"]
        for name, owner, attr, on_result in targets:
            orig = owner.__dict__[attr]
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(self.wrap(name, orig.func, on_result))
                new.__set_name__(owner, attr)
                self._rebind(owner, attr, orig, new)
                continue
            new = self.wrap(name, orig, on_result)
            if isinstance(owner, type):
                self._rebind(owner, attr, orig, new)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, orig, new)

    def _rebind(self, owner, attr: str, orig, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def summary(self, outer=()) -> dict[str, dict[str, float]]:
        """Per span name: calls and self_s; for the names in ``outer`` also

        outer_s, the inclusive time of spans with no same-named ancestor."""
        outer_ids = {self._ids[n] for n in outer if n in self._ids}
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        outer_s: dict[str, float] = defaultdict(float)
        names, name_id, parent = self._names, self.name_id, self.parent
        for i in range(len(self.start)):
            dur = self.end[i] - self.start[i]
            nid = name_id[i]
            name = names[nid]
            calls[name] += 1
            self_s[name] += dur
            p = parent[i]
            if p >= 0:
                self_s[names[name_id[p]]] -= dur
            if nid in outer_ids:
                while p >= 0 and name_id[p] != nid:
                    p = parent[p]
                if p < 0:
                    outer_s[name] += dur
        return {
            n: {"calls": calls[n], "self_s": self_s[n], "outer_s": outer_s[n]}
            for n in calls
        }
