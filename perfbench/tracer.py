"""Outside-in span tracer: times calls into the program from the benchmark.

Nothing under ``src/`` knows about it.  :func:`Tracer.patch_method` and
:func:`Tracer.patch_function` replace a class attribute or a module-level
function with a wrapper that records one span per call:

    (name id, start ns, end ns, parent span index, op id)

Spans are kept in memory (the first ``MAX_SPANS`` of them; the rest are
only counted) and written out by :meth:`Tracer.dump`.  Aggregates are kept
for every call regardless of the cap: per span name the call count, the
inclusive time and the *self* time, which is the span's duration minus
the time its direct child spans cover.  Wrapped calls nest synchronously
within a thread, so a per-thread stack gives self time exactly.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from time import perf_counter_ns

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list = []  # name id -> span name
        self.layers: list = []  # name id -> layer
        self._ids: dict = {}
        self.calls: list = []  # name id -> call count
        self.self_ns: list = []  # name id -> summed self time
        self.total_ns: list = []  # name id -> summed inclusive time
        self.spans: list = []
        self.dropped = 0
        #: Op id given to root spans; the workload loop sets it per op.
        self.op = 0
        self._local = threading.local()

    # -- aggregates -----------------------------------------------------

    def reset(self) -> None:
        """Forget every span and aggregate (keeps the wrappers)."""
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.spans = []
        self.dropped = 0

    def snapshot(self) -> dict:
        """Per span name: [layer, calls, self ns, inclusive ns]."""
        return {
            name: [self.layers[i], self.calls[i], self.self_ns[i], self.total_ns[i]]
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def dump(self, path: str) -> None:
        """Write the recorded spans and the aggregates as gzipped JSON."""
        with gzip.open(path, "wt") as out:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                    "spans": [s for s in self.spans if s is not None],
                    "dropped": self.dropped,
                    "aggregates": self.snapshot(),
                },
                out,
            )

    # -- wrapping -------------------------------------------------------

    def _intern(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def wrap(self, fn, name: str, layer: str, *, op_from_self: bool = False):
        """``fn`` wrapped to record a span named ``name`` in ``layer``.

        With ``op_from_self`` a root span takes its op id from its first
        argument (the server interleaves sessions, so the op is the
        session object the call belongs to); child spans inherit the op
        id of their parent.
        """
        nid = self._intern(name, layer)
        local = self._local
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            spans = tracer.spans
            if stack:
                parent = stack[-1]
                parent_index, op = parent[0], parent[2]
            else:
                parent_index = -1
                op = id(args[0]) if op_from_self else tracer.op
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0, op]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.calls[nid] += 1
                tracer.total_ns[nid] += duration
                tracer.self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (nid, start, end, parent_index, op)

        return traced

    def patch_method(self, cls, attr: str, layer: str, **kw) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        fn = cls.__dict__.get(attr)
        if fn is None or not callable(fn):
            return
        name = f"{cls.__name__}.{attr}"
        setattr(cls, attr, self.wrap(fn, name, layer, **kw))

    def patch_public_methods(self, cls, layer: str) -> None:
        """Wrap every public plain function ``cls`` itself defines."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and callable(value) and hasattr(
                value, "__code__"
            ):
                self.patch_method(cls, attr, layer)

    def patch_function(self, module, attr: str, layer: str) -> None:
        """Wrap a module-level function where every caller looks it up.

        Callers that did ``from module import attr`` hold their own
        reference, so every loaded ``repro`` module global bound to the
        same function object is rebound to the wrapper.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, f"{module.__name__}.{attr}", layer)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
