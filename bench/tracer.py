"""Span tracer for the benchmark's traced pass.

The tracer wraps every public function of the six quiverz modules and
replaces each reference to it in every one of those modules' namespaces, so
that aliased imports (``verify`` imports ``jordan_type as exact_jordan_type``)
and calls through module globals (``exactmat.jordan_type`` calling ``rank``)
are both traced.  Private helpers (``verify._raw_mul`` and friends) are not
wrapped, so their time is the self time of the public function that calls
them.  ``ExactMatrix.__init__`` is counted, not spanned.

Spans are timed with the CPU clock of the calling thread
(``time.thread_time``), so a span in one pool thread does not count the time
another thread holds the interpreter lock, and the self times of one thread
add up to no more than its CPU time.  Each span has an inner interval, around
the call alone, and an outer one that also covers the wrapper's own
bookkeeping; a parent's self time subtracts its children's outer intervals,
so that bookkeeping lands in no function's self time.

A span is (name, start, end, parent, id, outer start, outer end, thread).
Spans are kept in memory as one flat array of doubles and written out after
the pass.  Parents come from a per-thread stack, so a span opened in a pool
thread is a root of its thread.  A generator function's span covers creating
the generator, not iterating it.  Leaving the ``with`` block restores every
patched attribute.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from array import array

# name index, start, end, parent id (-1 for a root), span id, outer start,
# outer end, thread index
FIELDS = 8


def public_functions(short: str, module) -> list:
    """``(qualified name, function)`` for the public callables a module defines."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out.append((f"{short}.{attr}", obj))
    return out


class Tracer:
    def __init__(self, modules: dict, matrix_class):
        self.modules = modules  # short name -> module object
        self.matrix_class = matrix_class
        self.names: list = []
        self.spans = array("d")
        self.matrices_built = 0
        self.entries_built = 0
        self.mul_ops = 0  # computed n*m*k multiply-adds over all mul calls
        self._patches: list = []  # (owner, attribute, original)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._threads = itertools.count()

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        wrappers = {}
        for short, module in self.modules.items():
            for name, fn in public_functions(short, module):
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

        original_init = self.matrix_class.__init__
        lock = self._lock

        def counted_init(matrix, *args, **kwargs):
            original_init(matrix, *args, **kwargs)
            with lock:
                self.matrices_built += 1
                self.entries_built += len(matrix.entries)

        self._patch(self.matrix_class, "__init__", counted_init)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        clock = time.thread_time
        local = self._local
        ids = self._ids
        threads = self._threads
        record = self.spans.extend  # one C call per span, so threads do not interleave
        count_ops = name == "exactmat.mul"
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = clock()
            state = local.__dict__
            stack = state.get("stack")
            if stack is None:
                stack = state["stack"] = []
                state["thread"] = next(threads)
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            if count_ops:
                X, Y = args[0], args[1]
                with lock:
                    self.mul_ops += X.rows * X.cols * Y.cols
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                thread = state["thread"]
                record((index, start, end, parent, sid, outer_start, clock(), thread))

        return traced

    def span_count(self) -> int:
        return len(self.spans) // FIELDS

    def _covered(self) -> dict:
        """Span id -> thread CPU seconds its children's outer intervals cover."""
        s = self.spans
        covered: dict = {}
        for k in range(0, len(s), FIELDS):
            parent = s[k + 3]
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (s[k + 6] - s[k + 5])
        return covered

    def summary(self) -> dict:
        """Per function name: calls, inclusive seconds and self seconds (the
        span's duration minus the time its child spans cover)."""
        s = self.spans
        covered = self._covered()
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(0, len(s), FIELDS):
            entry = out[self.names[int(s[k])]]
            dur = s[k + 2] - s[k + 1]
            entry["calls"] += 1
            entry["incl_s"] += dur
            entry["self_s"] += dur - covered.get(s[k + 4], 0.0)
        return out

    def self_s_by_thread(self) -> dict:
        """Thread index -> the self seconds of all its spans, summed."""
        s = self.spans
        covered = self._covered()
        out: dict = {}
        for k in range(0, len(s), FIELDS):
            thread = int(s[k + 7])
            out[thread] = out.get(thread, 0.0) + s[k + 2] - s[k + 1] - covered.get(s[k + 4], 0.0)
        return out

    def write(self, path) -> None:
        """All spans as gzipped TSV.  Times are CPU seconds of the span's own
        thread, so they compare only within one thread."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tid\touter_start_s\touter_end_s\tthread\n")
            for k in range(0, len(s), FIELDS):
                fh.write(
                    f"{self.names[int(s[k])]}\t{s[k + 1]:.7f}\t{s[k + 2]:.7f}\t{int(s[k + 3])}"
                    f"\t{int(s[k + 4])}\t{s[k + 5]:.7f}\t{s[k + 6]:.7f}\t{int(s[k + 7])}\n"
                )
