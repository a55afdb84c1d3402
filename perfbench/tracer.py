"""Outside-in span tracer for the fk_saddle package.

The tracer never edits the library.  It replaces functions and methods with
thin wrappers from the outside and puts the originals back afterwards:

* ``trace_function(module, name)`` wraps ``module.name`` and re-binds every
  alias of that function object found in any loaded ``fk_saddle.*`` module
  (``refine_critical``, for example, is imported by name into ``periodic``,
  ``mpp`` and ``hetero``; ``rk4_step`` into ``mpp`` and ``verify``), so each
  call site reaches the wrapper whichever name it uses.
* ``trace_method(cls, name)`` wraps a method at class level (staticmethods
  included), so every instance, existing or new, goes through the wrapper.

Each call records one span ``[name, parent, t0, t1, note]`` in memory, where
``parent`` is the index of the enclosing span (-1 at the top) and ``note`` is
whatever the optional ``note(args, kwargs, result)`` hook extracts (a site
count, a convergence flag, ...).  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "fk_saddle"


class Tracer:
    """Records spans for the wrapped entry points; ``restore()`` undoes it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []       # (owner, attribute, original value)

    # -- recording ------------------------------------------------------------
    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        traced.__traced__ = True
        return traced

    def take(self):
        """Hand over the recorded spans and start an empty record; the
        wrappers stay installed."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        taken = list(self.spans)
        del self.spans[:]
        return taken

    # -- installation -----------------------------------------------------------
    def trace_function(self, module, name, note=None):
        """Wrap ``module.name`` and every alias of it across the package."""
        original = getattr(module, name)
        wrapper = self._wrap("%s.%s" % (_short(module), name), original, note)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def trace_method(self, cls, name, note=None):
        """Wrap ``cls.name`` at class level (plain or static method)."""
        original = cls.__dict__[name]
        span_name = "%s.%s" % (cls.__name__, name)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._wrap(span_name, original.__func__, note))
        else:
            wrapped = self._wrap(span_name, original, note)
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapped)

    def restore(self):
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def write_jsonl(spans, path):
    """Write spans one JSON object per line, times relative to the first."""
    t_ref = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        for idx, (name, parent, t0, t1, note) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "parent": parent, "name": name,
                                 "t0": t0 - t_ref, "t1": t1 - t_ref,
                                 "note": _jsonable(note)}) + "\n")


def leftover_wrappers():
    """Names in the package that are still tracer wrappers (should be none)."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "__traced__", False):
                found.append("%s.%s" % (mod.__name__, attr))
            elif isinstance(value, type):
                for meth, member in vars(value).items():
                    func = getattr(member, "__func__", member)
                    if getattr(func, "__traced__", False):
                        found.append("%s.%s.%s" % (mod.__name__, attr, meth))
    return sorted(set(found))


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _short(module):
    return module.__name__.rsplit(".", 1)[-1]


def _jsonable(note):
    if note is None or isinstance(note, (bool, int, float, str)):
        return note
    if isinstance(note, (tuple, list)):
        return [_jsonable(v) for v in note]
    return repr(note)
