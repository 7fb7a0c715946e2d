"""Span recorder for the benchmark's traced runs.

The recorder wraps a layer's public functions at every ``gengap`` module
attribute that holds them, because that is where callers look them up:
``optim`` imports ``grad_gd_batch`` from ``instance_gd``, so both
``gengap.optim.grad_gd_batch`` and ``gengap.instance_gd.grad_gd_batch`` are
replaced.  Each call records a span (name, start, end, parent, attributes).
A layer's self time is its spans' durations minus the time their direct
child spans cover.  Nothing in the package itself changes, and
``uninstall`` puts every original function back.
"""

import contextlib
import functools
import sys
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one recorder per benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span around the benchmark's own code (layer ``bench``)."""
        span = self._open(name)
        span.attrs = attrs
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, attrs=None, prepare=None):
        """fn with a span per call.

        attrs(args, kwargs, result) returns the span's attributes; it runs
        after the span has closed.  prepare(recorder, args, kwargs) may
        replace the arguments before the call (used to wrap callbacks).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(self, args, kwargs)
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        """Patch each (module, attribute, span name, attrs, prepare) target."""
        for module_name, attr, name, attrs, prepare in targets:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, attrs, prepare)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "gengap" and not mod_name.startswith("gengap."):
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]
