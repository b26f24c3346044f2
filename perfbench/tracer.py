"""Span tracing from outside the program.

The benchmark never edits edgeiso.  To see where a pass spends its
time it replaces public functions with timing wrappers for the length
of a traced pass and puts the originals back afterwards.  A function
bound by ``from .solver import iso_profile`` lives on in the importing
module's namespace too, so every ``edgeiso`` module attribute that *is*
the original object is swapped, not only the defining one.

Each wrapper keeps, per span name, the call count, the inclusive time
and the self time: inclusive time minus the time covered by wrapped
calls made inside it.  Spans nest through a stack of child-time
accumulators; only the calling thread is traced, which is enough
because edgeiso's worker threads run no wrapped function.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _edgeiso_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "edgeiso" or name.startswith("edgeiso."))]


class Patcher:
    """Swap an object for a replacement in every edgeiso namespace."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def swap_everywhere(self, original, replacement) -> int:
        swapped = 0
        for mod in _edgeiso_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    swapped += 1
        return swapped

    def swap_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """Aggregated spans and counters for wrapped edgeiso calls."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack = [0.0]  # child time accumulated by each open span
        self._specs: list[tuple] = []
        self._patcher = Patcher()

    def _wrap(self, name: str, fn, on_return=None):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - child
            if on_return is not None:
                on_return(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def function(self, module, attr: str, name: str, on_return=None) -> None:
        """Trace ``module.attr`` wherever edgeiso has bound it."""
        self._specs.append((False, module, attr, name, on_return))

    def method(self, cls, attr: str, name: str, on_return=None) -> None:
        """Trace a method (``__init__`` included) on its class."""
        self._specs.append((True, cls, attr, name, on_return))

    def __enter__(self) -> "Tracer":
        """Install every wrapper; counts keep accumulating across entries."""
        for is_method, owner, attr, name, on_return in self._specs:
            if is_method:
                original = owner.__dict__[attr]
                self._patcher.swap_attr(owner, attr, self._wrap(name, original, on_return))
                continue
            original = getattr(owner, attr)
            if not self._patcher.swap_everywhere(original, self._wrap(name, original, on_return)):
                raise RuntimeError(f"{owner.__name__}.{attr} is bound nowhere")
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()


class Capture:
    """Record what a function returns during a pass, without timing it."""

    def __init__(self, module, attr: str):
        self.results: list = []
        self._module, self._attr = module, attr
        self._patcher = Patcher()

    def __enter__(self) -> "Capture":
        original = getattr(self._module, self._attr)
        results = self.results

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        self._patcher.swap_everywhere(original, capture)
        return self

    def __exit__(self, *exc) -> None:
        self._patcher.restore()
