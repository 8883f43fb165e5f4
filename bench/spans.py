"""Span recording from outside the program.

The cubebound modules call each other's functions through module globals
(``bounds`` calls ``exp_integral``, ``aggregate`` calls ``ln_add``), so
replacing a function object everywhere it is bound swaps in a recording
wrapper that also sees the internal calls. Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, parent, start, end]`` rows and
summarised when the traced run ends. A span's self time is its duration
minus the durations of its direct children; the wrappers nest strictly
(one thread), so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

_now = time.perf_counter


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, _now(), 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][3] = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (open: {popped})")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        on_call: Callable[[tuple, dict, object], None] | None = None,
    ) -> Callable:
        """A wrapper recording one span per call (one per resume for a
        generator function). ``name`` may be computed from the arguments;
        ``on_call(args, kwargs, result)`` runs after each completed call."""
        label = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span_name = label(args, kwargs)
                gen = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, gen)
                try:
                    while True:
                        idx = tracer.enter(span_name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit(idx)
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.enter(label(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn: Callable, key: str) -> Callable:
        """A wrapper that only counts calls (for kernels called ~1e6 times)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the
        spans ``first:stop`` (a span and all its descendants are contiguous)."""
        spans = self.spans[first:stop]
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, parent, start, end) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


def _package_modules(package: str) -> list:
    return [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]


@contextmanager
def patched(package: str, replacements: dict[int, Callable]) -> Iterator[None]:
    """Rebind every attribute of the package's modules whose value is one of
    the original functions (keyed by ``id``) to its wrapper; undo on exit."""
    undo = []
    try:
        for module in _package_modules(package):
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)
