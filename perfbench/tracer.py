"""Span timing from outside the library.

The benchmark never edits ``convret``. It replaces public functions with
timing wrappers for the length of a run: every ``convret`` module namespace
that binds the original function object (the defining module and every
module that imported the name) gets the wrapper, and everything is put back
afterwards. A span's self time is its duration minus the durations of the
wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager


class MissingSpanError(RuntimeError):
    """A function the benchmark times is gone or no longer on the path."""


def _convret_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "convret" or name.startswith("convret."))]


@contextmanager
def patched(wrappers: dict[str, object]):
    """Replace each ``"module.function"`` (relative to ``convret``) with
    ``wrappers[name](original)`` wherever a ``convret`` module binds it.

    Raises MissingSpanError when a name is not a public function of its
    module, so a rename shows as an error instead of as a zero time.
    """
    saved = []
    try:
        for name, make in wrappers.items():
            module_name, attr = name.rsplit(".", 1)
            if attr.startswith("_"):
                raise MissingSpanError(f"{name} is private; only public names are wrapped")
            module = importlib.import_module(f"convret.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                raise MissingSpanError(f"convret.{name} no longer exists")
            wrapper = make(original)
            for mod in _convret_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


def arg(args, kwargs, index: int, name: str):
    """Argument ``name`` whether it was passed by position or keyword."""
    return args[index] if len(args) > index else kwargs.get(name)


class Tracer:
    """In-memory span aggregation keyed by (phase, span name).

    A frame is ``[span name, seconds of wrapped children, note]``. ``hooks``
    maps a span name to ``hook(tracer, frame, parent_frame, args, kwargs)``,
    called before the wrapped function runs; it may set the frame's note
    for its children's hooks, and may return a callable that runs after the
    function returns. Hooks record counts with ``count``.
    """

    def __init__(self, spans: list[str], hooks: dict | None = None):
        self.spans = list(spans)
        self.hooks = hooks or {}
        self.phase = "setup"
        self.stack: list[list] = []  # open frames
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, total s, self s]
        self.counts: Counter = Counter()  # (phase, key) -> count
        self.covered: Counter = Counter()  # phase -> seconds under top-level spans

    def count(self, key: str, n: float = 1) -> None:
        self.counts[(self.phase, key)] += n

    def wrappers(self) -> dict[str, object]:
        return {name: (lambda fn, name=name: self._wrap(name, fn))
                for name in self.spans}

    def _wrap(self, name: str, fn):
        stack, clock, hook = self.stack, time.perf_counter, self.hooks.get(name)

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]
            after = hook(self, frame, parent, args, kwargs) if hook else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._close(name, frame, parent, dt)
                if after is not None:
                    after()

        return span

    def _close(self, name: str, frame: list, parent, dt: float) -> None:
        key = (self.phase, name)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - frame[1]
        if parent is None:
            self.covered[self.phase] += dt
        else:
            parent[1] += dt
            self.counts[(self.phase, f"{parent[0]}>{name}")] += 1

    def _sum(self, index: int, name: str, phases) -> float:
        return sum(s[index] for (p, n), s in self.stats.items()
                   if n == name and (phases is None or p in phases))

    def calls(self, name: str, phases=None) -> int:
        return self._sum(0, name, phases)

    def total(self, name: str, phases=None) -> float:
        return self._sum(1, name, phases)

    def self_time(self, name: str, phases=None) -> float:
        return self._sum(2, name, phases)

    def counted(self, key: str, phases=None) -> float:
        return sum(v for (p, k), v in self.counts.items()
                   if k == key and (phases is None or p in phases))

    def never_called(self) -> list[str]:
        return [name for name in self.spans if self.calls(name) == 0]
