"""Span recorders wrapped around the public functions of the ``tropmass`` modules.

The library is not edited: `Tracer.install` replaces each public function of
each module, wherever it is bound (the module itself, every module that
imported it by name, and module-level dicts such as ``cli.SUITES``), with a
wrapper that times the call.  Spans are aggregated as they close, so memory
stays constant however many calls a workload makes:

* ``calls``  – number of completed calls;
* ``busy_s`` – inclusive time, counting a recursive call only once;
* ``self_s`` – inclusive time minus the time of the wrapped calls made
  directly inside it (the self time of the layer).

An optional annotator per span name turns ``(args, kwargs, result)`` into a
few counts (samples drawn, points tested, root failures) and an optional
``tag`` that splits the statistics by problem; only those numbers are kept.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable, Iterable, Mapping

Annotator = Callable[[tuple, dict, object], dict]


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add_counts(self, counts: Mapping[str, float]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0.0) + float(value)


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Aggregated spans of wrapped functions, one frame stack per thread."""

    def __init__(
        self,
        annotators: Mapping[str, Annotator] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.annotators = dict(annotators or {})
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, busy: float, self_s: float, counts: dict) -> None:
        tag = counts.pop("tag", None)
        keys = [name] if tag is None else [name, f"{name}.{tag}"]
        with self._lock:
            for key in keys:
                st = self.stats.setdefault(key, SpanStats())
                st.calls += 1
                st.busy_s += busy
                st.self_s += self_s
                st.add_counts(counts)

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = self.annotators.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame(name, self.clock())
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = self.clock() - frame.start
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                nested = any(f.name == name for f in stack)
                counts = dict(annotate(args, kwargs, result)) if ok and annotate else {}
                self._record(name, 0.0 if nested else dur, dur - frame.child_s, counts)

        return wrapper

    def install(self, modules: Iterable[ModuleType], package: str) -> None:
        """Wrap every public function defined in ``package`` wherever ``modules`` bind it."""
        modules = list(modules)
        wrappers: dict[int, Callable] = {}

        def wrapped(obj: object) -> Callable | None:
            if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                return None
            if not obj.__name__.isidentifier():  # lambdas
                return None
            if not obj.__module__.startswith(package + "."):
                return None
            if id(obj) not in wrappers:
                short = obj.__module__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = self.wrap(f"{short}.{obj.__name__}", obj)
            return wrappers[id(obj)]

        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                w = wrapped(value)
                if w is not None:
                    self._restore.append((namespace, key, value))
                    namespace[key] = w
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        w = wrapped(v)
                        if w is not None:
                            self._restore.append((value, k, v))
                            value[k] = w

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore.clear()
