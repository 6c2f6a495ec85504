"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each target function by a timing wrapper at
every ``moce`` module attribute that holds it, which is where its callers
look it up (``moce.model.layer_forward``, ``moce.experts.segment_mean_pool``
and so on), and each target method on its class. The program itself is not
edited. A target that no longer exists is listed in ``absent`` and its
metrics are left out instead of failing the run.

Every call becomes one span ``(name, start, end, parent)`` kept in memory.
Self time is a span's duration minus the durations of its direct children,
so nested layers are never counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_time: float = 0.0
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def tape_bytes(tape) -> int:
    """Bytes of the distinct array buffers the tape's nodes keep alive: node
    inputs and arrays or tensors captured by the vector-Jacobian closures."""
    seen: dict[int, int] = {}

    def add(value):
        if hasattr(value, "data") and isinstance(value.data, np.ndarray):
            value = value.data
        if not isinstance(value, np.ndarray):
            return
        while isinstance(value.base, np.ndarray):
            value = value.base
        seen[id(value)] = value.nbytes

    for node in tape.nodes:
        for tensor in node.inputs:
            add(tensor)
        for cell in getattr(node.vjp, "__closure__", None) or ():
            try:
                add(cell.cell_contents)
            except ValueError:  # empty cell
                pass
    return sum(seen.values())


@dataclass
class Tracer:
    """Span recorder; counters are attached to the span they describe."""

    spans: list[Span] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _paused: float = 0.0
    _restore: list = field(default_factory=list)

    def clock(self) -> float:
        """Wall clock minus the time spent in counters."""
        return time.perf_counter() - self._paused

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        """One span of the benchmark's own, around the ``with`` body."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, fn, name: str, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                t0 = time.perf_counter()
                try:
                    tracer.spans[index].counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, KeyError):
                    tracer.absent.add(f"{name}:counts")
                # counting is off the clock, so it shows up in no span
                tracer._paused += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        """Wrap every ``(span name, module, qualified name, counter)``."""
        import moce

        modules = [importlib.import_module(f"moce.{m.name}")
                   for m in pkgutil.iter_modules(moce.__path__)]
        for name, module_name, qualname, counter in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(original, name, counter)
            if path:  # a method: callers find it on the class
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading results ---------------------------------------------------

    def under(self, root: str) -> tuple[list[Span], list[Span]]:
        """(root spans named ``root``, every span nested below one)."""
        roots, inside, marked = [], [], set()
        for i, s in enumerate(self.spans):
            if s.name == root:
                roots.append(s)
                marked.add(i)
            elif s.parent in marked:
                inside.append(s)
                marked.add(i)
        return roots, inside

    @staticmethod
    def totals(spans) -> dict[str, float]:
        """Summed ``<name>.self_s`` and ``<name>.calls`` per span name, plus
        every counter as ``<name>.<counter>``."""
        out: dict[str, float] = {}
        for s in spans:
            for key, value in [("self_s", s.self_time), ("calls", 1),
                               *(s.counts or {}).items()]:
                out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        return out
