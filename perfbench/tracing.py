"""Span tracing for the per-layer run, from outside the program.

The program is not edited: :class:`Tracer` replaces each entry point
with a timing wrapper by rebinding module and class attributes for the
length of a traced block. A function imported by value (``from m import
f``) is bound in every importing module, so the wrapper is installed in
every loaded module that holds the original object — where the name is
looked up, not only where it is defined. An entry point that still
records no calls on a workload that must use it raises
:class:`MissedEntryPoints`, because a missed wrapper would otherwise
report its layer as free.

Spans carry name, start, end, parent and request id and stay in memory
until the run ends. Parents are tracked per thread; the request id is
shared, which is sound because one closed-loop client has at most one
request in flight.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

__all__ = [
    "EntryPoint",
    "IndexProbe",
    "MissedEntryPoints",
    "Span",
    "Tracer",
    "self_times",
]


class MissedEntryPoints(RuntimeError):
    """Entry points a workload must use recorded no calls."""


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``target`` is ``module:function`` or
    ``module:Class.method``; its spans are named ``layer``.

    ``timed=False`` only counts calls (for hot, tiny calls such as
    ``Recorder.span``). ``on_result`` sees each return value."""

    target: str
    layer: str
    timed: bool = True
    on_result: Optional[Callable] = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children
    cover (children of one parent may overlap; their union counts once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start = max(child.start, reach, span.start)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.duration - covered)
    return result


@dataclass
class _Patch:
    owner: object
    name: str
    original: object


@dataclass
class Tracer:
    """Records spans around every installed entry point."""

    entry_points: tuple[EntryPoint, ...]
    spans: list = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    request: Optional[int] = None
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _patches: list = field(default_factory=list)

    # -- spans --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            request=self.request,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    # -- wrapping -----------------------------------------------------

    def _wrap(self, entry: EntryPoint, function: Callable) -> Callable:
        target = entry.target
        if not entry.timed:

            @functools.wraps(function)
            def counted(*args, **kwargs):
                self.calls[target] += 1
                return function(*args, **kwargs)

            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.calls[target] += 1
            index = self.open(entry.layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if entry.on_result is not None:
                entry.on_result(result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._patches.append(_Patch(owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point (idempotent while installed)."""
        if self._patches:
            return
        for entry in self.entry_points:
            module_name, _, qualname = entry.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(entry, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(entry, raw.__func__))
                else:
                    wrapped = self._wrap(entry, raw)
                self._set(owner, method, wrapped)
                continue
            original = getattr(module, qualname)
            wrapped = self._wrap(entry, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace:
                    continue
                for name, value in list(namespace.items()):
                    if value is original:
                        self._set(loaded, name, wrapped)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` rebound."""
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.name, patch.original)
        self._patches.clear()

    # -- reading ------------------------------------------------------

    def require(self, targets: Iterable[str]) -> None:
        """Raise :class:`MissedEntryPoints` naming every target in
        ``targets`` that recorded no call."""
        missed = [target for target in targets if not self.calls[target]]
        if missed:
            raise MissedEntryPoints(
                "traced entry points recorded zero calls on a workload that "
                "must use them: " + ", ".join(missed)
            )

    def layer_seconds(self, layer: str) -> float:
        """Wall time inside ``layer``: the sum of its spans that have no
        ancestor in the same layer, so re-entry is not counted twice."""
        total = 0.0
        for span in self.spans:
            if span.name == layer and not self._inside(span, layer):
                total += span.duration
        return total

    def layer_calls(self, layer: str) -> int:
        """Outermost calls into ``layer`` (see :meth:`layer_seconds`)."""
        return sum(
            1
            for span in self.spans
            if span.name == layer and not self._inside(span, layer)
        )

    def _inside(self, span: Span, layer: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == layer:
                return True
            parent = ancestor.parent
        return False

    def self_seconds_by_layer(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self_times(self.spans)):
            totals[span.name] += seconds
        return dict(totals)


class IndexProbe:
    """Sums :meth:`CommunicationIndex.stats` deltas over every index
    alive during a request, including indices created and dropped
    inside it (held until :meth:`end` so their counts are not lost)."""

    def __init__(self) -> None:
        self._live: "weakref.WeakSet" = weakref.WeakSet()
        self._fresh: list = []
        self._active = False
        self._before: dict[int, tuple] = {}
        self.hits = self.misses = self.invalidations = 0
        self.build_seconds = 0.0
        self._original_init = None

    @staticmethod
    def _counts(index) -> tuple:
        stats = index.stats()
        return (stats.hits, stats.misses, stats.invalidations, stats.build_seconds)

    def install(self) -> None:
        from repro.adl.index import CommunicationIndex

        if self._original_init is not None:
            return
        original = self._original_init = CommunicationIndex.__dict__["__init__"]
        probe = self

        @functools.wraps(original)
        def init(index, *args, **kwargs):
            original(index, *args, **kwargs)
            probe._live.add(index)
            if probe._active:
                probe._fresh.append(index)

        CommunicationIndex.__init__ = init

    def uninstall(self) -> None:
        from repro.adl.index import CommunicationIndex

        if self._original_init is not None:
            CommunicationIndex.__init__ = self._original_init
            self._original_init = None

    def begin(self) -> None:
        self._fresh = []
        self._active = True
        self._before = {id(index): self._counts(index) for index in self._live}

    def end(self) -> None:
        fresh = {id(index) for index in self._fresh}
        seen = {id(index): index for index in (*self._live, *self._fresh)}
        for key, index in seen.items():
            after = self._counts(index)
            before = (
                (0, 0, 0, 0.0)
                if key in fresh
                else self._before.get(key, (0, 0, 0, 0.0))
            )
            self.hits += after[0] - before[0]
            self.misses += after[1] - before[1]
            self.invalidations += after[2] - before[2]
            self.build_seconds += after[3] - before[3]
        self._fresh = []
        self._active = False

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0
