"""Spans recorded from the benchmark's own files, around calls into each layer.

:class:`Patcher` swaps a public entry point for a wrapper *where its caller
looks it up* (a class attribute, or a name imported into the caller's
module) and puts every original back afterwards.  :class:`SpanRecorder`
makes the wrappers: each call becomes a span ``[name, start, end, parent,
request id]`` kept in memory; the parent is the innermost open span of the
same thread, and the request id is inherited from it unless the wrapped
call names its own request.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .stats import self_time

#: A recorded span: ``[name, start, end, parent span or None, request id]``.
Span = list

_MISSING = object()


class Patcher:
    """Replace attributes temporarily; :meth:`restore` undoes every patch.

    An attribute a class only inherits is shadowed on that class and
    deleted again on restore, so the class ends exactly as it started.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, target: Any, attribute: str, make: Callable[[Any], Any]) -> None:
        """Set ``target.attribute`` to ``make(current value)``."""
        original = getattr(target, attribute)
        own = vars(target).get(attribute, _MISSING)
        setattr(target, attribute, make(original))
        self._saved.append((target, attribute, own))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._saved:
            target, attribute, own = self._saved.pop()
            if own is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


class SpanRecorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        *,
        name_of: Optional[Callable[[tuple], str]] = None,
        request_of: Optional[Callable[[tuple], Optional[str]]] = None,
        units_of: Optional[Callable[[Any], int]] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory recording one span per call of the wrapped function.

        ``name_of(args)`` refines the span name per call (e.g. per heuristic),
        ``request_of(args)`` names the request the call serves, and
        ``units_of(result)`` is added to the ``<name>.units`` counter.
        """

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack()
                parent = stack[-1] if stack else None
                request = request_of(args) if request_of is not None else None
                if request is None and parent is not None:
                    request = parent[4]
                span = [name_of(args) if name_of else name, 0.0, 0.0, parent, request]
                stack.append(span)
                span[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    stack.pop()
                    self.spans.append(span)
                if units_of is not None:
                    self.counts[f"{span[0]}.units"] += units_of(result)
                return result

            return wrapper

        return make

    def counter(self, name: str, *, amount_of: Optional[Callable[[Any], int]] = None) -> Callable:
        """Wrapper factory that only counts calls (or sums ``amount_of(result)``)."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                self.counts[name] += amount_of(result) if amount_of is not None else 1
                return result

            return wrapper

        return make

    # -- analysis -------------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        """Durations (s) of every span called ``name``."""
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def self_times(self) -> Dict[int, float]:
        """Self time (s) per span, keyed by ``id(span)``."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        return {
            id(span): self_time((span[1], span[2]), children.get(id(span), ()))
            for span in self.spans
        }

    def budget(self) -> List[Tuple[str, int, float, float]]:
        """``(layer, calls, total span s, total self s)`` per span name."""
        selfs = self.self_times()
        rows: Dict[str, List[float]] = {}
        for span in self.spans:
            row = rows.setdefault(span[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span[2] - span[1]
            row[2] += selfs[id(span)]
        return [(name, int(r[0]), r[1], r[2]) for name, r in sorted(rows.items())]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line ``[id, name, start, end, parent, request]``."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                parent = ids.get(id(span[3])) if span[3] is not None else None
                out.write(json.dumps([index, span[0], span[1], span[2], parent, span[4]]) + "\n")


def _request_id(args: tuple) -> Optional[str]:
    """Request id of a raw payload (``canonicalize_request``'s argument)."""
    payload = args[0] if args else None
    if isinstance(payload, dict) and isinstance(payload.get("id"), str):
        return payload["id"]
    return None


def _request_attr(args: tuple) -> Optional[str]:
    """Request id of a :class:`ScheduleRequest` argument."""
    return getattr(args[0], "request_id", None) if args else None


def decide_classes(heuristics: Sequence[str]) -> List[type]:
    """The classes that *define* ``decide`` for the given heuristics, deduplicated."""
    from repro.schedulers.base import create_scheduler

    owners: List[type] = []
    for name in heuristics:
        for klass in type(create_scheduler(name)).__mro__:
            if "decide" in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


def install(patcher: Patcher, recorder: SpanRecorder, heuristics: Iterable[str]) -> None:
    """Wrap every traced entry point of the service, executor, engine and schedulers."""
    import repro.service.async_server as async_server
    import repro.service.dispatcher as dispatcher
    import repro.service.executor as executor
    import repro.service.persistence as persistence
    from repro.core.engine import OnePortEngine
    from repro.core.events import EventQueue
    from repro.service.cache import LRUResultCache
    from repro.service.dispatcher import ScheduleService
    from repro.service.persistence import ShardPersistence

    span = recorder.span
    patcher.patch(async_server, "response_line", span("transport.serialize"))
    patcher.patch(ScheduleService, "serve_chunk", span("dispatcher.serve_chunk"))
    patcher.patch(ScheduleService, "pump", span("dispatcher.pump"))
    patcher.patch(dispatcher, "canonicalize_request", span("schema.canonicalize", request_of=_request_id))
    patcher.patch(LRUResultCache, "get", span("cache.get"))
    patcher.patch(LRUResultCache, "put", span("cache.put"))
    patcher.patch(LRUResultCache, "warm_load", span("cache.warm_load"))
    patcher.patch(ShardPersistence, "record", span("persistence.record"))
    patcher.patch(ShardPersistence, "compact", span("persistence.compact"))
    patcher.patch(persistence, "encode_record", recorder.counter("persistence.journal_bytes", amount_of=len))
    patcher.patch(dispatcher, "execute_request", span("executor.execute_request", request_of=_request_attr))
    patcher.patch(executor, "build_tasks", span("executor.build_tasks"))
    patcher.patch(executor, "simulate", span("kernel.simulate"))
    patcher.patch(executor, "evaluate", span("metrics.evaluate"))
    patcher.patch(OnePortEngine, "run", span("engine.run", units_of=len))
    patcher.patch(OnePortEngine, "view", span("engine.view"))
    patcher.patch(EventQueue, "push", recorder.counter("engine.events"))
    for klass in decide_classes(tuple(heuristics)):
        patcher.patch(
            klass, "decide",
            span("schedulers.decide", name_of=lambda args: f"schedulers.decide.{args[0].name}"),
        )
