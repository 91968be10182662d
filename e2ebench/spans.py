"""In-memory span tracing, installed from outside the program.

The benchmark wraps public functions of each layer of ``repro`` with a
timing wrapper.  Every call records one span: name, start, end, parent
span and request id.  Spans stay in memory and are analysed when the
run ends.  Nothing in ``src/`` knows about this module.

Parent links follow the caller: a context variable holds the current
span, asyncio tasks inherit it, and the tracer carries it into
``ThreadPoolExecutor`` workers (the server's work pool, the movers), so
work handed to a pool is a child of the call that handed it over.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Children may run in parallel on other threads;
their intervals are merged before they are subtracted.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Span", "Tracer", "SpanTree", "install_layer_hooks"]

# The clock every span uses.  On Linux it is CLOCK_MONOTONIC, shared by
# every process on the host, so a server's spans and its client's spans
# can be placed on one time line.
clock = time.perf_counter


@dataclass
class Span:
    """One timed call.  ``rid`` may be filled in after the span opened."""

    span_id: int
    name: str
    start: float
    parent: int | None
    rid: str | None = None
    end: float = 0.0

    def to_row(self) -> list[Any]:
        return [self.span_id, self.name, self.start, self.end, self.parent, self.rid]

    @classmethod
    def from_row(cls, row: list[Any], id_offset: int = 0) -> "Span":
        span_id, name, start, end, parent, rid = row
        return cls(
            span_id=span_id + id_offset,
            name=name,
            start=start,
            parent=None if parent is None else parent + id_offset,
            rid=rid,
            end=end,
        )


_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "e2ebench_current_span", default=None
)


class Tracer:
    """Records spans and installs/removes the function wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        # ``+=`` on a dict entry is not atomic across threads.
        self._counters_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # ----------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around a block; yields the :class:`Span`."""
        parent = _CURRENT.get()
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=clock(),
            parent=parent.span_id if parent is not None else None,
            rid=parent.rid if parent is not None else None,
        )
        token = _CURRENT.set(record)
        try:
            yield record
        finally:
            record.end = clock()
            _CURRENT.reset(token)
            self.spans.append(record)

    @staticmethod
    def current() -> Span | None:
        """The innermost open span of the calling task or thread."""
        return _CURRENT.get()

    @staticmethod
    def adopt(parent: Span | None, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` made to run as a child of ``parent`` on whatever thread."""

        def adopted() -> Any:
            token = _CURRENT.set(parent)
            try:
                return fn()
            finally:
                _CURRENT.reset(token)

        return adopted

    # -------------------------------------------------------------- wrappers
    def _count(self, count: Callable | None, args: tuple, result: Any) -> None:
        if count is not None:
            with self._counters_lock:
                count(self.counters, args, result)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[[dict[str, float], tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(counters, args, result)`` may add to :attr:`counters` so
        counts are taken at the same boundary as the time.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}: not a plain function")
        tracer = self
        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = await original(*args, **kwargs)
                tracer._count(count, args, result)
                return result

            wrapper: Any = async_wrapper
        else:

            @functools.wraps(original)
            def sync_wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    result = original(*args, **kwargs)
                tracer._count(count, args, result)
                return result

            wrapper = sync_wrapper
        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the original for :meth:`restore`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def propagate_into_threads(self) -> None:
        """Carry the current span into ``ThreadPoolExecutor`` work items."""
        original = ThreadPoolExecutor.submit

        def submit(pool: ThreadPoolExecutor, fn: Callable, /, *args: Any, **kwargs: Any):
            parent = _CURRENT.get()
            return original(pool, self.adopt(parent, lambda: fn(*args, **kwargs)))

        self.patch(ThreadPoolExecutor, "submit", submit)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _count_read(counters: dict[str, float], args: tuple, result: Any) -> None:
    counters["storage.read_calls"] += 1
    counters["storage.read_bytes"] += args[1].byte_size


def _count_write_layout(counters: dict[str, float], args: tuple, result: Any) -> None:
    counters["storage.write_files"] += len(result.partitions)


def _count_write_file(counters: dict[str, float], args: tuple, result: Any) -> None:
    counters["storage.write_files"] += 1


def _count_results(counters: dict[str, float], args: tuple, result: Any) -> None:
    results = result if isinstance(result, list) else [result]
    for item in results:
        counters["layouts.partitions_considered"] += item.partitions_total
        counters["layouts.partitions_skipped"] += (
            item.partitions_total - item.partitions_scanned
        )


# (module, attribute path, span name, counter).  Module-level functions
# are wrapped where their callers look them up: ``reorganize`` is
# imported by name into the engine module, ``parse_predicate`` into the
# server.
LAYER_HOOKS: tuple[tuple[str, str, str, Any], ...] = (
    ("repro.storage.partition_store", "PartitionStore.read_partition", "storage.read", _count_read),
    ("repro.storage.partition_store", "PartitionStore.write_partitions", "storage.write", _count_write_layout),
    ("repro.storage.partition_store", "PartitionStore.write_partition_file", "storage.write", _count_write_file),
    ("repro.storage.ingest", "IncrementalStore.ingest", "storage.ingest", None),
    ("repro.storage.ingest", "IncrementalStore.consolidate", "storage.reorg", None),
    ("repro.engine.engine", "reorganize", "storage.reorg", None),
    ("repro.engine.engine", "LayoutEngine.step", "storage.reorg", None),
    ("repro.storage.executor", "QueryExecutor.execute", "queries.filter", _count_results),
    ("repro.storage.executor", "QueryExecutor.execute_batch", "queries.filter", _count_results),
    ("repro.layouts.zonemaps", "ZoneMapIndex.relevant_partition_ids", "layouts.plan", None),
    ("repro.layouts.workload_compiler", "CompiledWorkload.prune_matrix", "layouts.plan", None),
    ("repro.server.app", "parse_predicate", "queries.parse", None),
    ("repro.engine.policies", "OreoPolicy.observe", "core.decide", None),
    ("repro.engine.engine", "LayoutEngine.query", "engine.facade", None),
    ("repro.engine.engine", "LayoutEngine.query_batch", "engine.facade", None),
    ("repro.engine.engine", "LayoutEngine.ingest", "engine.facade", None),
    ("repro.engine.engine", "LayoutEngine.reorganize", "engine.facade", None),
    ("repro.engine.factory", "StoreDir.append_batch", "engine.wal_append", None),
    ("repro.engine.factory", "StoreDir.open_engine", "engine.replay", None),
)


def install_layer_hooks(tracer: Tracer) -> None:
    """Wrap every function named in :data:`LAYER_HOOKS`.

    A hook whose target is missing raises: a renamed entry point must
    be renamed here too, not silently drop out of the breakdown.
    """
    tracer.propagate_into_threads()
    for module_name, path, name, count in LAYER_HOOKS:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name, count)


class SpanTree:
    """Spans indexed by parent, with self time per span."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                self.children[span.parent].append(span)

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the children's clipped intervals."""
        intervals = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in self.children.get(span.span_id, ())
        )
        covered = 0.0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return (span.end - span.start) - covered

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += self.self_time(span)
        return dict(totals)

    def duration_by_name(self) -> dict[str, float]:
        """Summed durations; a span nested in a same-named ancestor is
        skipped, so a step inside a reorganization is not counted twice."""
        by_id = {span.span_id: span for span in self.spans}
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if self._has_ancestor_named(span, span.name, by_id):
                continue
            totals[span.name] += span.end - span.start
        return dict(totals)

    @staticmethod
    def _has_ancestor_named(span: Span, name: str, by_id: dict[int, Span]) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return False

    def descendants(self, span: Span) -> list[Span]:
        found: list[Span] = []
        stack = list(self.children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            found.append(child)
            stack.extend(self.children.get(child.span_id, ()))
        return found
