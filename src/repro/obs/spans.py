"""Hierarchical spans: the pipeline's wall-clock and virtual-time ledger.

A span measures one named unit of work.  Spans nest: entering a span while
another is open makes it a child, so ``collect_dataset`` ends up with one
root span whose children are the seven §3 stages.  Each span records

- ``wall_seconds`` -- real elapsed time (``time.perf_counter``);
- ``start_epoch``/``end_epoch`` -- epoch timestamps (``time.time``) and
  ``start_mono``/``end_mono`` -- monotonic timestamps, so spans place on a
  real timeline (the Chrome/Perfetto exporter in
  :mod:`repro.obs.traceexport` consumes these);
- ``wait_seconds`` -- *virtual* rate-limiter time spent waiting inside the
  span (the crawl's simulated wall time, the quantity that made the paper
  sample at 10%);
- ``api_requests`` -- simulated API requests issued inside the span;
- ``error`` -- the exception type name when the span exited via an
  exception (``None`` on clean exit), so a failed stage is never sealed
  indistinguishably from a successful one;
- optional memory accounting (``peak_rss_bytes``, ``rss_delta_bytes``,
  ``tracemalloc_peak_bytes``, ``tracemalloc_delta_bytes``) filled in by
  :mod:`repro.obs.memory` when the owning tracer has an accountant.

The virtual quantities are read through snapshot callables supplied by the
owning registry, so the tracer itself has no dependency on any API layer.
Nothing here touches RNG state: instrumentation must never perturb the
simulation it observes (the event log and memory accountant only *read*
clocks and allocator statistics).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from types import TracebackType


class Span:
    """One timed unit of work in the trace tree."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "wall_seconds",
        "wait_seconds",
        "api_requests",
        "meta",
        "start_epoch",
        "end_epoch",
        "start_mono",
        "end_mono",
        "error",
        "peak_rss_bytes",
        "rss_delta_bytes",
        "tracemalloc_peak_bytes",
        "tracemalloc_delta_bytes",
    )

    def __init__(self, name: str, parent: "Span | None" = None) -> None:
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.wall_seconds = 0.0
        self.wait_seconds = 0.0
        self.api_requests = 0
        self.meta: dict[str, object] = {}
        self.start_epoch: float | None = None
        self.end_epoch: float | None = None
        self.start_mono: float | None = None
        self.end_mono: float | None = None
        self.error: str | None = None
        self.peak_rss_bytes: int | None = None
        self.rss_delta_bytes: int | None = None
        self.tracemalloc_peak_bytes: int | None = None
        self.tracemalloc_delta_bytes: int | None = None
        if parent is not None:
            parent.children.append(self)

    def annotate(self, **fields: object) -> None:
        """Attach arbitrary key/value detail (counts, sizes, outcomes)."""
        self.meta.update(fields)

    @property
    def depth(self) -> int:
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def memory_fields(self) -> dict:
        """The recorded memory-accounting fields (only those that are set)."""
        fields = {}
        for key in (
            "peak_rss_bytes",
            "rss_delta_bytes",
            "tracemalloc_peak_bytes",
            "tracemalloc_delta_bytes",
        ):
            value = getattr(self, key)
            if value is not None:
                fields[key] = value
        return fields

    def to_dict(self) -> dict:
        doc = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "wait_seconds": self.wait_seconds,
            "api_requests": self.api_requests,
            "start_epoch": self.start_epoch,
            "end_epoch": self.end_epoch,
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }
        if self.error is not None:
            doc["error"] = self.error
        doc.update(self.memory_fields())
        return doc


class _SpanContext:
    """Context manager that opens a span on enter and seals it on exit."""

    __slots__ = (
        "_tracer",
        "_span",
        "_wall0",
        "_wait0",
        "_requests0",
        "_memory0",
        "_profiler",
    )

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._span = Span(name, parent=tracer.current)
        self._wall0 = 0.0
        self._wait0 = 0.0
        self._requests0 = 0
        self._memory0: tuple | None = None
        self._profiler = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        if span.parent is None:
            tracer.roots.append(span)
        tracer._stack.append(span)
        self._wait0 = tracer._wait_total()
        self._requests0 = tracer._request_total()
        memory = tracer.memory
        if memory is not None:
            self._memory0 = memory.on_enter(span)
        if tracer.profile_targets and span.name in tracer.profile_targets:
            self._profiler = tracer._start_profiler()
        events = tracer.events
        span.start_epoch = time.time()
        self._wall0 = span.start_mono = time.perf_counter()
        if events is not None and events.enabled:
            events.span_open(span)
        return span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        span = self._span
        tracer = self._tracer
        if self._profiler is not None:
            tracer._finish_profiler(self._profiler, span)
        end = time.perf_counter()
        span.end_mono = end
        span.end_epoch = time.time()
        span.wall_seconds += end - self._wall0
        span.wait_seconds += tracer._wait_total() - self._wait0
        span.api_requests += tracer._request_total() - self._requests0
        if exc_type is not None:
            # seal the span as *failed*: the report, the JSON export and the
            # trace exporter all surface the annotation, so a crashed stage
            # can never masquerade as a fast successful one
            span.error = exc_type.__name__
            span.meta.setdefault("error", exc_type.__name__)
        memory = tracer.memory
        if memory is not None:
            memory.on_exit(span, self._memory0)
        tracer._stack.pop()
        events = tracer.events
        if events is not None and events.enabled:
            events.span_close(span)
        return False


class Tracer:
    """Builds the span tree for one instrumented run.

    ``events`` (an :class:`repro.obs.events.EventLog`) receives a
    structured event per span open/close; ``memory`` (a
    :class:`repro.obs.memory.MemoryAccountant`) fills the spans' memory
    fields; ``profile_targets`` maps span names to top-N table sizes for
    the opt-in cProfile harness (:mod:`repro.obs.profile`).  All three are
    optional and default to off.
    """

    def __init__(
        self,
        request_total: Callable[[], int] = lambda: 0,
        wait_total: Callable[[], float] = lambda: 0.0,
        events=None,
    ) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._request_total = request_total
        self._wait_total = wait_total
        self.events = events
        self.memory = None
        self.profile_targets: dict[str, int] = {}
        self._active_profiler = None

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str) -> _SpanContext:
        return _SpanContext(self, name)

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """The first span (depth first) with ``name``, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_list(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]

    def adopt(self, spans: list[Span]) -> None:
        """Graft finished span trees from another tracer into this one.

        The adopted roots become children of the currently open span (so a
        shard's spans land under the stage span being merged into), or new
        roots when nothing is open.  The spans are assumed sealed; their
        recorded timings *and timestamps* are kept as-is — a shard tracer
        reads the same clocks as the run's, so adopted shard spans stay
        correctly placed on the run's shared timeline.
        """
        parent = self.current
        for span in spans:
            span.parent = parent
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    # -- profiling hooks (see repro.obs.profile) ---------------------------

    def _start_profiler(self):
        """Start a cProfile profiler for the opening span, if possible.

        cProfile does not allow nested active profilers, so an inner target
        span is silently skipped while an outer one is being profiled.
        """
        if self._active_profiler is not None:
            return None
        import cProfile

        profiler = cProfile.Profile()
        self._active_profiler = profiler
        profiler.enable()
        return profiler

    def _finish_profiler(self, profiler, span: Span) -> None:
        profiler.disable()
        self._active_profiler = None
        from repro.obs.profile import attach_profile

        attach_profile(span, profiler, top=self.profile_targets.get(span.name, 20))


class NullSpan:
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def annotate(self, **fields: object) -> None:
        pass


NULL_SPAN = NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SPAN_CONTEXT = _NullSpanContext()
