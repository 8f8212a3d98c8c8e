"""Span tracer for the benchmark's traced runs.

Only a ``--trace 1`` run installs wrappers; untraced runs use
:data:`NULL_TRACER`, whose spans cost one function call and record
nothing.  Nothing under ``src/`` is instrumented: :func:`install_layer_wrappers`
patches public functions and methods of each layer from here, and
:meth:`Tracer.uninstall` puts the originals back.

A span records its name, layer, start, end, parent span and the id of
the operation it belongs to (the root span the benchmark opened for one
link, relink, round or query).  Parents are tracked per asyncio task and
thread through a context variable; work handed to another thread (the
serving layer's relink worker) attaches to the operation the benchmark
marked as current.

A layer's *self time* is its spans' duration minus the part of each
span's interval its child spans cover (the union of the children, so
overlapping children are not subtracted twice).  Root spans belong to the
``unattributed`` layer, so the layers' self times plus the unattributed
remainder add up to the operations' end-to-end time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
# repro-lint: timing-module -- the tracer timestamps spans
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "UNATTRIBUTED",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "covered_length",
    "install_layer_wrappers",
]

#: Layer of the benchmark's operation root spans.
UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    op: int
    parent: Optional[int]
    tid: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class NullTracer:
    """The untraced run's tracer: spans are free and record nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, layer: str, cross_thread: bool = False) -> Iterator[None]:
        yield None

    @contextmanager
    def op(self, name: str, cross_thread: bool = False) -> Iterator[None]:
        yield None


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans in memory; written out when the run ends."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        #: Root span that spans on threads without a parent attach to.
        self.cross_thread_op: Optional[Span] = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self, name: str, layer: str, root: bool) -> Span:
        parent = None if root else (self._current.get() or self.cross_thread_op)
        with self._lock:
            sid = next(self._ids)
        return Span(
            sid=sid,
            name=name,
            layer=layer,
            op=sid if parent is None else parent.op,
            parent=None if parent is None else parent.sid,
            tid=threading.get_ident(),
            start=time.perf_counter(),
        )

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, layer: str, cross_thread: bool = False) -> Iterator[Span]:
        """A child span of the current one (or of the cross-thread span).

        ``cross_thread`` makes it, while open, the parent of spans opened
        on threads that have no span of their own — work this call waits
        for on another thread nests under it.
        """
        yield from self._scoped(self._open(name, layer, root=False), cross_thread)

    @contextmanager
    def op(self, name: str, cross_thread: bool = False) -> Iterator[Span]:
        """A root span for one benchmark operation (layer
        ``unattributed``); ``cross_thread`` as for :meth:`span`."""
        yield from self._scoped(self._open(name, UNATTRIBUTED, root=True), cross_thread)

    def _scoped(self, span: Span, cross_thread: bool) -> Iterator[Span]:
        token = self._current.set(span)
        previous = self.cross_thread_op
        if cross_thread:
            self.cross_thread_op = span
        try:
            yield span
        finally:
            self.cross_thread_op = previous
            self._current.reset(token)
            self._close(span)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(args, result)`` runs once the call returns, inside a
        ``trace`` layer span so its cost is accounted, not hidden.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind is not None else raw
        label = name or f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"

        def finish(args: tuple, result: object) -> None:
            if after is not None:
                with self.span(f"{label}:count", "trace"):
                    after(args, result)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(label, layer):
                result = function(*args, **kwargs)
            finish(args, result)
            return result

        self.patch(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def roots(self, name: Optional[str] = None) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.parent is None and (name is None or span.name == name)
        ]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in self.spans:
            cover = [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.sid, ())
                if child.end > span.start and child.start < span.end
            ]
            result[span.sid] = span.duration - covered_length(cover)
        return result

    def layer_self_times(self, op_name: str) -> Dict[str, float]:
        """Summed self time per layer over the operations named ``op_name``."""
        ops = {span.sid for span in self.roots(op_name)}
        own = self.self_times()
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.op in ops:
                totals[span.layer] += own[span.sid]
        return dict(totals)

    def total(self, name: str, op_name: Optional[str] = None) -> float:
        """Summed duration of spans called ``name`` (within ``op_name``
        operations when given)."""
        ops = None if op_name is None else {s.sid for s in self.roots(op_name)}
        return sum(
            span.duration
            for span in self.spans
            if span.name == name and (ops is None or span.op in ops)
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Chrome ``trace_event`` JSON (opens in Perfetto / chrome://tracing)."""
        origin = min((span.start for span in self.spans), default=0.0)
        pid = os.getpid()
        threads = sorted({span.tid for span in self.spans})
        events: List[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"thread-{index}"},
            }
            for index, tid in enumerate(threads)
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": span.tid,
                    "args": {"op": span.op, "span": span.sid, "parent": span.parent},
                }
            )
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))

    def self_time_table(self, op_name: str) -> str:
        """Per-layer self time over the ``op_name`` operations."""
        ops = len(self.roots(op_name))
        totals = self.layer_self_times(op_name)
        end_to_end = sum(span.duration for span in self.roots(op_name))
        lines = [
            f"self time over {ops} {op_name} operations "
            f"({end_to_end:.6f} s end to end)",
            f"{'layer':<22} {'self_s':>12} {'per_op_s':>12} {'share':>7}",
        ]
        for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            share = seconds / end_to_end if end_to_end else 0.0
            lines.append(
                f"{layer:<22} {seconds:>12.6f} {seconds / max(ops, 1):>12.6f} "
                f"{share:>7.1%}"
            )
        lines.append(
            f"{'sum':<22} {sum(totals.values()):>12.6f}"
        )
        return "\n".join(lines)


def install_layer_wrappers(
    tracer: Tracer, on_report: Callable, on_relink: Callable, on_kernel: Callable
) -> None:
    """Wrap the public entry points of every layer the workloads reach.

    ``on_report(context, report)`` sees each finished pipeline run (batch
    link or streaming relink), ``on_relink(report)`` each finished
    streaming relink, ``on_kernel(pairs)`` each kernel dispatch.
    ``build_signature`` is wrapped where it is looked up: both
    :mod:`repro.lsh.index` and :mod:`repro.core.streaming` import it by
    name.
    """
    import repro.core.kernels as kernels
    import repro.core.streaming as streaming
    import repro.lsh.index as lsh_index
    import repro.pipeline.stages as stages
    from repro.core.corpus import HistoryCorpus
    from repro.core.score_cache import ScoreCache
    from repro.pipeline.runner import LinkagePipeline
    from repro.store.chunks import ChunkLRU

    original_execute = vars(LinkagePipeline)["execute"]

    @functools.wraps(original_execute)
    def execute(self, context):
        # Stage objects are wrapped per call: the streaming linker builds
        # its own stage list (with a private candidate stage) every relink.
        wrapped = []
        for stage in self.stages:
            run = stage.run
            stage.run = _stage_span(tracer, stage.name, run)
            wrapped.append(stage)
        try:
            with tracer.span("LinkagePipeline.execute", "pipeline"):
                report = original_execute(self, context)
        finally:
            for stage in wrapped:
                del stage.run
        with tracer.span("LinkagePipeline.execute:count", "trace"):
            on_report(context, report)
        return report

    tracer.patch(LinkagePipeline, "execute", execute)

    tracer.wrap(stages, "build_histories", "core.history")
    tracer.wrap(HistoryCorpus, "__init__", "core.corpus", "HistoryCorpus.build")
    tracer.wrap(HistoryCorpus, "refresh", "core.corpus")
    tracer.wrap(HistoryCorpus, "spill", "store")
    tracer.wrap(ChunkLRU, "chunk", "store")
    for attr in ("add_histories", "add", "remove", "update_spec", "candidate_pairs"):
        tracer.wrap(lsh_index.LshIndex, attr, "lsh")
    for module in (lsh_index, streaming):
        tracer.wrap(module, "build_signature", "lsh", "build_signature")
    tracer.wrap(
        kernels, "score_pairs_batch", "core.kernels", "score_pairs_batch",
        after=lambda args, result: on_kernel(args[2]),
    )
    tracer.wrap(kernels, "greedy_select_batch", "core.kernels", "greedy_select_batch")
    for attr in ("lookup_batch", "store_batch", "invalidate_pairs", "checkpoint"):
        tracer.wrap(ScoreCache, attr, "core.score_cache")
    tracer.wrap(streaming.StreamingLinker, "observe", "core.streaming")
    tracer.wrap(
        streaming.StreamingLinker, "relink", "core.streaming",
        after=lambda args, result: on_relink(result),
    )
    for attr in ("save", "restore"):
        tracer.wrap(streaming.StreamingLinker, attr, "store.snapshot")


def _stage_span(tracer: Tracer, name: str, run: Callable) -> Callable:
    def traced(context):
        with tracer.span(f"stage.{name}", f"stage.{name}"):
            return run(context)

    return traced
