"""Span recording around the program's public entry points.

The traced run wraps the functions the program actually calls, as
module and class attributes, so every call made through them records a
span: name, start, end, parent span and the cache key of the spec it
serves. Spans stay in memory; :func:`layer_metrics` turns them into
the per-layer numbers once the run ends. Nothing here changes what the
program computes: the wrappers call the original and return its
result, except ``interleave``, which the wrapper drains into a list
so that interleaving is timed on its own instead of inside whatever
consumes the stream (the stream is a pure function of its inputs, and
the benchmark checks that traced and untraced reports are identical).

An entry point that no longer exists is reported as missing: its
metrics print as ``null``, never as 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, metric prefixes it feeds)
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.runner.runner", "execute_spec", "runner.execute", ("runner.",)),
    ("repro.runner.runner", "cached_build", "trace_cache.cached_build",
     ("trace_cache.",)),
    ("repro.workloads.base", "Workload.build", "workloads.build",
     ("workloads.",)),
    ("repro.workloads.trace_cache", "TraceCache.get", "trace_cache.get",
     ("trace_cache.",)),
    ("repro.workloads.trace_cache", "TraceCache.put", "trace_cache.put",
     ("trace_cache.",)),
    ("repro.sim.functional", "interleave", "trace.interleave", ("trace.",)),
    ("repro.runner.runner", "interleave", "trace.interleave", ("trace.",)),
    ("repro.sim.functional", "AccuracySimulator.run_stream",
     "sim.run_stream", ("sim.", "protocol.", "core.")),
    ("repro.timing.engine", "TimingSimulator.run", "timing.run",
     ("timing.",)),
    ("repro.timing.engine_fast", "FastTimingSimulator.run", "timing.run",
     ("timing.",)),
    ("repro.runner.cache", "ResultCache.get", "cache.get", ("cache.",)),
    ("repro.runner.cache", "ResultCache.put", "cache.put", ("cache.",)),
    ("repro.store.index", "ResultIndex.record", "store.index_record",
     ("store.",)),
    ("repro.runner.remote", "GridClient.submit", "remote.submit",
     ("remote.",)),
    ("repro.runner.remote", "GridClient.stream", "remote.wait",
     ("remote.",)),
)


#: the timing cores' per-kind event counters (``repro profile`` order)
EVENT_KINDS = (
    "run_node", "si_fire", "dir_arrive", "dir_dequeue", "dir_complete",
    "reply", "invalidate", "fetch_inval", "fetch_downgrade", "forward",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "key", "thread", "data")

    def __init__(self, name, start, parent, key, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key
        self.thread = thread
        self.data: Dict[str, Any] = {}


class Recorder:
    """In-memory span store with one parent stack per thread.

    ``key_of(spec)`` gives the id spans of one spec share; the harness
    sets it to the run's ``ResultCache.key``.
    """

    def __init__(self, key_of: Callable[[Any], str] = str) -> None:
        self.spans: List[Span] = []
        self.key_of = key_of
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, key: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent.key
        span = Span(
            name, time.perf_counter(), parent, key, threading.get_ident()
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> Span:
        span.end = time.perf_counter()
        self._stack().pop()
        return span


# -- per-entry-point wrappers ------------------------------------------

def _timed(rec: Recorder, name: str, fn, key=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.enter(name, key(args) if key else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if after is not None:
            after(span, args, result)
        return result

    return wrapper


def _eager_interleave(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(programs, *args, **kwargs):
        span = rec.enter(name)
        try:
            events = list(fn(programs, *args, **kwargs))
        finally:
            rec.exit(span)
        quantum = kwargs.get("quantum", args[0] if args else 1)
        span.data["events"] = len(events)
        span.data["stream"] = (id(programs), quantum)
        return iter(events)

    return wrapper


def _timed_stream(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        results = fn(*args, **kwargs)
        while True:
            span = rec.enter(name)
            try:
                item = next(results)
            except StopIteration:
                return
            finally:
                rec.exit(span)
            yield item

    return wrapper


def _file_size(path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _after_trace_get(span, args, result):
    span.data["hit"] = bool(result[0])
    if result[0]:
        cache, workload = args[0], args[1]
        span.data["bytes"] = _file_size(cache.path(workload))


def _after_put(span, args, path):
    span.data["bytes"] = _file_size(path)


def _after_cache_get(span, args, result):
    span.data["hit"] = bool(result[0])


def _after_run_stream(span, args, report):
    span.data.update(
        accesses=report.accesses,
        coherence_misses=report.coherence_misses,
        invalidations=report.predicted + report.not_predicted,
        self_invalidations=report.self_invalidations,
    )


def _after_engine_run(span, args, report):
    span.data["events"] = dict(getattr(args[0], "event_counts", {}))


def _make_wrapper(rec: Recorder, span_name: str, fn):
    if span_name == "trace.interleave":
        return _eager_interleave(rec, span_name, fn)
    if span_name == "remote.wait":
        return _timed_stream(rec, span_name, fn)
    if span_name == "runner.execute":
        return _timed(rec, span_name, fn, key=lambda a: rec.key_of(a[0]))
    if span_name in ("cache.get", "cache.put"):
        after = _after_cache_get if span_name == "cache.get" else _after_put
        return _timed(
            rec, span_name, fn, key=lambda a: a[0].key(a[1]), after=after
        )
    after = {
        "trace_cache.get": _after_trace_get,
        "trace_cache.put": _after_put,
        "sim.run_stream": _after_run_stream,
        "timing.run": _after_engine_run,
    }.get(span_name)
    return _timed(rec, span_name, fn, after=after)


class Shims:
    """Installs the wrappers; :meth:`remove` restores the originals."""

    def __init__(self, rec: Recorder) -> None:
        self.missing: List[Tuple[str, Tuple[str, ...]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        for module_name, path, span_name, prefixes in ENTRY_POINTS:
            owner, attr = self._resolve(module_name, path)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.missing.append((f"{module_name}.{path}", prefixes))
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _make_wrapper(rec, span_name, original))

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
            if owner is None:
                return None, None
        return owner, attr

    def missing_prefixes(self) -> Tuple[str, ...]:
        return tuple(p for _, prefixes in self.missing for p in prefixes)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- aggregation -------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] += span.end - span.start
    return {
        id(span): span.end - span.start - child[id(span)] for span in spans
    }


def layer_metrics(
    spans: List[Span], window: Tuple[float, float], main_thread: int
) -> Dict[str, float]:
    """Per-layer sums over every recorded span, plus the share of the
    measured ``window`` that root spans on the blocking (main) thread
    cover."""
    own = self_times(spans)
    total = defaultdict(float)
    selft = defaultdict(float)
    calls = defaultdict(int)
    data = defaultdict(float)
    events = defaultdict(int)
    streams = set()
    hits = defaultdict(int)
    for span in spans:
        total[span.name] += span.end - span.start
        selft[span.name] += own[id(span)]
        calls[span.name] += 1
        for field, value in span.data.items():
            if field == "events" and isinstance(value, dict):
                for kind, count in value.items():
                    events[kind] += count
            elif field == "stream":
                streams.add(value)
            elif field == "hit":
                hits[span.name] += value
            else:
                data[f"{span.name}.{field}"] += value
    start, end = window
    blocking = sum(
        span.end - span.start
        for span in spans
        if span.parent is None and span.thread == main_thread
        and span.start >= start and span.end <= end
    )
    timing_events = sum(events.values())
    executed = total["runner.execute"]
    out = {
        "workloads.build_s": total["workloads.build"],
        "workloads.builds": calls["workloads.build"],
        "trace_cache.get_s": total["trace_cache.get"],
        "trace_cache.put_s": total["trace_cache.put"],
        "trace_cache.bytes": (
            data["trace_cache.get.bytes"] + data["trace_cache.put.bytes"]
        ),
        "trace.interleave_s": total["trace.interleave"],
        "trace.interleaves": calls["trace.interleave"],
        "trace.events": data["trace.interleave.events"],
        "trace.interleaves_per_stream": (
            calls["trace.interleave"] / len(streams) if streams else 0.0
        ),
        "sim.run_stream_s": selft["sim.run_stream"],
        "sim.accesses": data["sim.run_stream.accesses"],
        "protocol.coherence_misses": data["sim.run_stream.coherence_misses"],
        "protocol.invalidations": data["sim.run_stream.invalidations"],
        "core.self_invalidations": data["sim.run_stream.self_invalidations"],
        "timing.run_s": selft["timing.run"],
        "timing.events": timing_events,
        "timing.events_per_s": (
            timing_events / selft["timing.run"] if selft["timing.run"] else 0.0
        ),
        "runner.execute_s": executed,
        # wall time of the measured phase spent neither executing nor
        # publishing (inline workloads; the serve client runs neither)
        "runner.overhead_s": (
            end - start - executed - total["cache.put"] if executed else 0.0
        ),
        "cache.put_s": selft["cache.put"],
        "cache.put_bytes": data["cache.put.bytes"],
        "store.index_record_s": total["store.index_record"],
        "store.index_rows": calls["store.index_record"],
        "cache.get_s": total["cache.get"],
        "cache.hit_ratio": (
            hits["cache.get"] / calls["cache.get"] if calls["cache.get"]
            else 0.0
        ),
        "remote.submit_s": total["remote.submit"],
        "remote.wait_s": total["remote.wait"],
        "tracing.wall_s": end - start,
        "tracing.blocking_covered_frac": (
            blocking / (end - start) if end > start else 0.0
        ),
    }
    for kind in EVENT_KINDS:
        out[f"timing.events.{kind}"] = events[kind]
    return out
