"""Structured span tracing: timed, attributed, trace-stitched JSONL.

``with span("broker.lease", worker=name):`` times a unit of work and
emits one schema-versioned JSON line to the configured rotating sink
(:func:`configure` points it at the ``telemetry/`` directory beside
the cache). Spans nest through a thread-local stack: a span opened
inside another becomes its child (``parent``), and every span in one
logical operation shares a ``trace`` id.

Traces stitch **across processes**: the broker mints a trace id per
spec key at first lease, ships it in the lease reply, the worker
adopts it around execution with :func:`bind_trace`, and the broker's
publish span rejoins it — one spec's lease → execute → report →
publish lifecycle reads as a single trace from the merged span logs
of broker and worker hosts.

Emission is zero-cost when telemetry is disabled or no sink is
configured (the context manager short-circuits to a no-op), and the
sink itself swallows I/O errors — tracing never breaks the traced.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from repro.telemetry import metrics as _metrics
from repro.telemetry.sink import RotatingJsonlWriter, read_jsonl

#: span record schema version (bump on incompatible shape changes)
SPAN_SCHEMA = "repro-trace/1"

#: span log filename inside the telemetry directory
SPANS_NAME = "spans.jsonl"

_SINK: Optional[RotatingJsonlWriter] = None
_SINK_LOCK = threading.Lock()


def _reinit_lock_in_child() -> None:
    """See :func:`repro.telemetry.sink._reinit_locks_in_child`."""
    global _SINK_LOCK
    _SINK_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reinit_lock_in_child)

_STACK = threading.local()  # .frames: list of (trace_id, span_id)


def _frames() -> list:
    frames = getattr(_STACK, "frames", None)
    if frames is None:
        frames = _STACK.frames = []
    return frames


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def new_trace_id() -> str:
    """Mint a trace id (the broker does this per spec key)."""
    return _new_id()


def current_trace_id() -> Optional[str]:
    """The trace id of the innermost open span, if any."""
    frames = _frames()
    return frames[-1][0] if frames else None


def configure(
    directory, max_bytes: Optional[int] = None, backups: Optional[int] = None
) -> Path:
    """Point the process's span sink at ``directory`` (created lazily).

    Returns the directory path. Call with the ``telemetry/`` directory
    beside the result cache; forked workers inherit the setting via
    the ``REPRO_TELEMETRY_DIR`` environment variable this also sets.
    """
    global _SINK
    directory = Path(directory)
    kwargs: Dict[str, int] = {}
    if max_bytes is not None:
        kwargs["max_bytes"] = max_bytes
    if backups is not None:
        kwargs["backups"] = backups
    with _SINK_LOCK:
        _SINK = RotatingJsonlWriter(directory / SPANS_NAME, **kwargs)
    os.environ["REPRO_TELEMETRY_DIR"] = str(directory)
    return directory


def configured_dir() -> Optional[Path]:
    with _SINK_LOCK:
        return _SINK.path.parent if _SINK is not None else None


def shutdown() -> None:
    """Detach the span sink (tests; nothing is buffered)."""
    global _SINK
    with _SINK_LOCK:
        _SINK = None
    os.environ.pop("REPRO_TELEMETRY_DIR", None)


def _autoconfigure() -> Optional[RotatingJsonlWriter]:
    """Adopt ``REPRO_TELEMETRY_DIR`` in processes (pool / fleet
    workers) that inherited the environment but never called
    :func:`configure` themselves."""
    global _SINK
    directory = os.environ.get("REPRO_TELEMETRY_DIR")
    if not directory:
        return None
    with _SINK_LOCK:
        if _SINK is None:
            _SINK = RotatingJsonlWriter(Path(directory) / SPANS_NAME)
        return _SINK


def _sink() -> Optional[RotatingJsonlWriter]:
    sink = _SINK
    if sink is None:
        sink = _autoconfigure()
    return sink


@contextmanager
def bind_trace(
    trace_id: Optional[str], parent: Optional[str] = None
) -> Iterator[None]:
    """Adopt a wire-propagated trace id for the duration of the block.

    Spans opened inside become children of ``(trace_id, parent)`` —
    how a worker stitches its execute span onto the broker's lease
    trace. A ``None`` trace id binds nothing (open brokers on old
    protocol versions simply don't send one).
    """
    if not trace_id:
        yield
        return
    frames = _frames()
    frames.append((str(trace_id), parent or ""))
    try:
        yield
    finally:
        frames.pop()


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
    """Time a block, emit one span record on exit.

    Yields the mutable attribute dict so the block can attach results
    (``s["keys"] = len(granted)``). Attribute values must be
    JSON-serializable; keep them small — they ride every record.
    """
    if not _metrics.enabled():
        yield attrs
        return
    sink = _sink()
    if sink is None:
        yield attrs
        return
    frames = _frames()
    if frames:
        trace_id, parent = frames[-1][0], frames[-1][1]
    else:
        trace_id, parent = _new_id(), ""
    span_id = _new_id()
    frames.append((trace_id, span_id))
    started = time.time()
    clock = time.perf_counter()
    error: Optional[str] = None
    try:
        yield attrs
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        frames.pop()
        record = {
            "schema": SPAN_SCHEMA,
            "name": name,
            "ts": round(started, 6),
            "dur_ms": round(
                (time.perf_counter() - clock) * 1000.0, 3
            ),
            "trace": trace_id,
            "span": span_id,
            "parent": parent,
            "pid": os.getpid(),
        }
        if error is not None:
            record["error"] = error
        if attrs:
            record["attrs"] = {
                k: v for k, v in attrs.items() if v is not None
            }
        sink.write(record)


def read_spans(directory) -> Iterator[dict]:
    """Every span record under ``directory``'s rotated log, oldest
    first — the report pipeline's feed."""
    yield from read_jsonl(Path(directory) / SPANS_NAME)
