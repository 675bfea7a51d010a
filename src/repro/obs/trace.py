"""Span-based tracing with a zero-cost disabled path.

A :class:`Tracer` records :class:`SpanRecord`\\ s — named intervals with
parent/child links, a wall-time (or sim-time) duration from a pluggable
clock, and an optional **batch-id correlation field** so one ingest
batch can be followed proxy → TSD → HTable → RegionServer → ack across
components that never share a call stack.

Spans are event-driven, the one call shape in this codebase:
``sp = tracer.begin("proxy.batch", batch_id=7)`` … ``sp.end()``, where
start and end live in different simulator callbacks.  Parents are
passed explicitly.

Disabled (the default), ``begin()`` returns the shared
:data:`NULL_SPAN` singleton whose methods are no-ops — the same
zero-cost-when-off discipline as
:func:`repro.analysis.raceaudit.audited_lock`: call sites pay one
attribute check and nothing else.  ``benchmarks/bench_obs_overhead.py``
holds the enabled path under 5% of ingest wall time and the disabled
path at the noise floor.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

__all__ = ["NULL_SPAN", "NullSpan", "Span", "SpanRecord", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, immutable for export/analysis."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    batch_id: Optional[int]
    fields: Tuple[Tuple[str, object], ...]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def field_dict(self) -> Dict[str, object]:
        return dict(self.fields)

    def mentions_batch(self, batch_id: int) -> bool:
        """Is this span part of ``batch_id``'s trace?

        True when the span carries the batch id directly, or lists it in
        a ``batch_ids`` field (coalesced HBase flushes serve cells from
        several inbound batches at once).
        """
        if self.batch_id == batch_id:
            return True
        ids = self.field_dict().get("batch_ids")
        return isinstance(ids, (tuple, list)) and batch_id in ids


class NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    #: Mirrors ``Span.span_id`` so parent= wiring type-checks either way.
    span_id: Optional[int] = None

    def end(self, **fields: object) -> None:
        return None


#: The one NullSpan instance — identity-comparable, never allocated per call.
NULL_SPAN = NullSpan()


class Span:
    """A live (unfinished) span; finish with ``end()``."""

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "name",
        "batch_id",
        "start",
        "end_time",
        "fields",
        "_done",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        batch_id: Optional[int],
        start: float,
        fields: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.batch_id = batch_id
        self.start = start
        self.end_time = start
        self.fields = fields
        self._done = False

    def end(self, **fields: object) -> None:
        """Finish the span; idempotent (late duplicate ends are ignored)."""
        if self._done:
            return
        self._done = True
        if fields:
            self.fields.update(fields)
        self._tracer._finish(self)

SpanLike = Union[Span, NullSpan]


class Tracer:
    """Records spans against a pluggable clock.

    Parameters
    ----------
    enabled:
        Off by default; ``begin()`` then returns
        :data:`NULL_SPAN` and records nothing.
    clock:
        Zero-argument time source.  Defaults to ``time.perf_counter``
        (wall time); the simulated cluster passes ``lambda: sim.now``
        so span durations are in sim-seconds.
    """

    def __init__(
        self, enabled: bool = False, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.enabled = enabled
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self._finished: List[Span] = []
        self._materialized: List[SpanRecord] = []
        self._next_id = 1

    @property
    def records(self) -> List[SpanRecord]:
        """Finished spans as immutable records.

        Materialized lazily: the ingest hot path only appends the live
        :class:`Span` (a cheap slotted object); the frozen-dataclass
        conversion happens here, off the traced wall-clock.
        """
        done = len(self._materialized)
        for span in self._finished[done:]:
            self._materialized.append(
                SpanRecord(
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    name=span.name,
                    start=span.start,
                    end=span.end_time,
                    batch_id=span.batch_id,
                    fields=tuple(sorted(span.fields.items())),
                )
            )
        return self._materialized

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def __len__(self) -> int:
        return len(self._finished)

    # ------------------------------------------------------------------
    # span creation
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        *,
        parent: Optional[SpanLike] = None,
        batch_id: Optional[int] = None,
        **fields: object,
    ) -> SpanLike:
        """A span for event-driven work; no implicit parenting, end it
        explicitly from whichever callback completes the operation."""
        if not self.enabled:
            return NULL_SPAN
        return self._make(name, parent, batch_id, fields)

    def _make(
        self,
        name: str,
        parent: Optional[SpanLike],
        batch_id: Optional[int],
        fields: Dict[str, object],
    ) -> Span:
        span_id = self._next_id
        self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        if batch_id is None and isinstance(parent, Span):
            batch_id = parent.batch_id
        return Span(self, span_id, parent_id, name, batch_id, self.clock(), fields)

    # ------------------------------------------------------------------
    # internals (called by Span)
    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        span.end_time = self.clock()
        self._finished.append(span)

    # ------------------------------------------------------------------
    # queries / export
    # ------------------------------------------------------------------
    def batch_ids(self) -> List[int]:
        """Distinct batch ids seen across finished spans, sorted."""
        ids = {r.batch_id for r in self.records if r.batch_id is not None}
        for r in self.records:
            extra = r.field_dict().get("batch_ids")
            if isinstance(extra, (tuple, list)):
                ids.update(int(b) for b in extra)
        return sorted(ids)

    def batch_trace(self, batch_id: int) -> List[SpanRecord]:
        """Every finished span belonging to one batch, in start order."""
        hits = [r for r in self.records if r.mentions_batch(batch_id)]
        hits.sort(key=lambda r: (r.start, r.span_id))
        return hits

    def components(self, batch_id: int) -> List[str]:
        """Distinct span-name heads (``proxy``, ``tsd``, …) on a batch trace."""
        return sorted({r.name.split(".", 1)[0] for r in self.batch_trace(batch_id)})

    def flame(self, batch_id: Optional[int] = None) -> str:
        """Indented text flame summary of the recorded span tree."""
        records = self.records if batch_id is None else self.batch_trace(batch_id)
        if not records:
            return "(no spans recorded)"
        by_id = {r.span_id: r for r in records}
        children: Dict[Optional[int], List[SpanRecord]] = {}
        for r in records:
            parent = r.parent_id if r.parent_id in by_id else None
            children.setdefault(parent, []).append(r)
        for siblings in children.values():
            siblings.sort(key=lambda r: (r.start, r.span_id))

        lines = [f"=== trace: {len(records)} span(s)"
                 + (f", batch {batch_id}" if batch_id is not None else "")
                 + " ==="]

        def render(record: SpanRecord, depth: int) -> None:
            extras = " ".join(
                f"{k}={v}" for k, v in record.fields if k != "batch_ids"
            )
            batch = f" batch={record.batch_id}" if record.batch_id is not None else ""
            ids = record.field_dict().get("batch_ids")
            if isinstance(ids, (tuple, list)) and ids:
                batch = f" batches={','.join(str(b) for b in ids)}"
            lines.append(
                f"{'  ' * depth}{record.name:<24} "
                f"t={record.start:9.4f}s  +{record.duration * 1e3:8.3f}ms"
                f"{batch}{'  ' + extras if extras else ''}"
            )
            for child in children.get(record.span_id, []):
                render(child, depth + 1)

        for root in children.get(None, []):
            render(root, 0)
        return "\n".join(lines)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {
                "span_id": r.span_id,
                "parent_id": r.parent_id,
                "name": r.name,
                "start": r.start,
                "end": r.end,
                "duration": r.duration,
                "batch_id": r.batch_id,
                "fields": r.field_dict(),
            }
            for r in sorted(self.records, key=lambda r: (r.start, r.span_id))
        ]

    def to_json(self, indent: Optional[int] = None) -> str:
        """The full trace as a JSON array of span objects."""
        return json.dumps(self.to_dicts(), indent=indent, default=str)

    def export_json(self, path: Union[str, Path], indent: int = 2) -> Path:
        """Write ``to_json()`` to ``path``; returns the written path."""
        out = Path(path)
        out.write_text(self.to_json(indent=indent))
        return out
