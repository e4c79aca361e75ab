"""Per-request tracing: timed stages and causal hops on one record.

A :class:`Trace` is the record of one logical operation (a ``get()``, a
``put()``, one simulated request, one autoscale action).  Its **stages**
-- named, timed intervals opened and closed in strict LIFO order -- say
where the nanoseconds went; its **hops** -- :class:`Hop` records appended
by every layer the request crosses -- say which shards it touched, in
what order, and why it was retried.  It ends with a ``status`` (``"ok"``
or ``error:<ExcType>``); :meth:`Trace.to_dict` is the causal view the
flight recorder stores.

Top-level stages *tile* the trace: whenever a top-level stage opens
after a gap (or the trace finishes with trailing untimed work), the gap
is recorded as an explicit ``(untracked)`` stage.  The invariant the exporters and the
Figure-8 runner rely on is therefore exact::

    sum(stage.duration_ns for top-level stages) == trace.total_ns

Nested stages (depth > 0) attribute time *within* their parent and do not
participate in the tiling sum.

The :class:`Tracer` owns a clock, the id sequence, a bounded buffer of
retired traces (failed requests included), one retire hook, and the
*current* trace of each thread.  Cross-layer attribution works because
the server shares the client's tracer: while the client's operation is the
current trace, server-side code calls ``tracer.stage("server.xyz")`` and
its stages land inside the same trace.  When no trace is current (e.g. a
threaded server handling frames on another thread) ``tracer.stage`` is a
no-op, and so is a hop (:meth:`repro.obs.ObsContext.hop`), so
instrumentation never needs guarding at call sites.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, WallClock

__all__ = ["Hop", "Stage", "Trace", "Tracer", "UNTRACKED_STAGE"]

#: Name of the synthetic gap-filling stage.
UNTRACKED_STAGE = "(untracked)"


class Stage:
    """One named, timed interval inside a trace."""

    __slots__ = ("name", "start_ns", "end_ns", "depth", "meta")

    def __init__(
        self, name: str, start_ns: int, depth: int, meta: Dict[str, Any]
    ):
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.depth = depth
        self.meta = meta

    @property
    def closed(self) -> bool:
        """True once the stage has an end timestamp."""
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Stage duration; raises while the stage is still open."""
        if self.end_ns is None:
            raise ObservabilityError(f"stage {self.name!r} is still open")
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:
        end = self.end_ns if self.end_ns is not None else "open"
        return f"Stage({self.name!r}, {self.start_ns}..{end}, depth={self.depth})"


class Hop:
    """One causal step of a request: which layer touched it, and why."""

    __slots__ = ("seq", "kind", "shard", "t_ns", "detail")

    def __init__(
        self,
        seq: int,
        kind: str,
        shard: Optional[str],
        t_ns: int,
        detail: Dict[str, Any],
    ):
        self.seq = seq
        self.kind = kind
        self.shard = shard
        self.t_ns = t_ns
        self.detail = detail

    def to_dict(self) -> dict:
        """JSON-shaped view of this hop."""
        out = {"seq": self.seq, "kind": self.kind, "t_ns": self.t_ns}
        if self.shard is not None:
            out["shard"] = self.shard
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def describe_record(record: dict) -> str:
    """Render a causal record (:meth:`Trace.to_dict` form) one line per hop."""
    start = record.get("start_ns") or 0
    end = record.get("end_ns")
    head = (
        f"trace {record.get('trace_id')} op={record.get('op')} "
        f"client={record.get('client_id')} "
        f"status={record.get('status') or 'open'}"
    )
    if end is not None:
        head += f" total={(end - start) / 1e6:.3f}ms"
    lines = [head]
    for hop in record.get("hops", []):
        rel_ms = (hop.get("t_ns", start) - start) / 1e6
        shard = hop.get("shard")
        detail = " ".join(
            f"{k}={v}" for k, v in sorted((hop.get("detail") or {}).items())
        )
        lines.append(
            f"  {hop.get('seq', 0):02d} +{rel_ms:8.3f}ms "
            f"{hop.get('kind', '?'):<18}"
            f"{' shard=' + shard if shard else ''}"
            f"{' ' + detail if detail else ''}"
        )
    return "\n".join(lines)


class _StageHandle:
    """Context manager for one stage; closes it in LIFO order."""

    __slots__ = ("_trace", "_stage")

    def __init__(self, trace: "Trace", stage: Optional[Stage]):
        self._trace = trace
        self._stage = stage

    def __enter__(self) -> Optional[Stage]:
        return self._stage

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._trace is not None and self._stage is not None:
            self._trace.close_stage(self._stage)
        return False


class Trace:
    """The record of one operation: stages, causal hops and a status."""

    def __init__(
        self,
        trace_id: int,
        op: str,
        clock: Clock,
        attrs: Dict[str, Any],
        on_finish=None,
    ):
        self.trace_id = trace_id
        self.op = op
        self.attrs = attrs
        self._clock = clock
        self._on_finish = on_finish
        self.start_ns = clock.now_ns()
        self.end_ns: Optional[int] = None
        self.stages: List[Stage] = []
        self.hops: List[Hop] = []
        #: ``"ok"`` or ``error:<ExcType>`` once finished; None while open.
        self.status: Optional[str] = None
        self._open: List[Stage] = []
        #: End of the last closed *top-level* stage (for gap filling).
        self._tiled_until = self.start_ns

    # -- lifecycle ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has run."""
        return self.end_ns is not None

    @property
    def total_ns(self) -> int:
        """End-to-end latency; raises while the trace is still open."""
        if self.end_ns is None:
            raise ObservabilityError(f"trace {self.trace_id} is still open")
        return self.end_ns - self.start_ns

    def stage(self, name: str, **meta: Any) -> _StageHandle:
        """Open stage ``name``; use as a context manager."""
        if self.finished:
            raise ObservabilityError(
                f"cannot open stage {name!r} on finished trace {self.trace_id}"
            )
        now = self._clock.now_ns()
        if not self._open and now > self._tiled_until:
            # Gap between top-level stages: make the untimed interval an
            # explicit stage so top-level durations always tile the trace.
            gap = Stage(UNTRACKED_STAGE, self._tiled_until, 0, {})
            gap.end_ns = now
            self.stages.append(gap)
            self._tiled_until = now
        stage = Stage(name, now, len(self._open), dict(meta))
        self.stages.append(stage)
        self._open.append(stage)
        return _StageHandle(self, stage)

    def close_stage(self, stage: Stage) -> None:
        """Close ``stage``; must be the innermost open stage (LIFO)."""
        if not self._open:
            raise ObservabilityError(
                f"close of stage {stage.name!r} with no stage open"
            )
        if self._open[-1] is not stage:
            raise ObservabilityError(
                f"out-of-order stage close: {stage.name!r} closed while "
                f"{self._open[-1].name!r} is innermost"
            )
        self._open.pop()
        stage.end_ns = self._clock.now_ns()
        if stage.depth == 0:
            self._tiled_until = stage.end_ns

    def hop(self, kind: str, shard: Optional[str], detail: Dict[str, Any]) -> None:
        """Append one causal hop (layers call this via ``ObsContext.hop``)."""
        self.hops.append(
            Hop(len(self.hops), kind, shard, self._clock.now_ns(), detail)
        )

    def finish(self, error: Optional[BaseException] = None) -> "Trace":
        """Seal the trace and retire it, ``"ok"`` or failed by ``error``.

        A clean finish rejects open stages; a failed one records status
        ``error:<ExcType>`` and closes whatever the failure left open.
        Trailing untimed work becomes an ``(untracked)`` stage.
        """
        if self.finished:
            raise ObservabilityError(f"trace {self.trace_id} already finished")
        now = self._clock.now_ns()
        if self._open:
            if error is None:
                names = ", ".join(s.name for s in self._open)
                raise ObservabilityError(
                    f"finish with open stages: {names} (close them first)"
                )
            for stage in self._open:
                stage.end_ns = now
            self._open.clear()
            self._tiled_until = now
        if now > self._tiled_until:
            gap = Stage(UNTRACKED_STAGE, self._tiled_until, 0, {})
            gap.end_ns = now
            self.stages.append(gap)
            self._tiled_until = now
        self.end_ns = now
        self.status = "ok" if error is None else f"error:{type(error).__name__}"
        if self._on_finish is not None:
            self._on_finish(self)
        return self

    def abort(self) -> None:
        """Discard the trace: close nothing, record nothing, retire nothing."""
        self._open.clear()
        self.end_ns = self.start_ns
        if self._on_finish is not None:
            self._on_finish(self, aborted=True)

    # -- queries -----------------------------------------------------------

    def top_level_stages(self) -> List[Stage]:
        """Closed stages at depth 0, in time order (incl. gap stages)."""
        return [s for s in self.stages if s.depth == 0 and s.closed]

    def stage_names(self, named_only: bool = True) -> List[str]:
        """Names of top-level stages; ``named_only`` drops gap stages."""
        return [
            s.name
            for s in self.top_level_stages()
            if not (named_only and s.name == UNTRACKED_STAGE)
        ]

    def stage_durations(self) -> Dict[str, int]:
        """Total duration per top-level stage name (ns)."""
        out: Dict[str, int] = {}
        for stage in self.top_level_stages():
            out[stage.name] = out.get(stage.name, 0) + stage.duration_ns
        return out

    def hop_kinds(self) -> List[str]:
        """Hop kinds in causal order."""
        return [hop.kind for hop in self.hops]

    def shards_touched(self) -> List[str]:
        """Distinct shards this request crossed, in first-touch order."""
        seen: List[str] = []
        for hop in self.hops:
            if hop.shard is not None and hop.shard not in seen:
                seen.append(hop.shard)
        return seen

    def to_dict(self) -> dict:
        """The causal view: ``c<client>-<id>``, status and hop list."""
        client_id = self.attrs.get("client_id", 0)
        return {
            "trace_id": f"c{client_id}-{self.trace_id}",
            "op": self.op,
            "client_id": client_id,
            "parent": self.attrs.get("parent"),
            "status": self.status,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "hops": [hop.to_dict() for hop in self.hops],
        }

    def describe(self) -> str:
        """Human-readable causal story: one line per hop."""
        return describe_record(self.to_dict())

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.finish()
        else:
            self.abort()
        return False

    def __repr__(self) -> str:
        state = self.status if self.finished else "open"
        return (
            f"Trace(id={self.trace_id}, op={self.op!r}, "
            f"stages={len(self.stages)}, hops={len(self.hops)}, {state})"
        )


class _NullHandle:
    """Returned by ``Tracer.stage`` when no trace is current."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Creates traces, tracks the current one per thread, keeps retired ones.

    A trace retires when it finishes, ``"ok"`` or with an error status: a
    failed request's story is exactly what the flight recorder wants to
    keep.  Every retirement lands in the ``finished`` buffer and is passed
    to ``on_retire``; only :meth:`Trace.abort` discards a trace.
    ``capacity`` bounds the buffer (oldest evicted first) so
    million-operation runs do not accumulate unbounded trace state.
    ``aborted_total`` counts traces that did not end ``"ok"``, retired or
    discarded.
    """

    def __init__(self, clock: Clock = None, capacity: int = 512):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock if clock is not None else WallClock()
        self.capacity = capacity
        self.finished: List[Trace] = []
        self.started_total = 0
        self.finished_total = 0
        self.aborted_total = 0
        self.dropped_total = 0
        self._ids = itertools.count(1)
        #: Guards the counters and the buffer: routed operations on many
        #: threads retire into one tracer.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._obs_dropped = None
        #: Called with each retired trace (the flight recorder's feed).
        self.on_retire = None

    def bind_obs(self, registry) -> None:
        """Export trace-drop accounting into ``registry`` (idempotent).

        Retired traces evicted because the buffer hit ``capacity`` were
        previously invisible truncation; after binding they surface as
        the ``trace_dropped_total`` counter.
        """
        self._obs_dropped = registry.counter(
            "trace_dropped_total",
            "finished traces evicted because the tracer hit capacity",
        )
        if self.dropped_total:
            self._obs_dropped.inc(self.dropped_total)

    # -- current-trace plumbing -------------------------------------------

    @property
    def current(self) -> Optional[Trace]:
        """This thread's active trace, if any."""
        return getattr(self._local, "trace", None)

    def _set_current(self, trace: Optional[Trace]) -> None:
        self._local.trace = trace

    # -- trace lifecycle ---------------------------------------------------

    def start(self, op: str, **attrs: Any) -> Trace:
        """Begin a new trace and make it this thread's current one."""
        if self.current is not None:
            raise ObservabilityError(
                f"trace {self.current.trace_id} still active; finish or "
                "abort it before starting another"
            )
        trace = Trace(
            next(self._ids), op, self.clock, attrs, on_finish=self._retire
        )
        with self._lock:
            self.started_total += 1
        self._set_current(trace)
        return trace

    def _retire(self, trace: Trace, aborted: bool = False) -> None:
        if self.current is trace:
            self._set_current(None)
        with self._lock:
            if trace.status != "ok":
                self.aborted_total += 1
            if aborted:
                return
            self.finished_total += 1
            self.finished.append(trace)
            overflow = len(self.finished) - self.capacity
            if overflow > 0:
                del self.finished[:overflow]
                self.dropped_total += overflow
                if self._obs_dropped is not None:
                    self._obs_dropped.inc(overflow)
        if self.on_retire is not None:
            self.on_retire(trace)

    def abort_current(self) -> None:
        """Abort this thread's active trace, if any (error-path cleanup)."""
        trace = self.current
        if trace is not None:
            trace.abort()

    # -- convenience -------------------------------------------------------

    def stage(self, name: str, **meta: Any):
        """Open a stage on the current trace; no-op when none is active."""
        trace = self.current
        if trace is None:
            return _NULL_HANDLE
        return trace.stage(name, **meta)

    @property
    def last(self) -> Optional[Trace]:
        """Most recently retired trace."""
        return self.finished[-1] if self.finished else None

    def clear(self) -> None:
        """Drop all retired traces (keeps lifetime counters)."""
        self.finished.clear()
