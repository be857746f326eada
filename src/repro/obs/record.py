"""Structured span/event recording over simulated time.

A :class:`TraceRecorder` collects :class:`SpanRecord` entries — durations
(**spans**, with a start and end in simulated time) and point events
(**instants**) — linked into causal trees through parent span ids.  It is
strictly *passive*: recording never creates simulator events, spawns
processes, or draws randomness, so a traced run's event order and final
state are byte-identical to the untraced run (the invariant the obs
benchmarks enforce).

Determinism rules baked into the design (see ``docs/observability.md``):

- span ids come from one monotonic counter, never ``id()`` or a UUID;
- timestamps are the bound simulator's virtual clock, never a wall clock;
- export order is ``(t0, sid)`` — a pure function of the simulation.

Parent resolution for a new record, in priority order:

1. an explicit ``parent=`` span id (how the runtime threads the
   violation -> decision -> steering -> switch chain through callbacks);
2. the lifecycle span of the simulator's active process (so anything
   recorded from inside a process nests under it automatically);
3. the top of the ambient-parent stack (:meth:`TraceRecorder.push_parent`,
   used by the profiling driver to group whole measurement runs).

Binding (:meth:`TraceRecorder.bind`) installs the recorder as
``sim.obs`` — the discovery point every instrumented module polls.  It is
not a step observer: every process spawned while it is bound carries its
hook first on its start event, which opens the lifecycle span and puts
the same hook first on the process's exit event to close it.  A traced
run therefore pays per record, not per kernel step.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import count
from typing import Any, Dict, Iterator, List, Optional

from ..sim.core import Event, Simulator, _Initialize
from .metrics import MetricsRegistry

__all__ = ["ObsError", "SpanRecord", "TraceRecorder"]


class ObsError(Exception):
    """Raised on recorder misuse (unknown span ids, double binding)."""


class SpanRecord:
    """One trace entry: a span (``t1`` set at close) or an instant."""

    __slots__ = ("sid", "parent", "name", "cat", "kind", "t0", "t1", "proc", "attrs")

    def __init__(
        self,
        sid: int,
        name: str,
        cat: str,
        kind: str,
        t0: float,
        t1: Optional[float] = None,
        parent: Optional[int] = None,
        proc: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.cat = cat
        self.kind = kind  # "span" | "instant"
        self.t0 = t0
        self.t1 = t1
        self.proc = proc
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def open(self) -> bool:
        return self.kind == "span" and self.t1 is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "cat": self.cat,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "proc": self.proc,
            "attrs": dict(sorted(self.attrs.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        return cls(
            sid=payload["sid"],
            name=payload["name"],
            cat=payload.get("cat", "user"),
            kind=payload.get("kind", "instant"),
            t0=payload["t0"],
            t1=payload.get("t1"),
            parent=payload.get("parent"),
            proc=payload.get("proc", ""),
            attrs=dict(payload.get("attrs", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        when = f"{self.t0:.6g}" if self.t1 is None else f"{self.t0:.6g}-{self.t1:.6g}"
        return f"<SpanRecord #{self.sid} {self.name!r} [{when}]>"


class TraceRecorder:
    """Collects spans/instants and a metrics registry for one run."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None):
        self.records: List[SpanRecord] = []
        self._ids = count(1)
        self._open: Dict[int, SpanRecord] = {}
        self._ambient: List[int] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry(self.now)
        self.sim: Optional[Simulator] = None
        # Kernel steps of earlier bindings, and ``sim.steps`` at bind.
        self._steps = 0
        self._steps_mark = 0

    # -- clock ------------------------------------------------------------
    def now(self) -> float:
        """Virtual time of the bound simulator; 0.0 while unbound."""
        return self.sim.now if self.sim is not None else 0.0

    # -- binding ----------------------------------------------------------
    @property
    def steps(self) -> int:
        """Kernel steps dispatched while bound."""
        steps = self._steps
        if self.sim is not None:
            steps += self.sim.steps - self._steps_mark
        return steps

    def bind(self, sim: Simulator) -> "TraceRecorder":
        """Install as ``sim.obs``; hook the processes not yet started."""
        if self.sim is not None:
            raise ObsError("recorder is already bound; unbind() first")
        if sim.obs is not None:
            raise ObsError("simulator already has a bound recorder")
        self.sim = sim
        sim.obs = self
        self._steps_mark = sim.steps
        # Processes spawned before the bind start while bound: their start
        # events get the hook that a spawn under ``sim.obs`` would have set.
        hook = self._step_hook
        for entry in sim._heap:
            event = entry[3]
            if (
                event.__class__ is _Initialize
                and event.callbacks is not None
                and hook not in event.callbacks
            ):
                event.callbacks.insert(0, hook)
        return self

    def unbind(self) -> "TraceRecorder":
        """Stop recording process spans and clear ``sim.obs``."""
        sim = self.sim
        if sim is None:
            return self
        if sim.obs is self:
            sim.obs = None
        self._steps += sim.steps - self._steps_mark
        self.sim = None
        return self

    def _step_hook(self, event: Event) -> None:
        """Open or close a process's lifecycle span.

        Runs first among the callbacks of a process's start event (set at
        spawn or :meth:`bind`) and of its exit event (set here, when the
        span opens), so records keep the order a per-step observer gave
        them.  A no-op once the recorder is unbound from the event's
        simulator.
        """
        if self.sim is not event.sim:
            return
        if event.__class__ is _Initialize:
            proc = event.process  # type: ignore[attr-defined]
            span = self._record(
                "span", f"proc:{proc.name}", "sim", parent=proc.obs_parent
            )
            proc.obs_span = span.sid
            proc.callbacks.insert(0, self._step_hook)
        else:
            sid = event.obs_span  # type: ignore[attr-defined]
            if sid is not None and sid in self._open:
                self.end(sid, ok=bool(event._ok))

    # -- parent context ----------------------------------------------------
    def push_parent(self, sid: int) -> None:
        """Make ``sid`` the ambient parent for records with no other link."""
        self._ambient.append(sid)

    def pop_parent(self) -> None:
        self._ambient.pop()

    def _resolve_parent(self, parent: Optional[int]) -> Optional[int]:
        if parent is not None:
            return parent
        if self.sim is not None:
            proc = self.sim.active_process
            if proc is not None and proc.obs_span is not None:
                return proc.obs_span
        return self._ambient[-1] if self._ambient else None

    def _proc_name(self) -> str:
        if self.sim is not None:
            proc = self.sim.active_process
            if proc is not None:
                return proc.name
        return ""

    # -- recording ---------------------------------------------------------
    def _record(
        self,
        kind: str,
        name: str,
        cat: str,
        parent: Optional[int],
        t: Optional[float] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> SpanRecord:
        t0 = self.now() if t is None else float(t)
        record = SpanRecord(
            sid=next(self._ids),
            name=name,
            cat=cat,
            kind=kind,
            t0=t0,
            t1=t0 if kind == "instant" else None,
            parent=self._resolve_parent(parent),
            proc=self._proc_name(),
        )
        if attrs:
            record.attrs.update(attrs)
        self.records.append(record)
        if kind == "span":
            self._open[record.sid] = record
        return record

    def begin(
        self,
        name: str,
        cat: str = "user",
        parent: Optional[int] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> int:
        """Open a span; returns its id for :meth:`end` and child links."""
        return self._record("span", name, cat, parent, t, attrs).sid

    def end(self, sid: int, t: Optional[float] = None, **attrs: Any) -> SpanRecord:
        """Close an open span at the current (or given) simulated time."""
        record = self._open.pop(sid, None)
        if record is None:
            raise ObsError(f"span #{sid} is not open")
        record.t1 = self.now() if t is None else float(t)
        if attrs:
            record.attrs.update(attrs)
        return record

    def instant(
        self,
        name: str,
        cat: str = "user",
        parent: Optional[int] = None,
        t: Optional[float] = None,
        **attrs: Any,
    ) -> int:
        """Record a point event; returns its id for child links."""
        return self._record("instant", name, cat, parent, t, attrs).sid

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "user",
        parent: Optional[int] = None,
        **attrs: Any,
    ) -> Iterator[int]:
        """Span over a ``with`` block, ambient-parenting nested records."""
        sid = self.begin(name, cat=cat, parent=parent, **attrs)
        self.push_parent(sid)
        try:
            yield sid
        finally:
            self.pop_parent()
            self.end(sid)

    def finish(self) -> "TraceRecorder":
        """Close every still-open span at the current time (run teardown)."""
        for sid in sorted(self._open):
            self.end(sid, unfinished=True)
        return self

    # -- access ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def find(self, name: str) -> List[SpanRecord]:
        """All records with the given name, in record order."""
        return [r for r in self.records if r.name == name]
