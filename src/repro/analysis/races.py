"""Dynamic tie-order race detection for the cooperative sim kernel.

The kernel's event queue breaks same-time, same-priority ties with a FIFO
counter (:attr:`Simulator._seq`).  That makes every run deterministic —
but when two *different* processes touch the same shared state at the same
virtual timestamp, the outcome depends only on that tiebreak counter,
i.e. on the incidental order in which events were scheduled.  Such code is
one innocuous refactor away from changing every figure.  This is the
cooperative-scheduling analogue of a happens-before data race: there is no
ordering between the two accesses other than the queue's arrival order.

:class:`RaceDetector` is opt-in instrumentation over a
:class:`~repro.sim.core.Simulator`:

* :meth:`attach` installs a step hook recording which scheduled event
  (time, priority, FIFO sequence) is currently executing;
* :meth:`watch_store` / :meth:`watch_mapping` / :meth:`record` declare
  the shared state to track (mailbox stores, controller tables, host or
  link state) and record per-context read/write sets between yields;
* at each timestamp boundary the detector flags conflicting accesses —
  different contexts, at least one write, equal queue priority — and
  emits a deterministic, replay-stable report.

The detector never changes simulation behavior: it only observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    MutableMapping,
    Optional,
    Set,
    Tuple,
)

from ..sim.core import Event, Simulator

__all__ = ["Access", "RaceDetector", "RaceReport", "watch"]

#: Context used for accesses made outside any scheduled event (setup code
#: that runs before ``sim.run()``): it cannot race with anything.
_SETUP = ("setup", -1)


@dataclass(frozen=True)
class Access:
    """One recorded touch of a watched shared object."""

    label: str
    op: str  # "read" | "write"
    time: float
    step_seq: int
    step_priority: int
    context: str  # human-readable owner (process name or event type)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "op": self.op,
            "t": self.time,
            "seq": self.step_seq,
            "priority": self.step_priority,
            "context": self.context,
        }


@dataclass(frozen=True)
class RaceReport:
    """Two same-timestamp accesses ordered only by the FIFO tiebreak."""

    time: float
    label: str
    first: Access
    second: Access

    def message(self) -> str:
        return (
            f"t={self.time:.6g}: tie-order race on {self.label!r}: "
            f"{self.first.context} ({self.first.op}, seq {self.first.step_seq}) vs "
            f"{self.second.context} ({self.second.op}, seq {self.second.step_seq}) "
            "— relative order is decided only by the event queue's FIFO counter"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.time,
            "label": self.label,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
        }


class _TrackedDict(dict):
    """Dict shim that reports reads/writes to the detector."""

    def __init__(self, data: MutableMapping, detector: "RaceDetector", label: str):
        super().__init__(data)
        self._detector = detector
        self._label = label

    # -- reads -----------------------------------------------------------
    def __getitem__(self, key):
        self._detector.record(self._label, "read")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._detector.record(self._label, "read")
        return super().get(key, default)

    def __contains__(self, key):
        self._detector.record(self._label, "read")
        return super().__contains__(key)

    def __iter__(self):
        self._detector.record(self._label, "read")
        return super().__iter__()

    def items(self):
        self._detector.record(self._label, "read")
        return super().items()

    def keys(self):
        self._detector.record(self._label, "read")
        return super().keys()

    def values(self):
        self._detector.record(self._label, "read")
        return super().values()

    # -- writes ----------------------------------------------------------
    def __setitem__(self, key, value):
        self._detector.record(self._label, "write")
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._detector.record(self._label, "write")
        super().__delitem__(key)

    def pop(self, *args):
        self._detector.record(self._label, "write")
        return super().pop(*args)

    def setdefault(self, key, default=None):
        self._detector.record(self._label, "write")
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self._detector.record(self._label, "write")
        super().update(*args, **kwargs)

    def clear(self):
        self._detector.record(self._label, "write")
        super().clear()


class RaceDetector:
    """Opt-in tie-order race detection over one simulator.

    Two same-timestamp accesses race only when *neither step
    happens-before the other*: an event enqueued while step A executes is
    causally ordered after A (A's callbacks created it), so the classic
    put-wakes-parked-receiver chain is ordered, not racy.  Only steps with
    no same-timestamp causal path between them — whose relative order
    exists purely because one was pushed onto the heap first — count.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.reports: List[RaceReport] = []
        self._attached = False
        #: Accesses of the timestamp window currently being executed.
        self._window: List[Access] = []
        self._window_time: Optional[float] = None
        #: (time, priority, seq, context string) of the executing step.
        self._current: Optional[Tuple[float, int, int, str]] = None
        #: Stable per-object context numbering (assignment order is part of
        #: the deterministic replay, so these indices are reproducible).
        self._ctx_ids: Dict[int, int] = {}
        self._watched_stores: Set[int] = set()
        self._watched_calls: Set[Tuple[int, str]] = set()
        #: (label, first ctx, second ctx) pairs already reported at the
        #: current timestamp, so one loop does not spam N reports.
        self._reported_pairs: Set[Tuple[str, str, str]] = set()
        #: id(event) -> (parent step seq, parent step time): the step that
        #: was executing when the event was enqueued.
        self._parent: Dict[int, Tuple[int, float]] = {}
        #: step seq -> transitive same-timestamp ancestors (window-local).
        self._ancestors: Dict[int, frozenset] = {}
        self._orig_enqueue: Optional[Callable[..., None]] = None

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> "RaceDetector":
        if self.sim.step_hook is not None and self.sim.step_hook is not self._on_step:
            raise RuntimeError("simulator already has a step hook installed")
        self.sim.step_hook = self._on_step
        if self._orig_enqueue is None:
            original = self.sim._enqueue
            self._orig_enqueue = original

            def enqueue(
                event: Event, delay: float, priority: int,
                slot: Optional[int] = None,
            ) -> None:
                if not event._scheduled and self._current is not None:
                    time, _prio, seq, _ctx = self._current
                    self._parent[id(event)] = (seq, time)
                original(event, delay, priority, slot)

            self.sim._enqueue = enqueue  # type: ignore[method-assign]
        self._attached = True
        return self

    def detach(self) -> "RaceDetector":
        if self._attached:
            self.sim.step_hook = None
            if self._orig_enqueue is not None:
                # attach() shadowed the class method with an instance
                # attribute; removing the shadow restores the original.
                self.sim.__dict__.pop("_enqueue", None)
                self._orig_enqueue = None
            self._attached = False
        return self

    def finish(self) -> List[RaceReport]:
        """Flush the last timestamp window and return all reports."""
        self._flush()
        return self.reports

    # -- step hook -------------------------------------------------------
    def _context_of(self, event: Event) -> str:
        """Stable, human-readable identity for the code an event runs."""
        proc = getattr(event, "callbacks", None)
        # A Process resuming: the event's callbacks include its _resume; use
        # the process the simulator will mark active.  Cheaper and stable:
        # name by event type + per-object stable index.
        owner: Any = event
        name = type(event).__name__
        if hasattr(event, "generator"):  # the Process object itself
            name = f"process:{getattr(event, 'name', 'process')}"
        elif proc:
            for cb in proc:
                bound = getattr(cb, "__self__", None)
                if bound is not None and hasattr(bound, "generator"):
                    owner = bound
                    name = f"process:{getattr(bound, 'name', 'process')}"
                    break
        key = id(owner)
        if key not in self._ctx_ids:
            self._ctx_ids[key] = len(self._ctx_ids)
        return f"{name}#{self._ctx_ids[key]}"

    def _on_step(self, time: float, priority: int, seq: int, event: Event) -> None:
        if self._window_time is not None and time != self._window_time:
            self._flush()
        self._window_time = time
        # Same-timestamp happens-before: inherit the enqueuing step's
        # ancestry when that step ran at this timestamp.
        parent = self._parent.pop(id(event), None)
        if parent is not None and parent[1] == time:
            parent_seq = parent[0]
            self._ancestors[seq] = frozenset(
                {parent_seq} | set(self._ancestors.get(parent_seq, frozenset()))
            )
        self._current = (time, priority, seq, self._context_of(event))

    # -- recording -------------------------------------------------------
    def record(self, label: str, op: str) -> None:
        """Record one read/write of the shared object named ``label``."""
        if self._current is None:
            time, priority, seq = self.sim.now, -1, -1
            context = _SETUP[0]
        else:
            time, priority, seq, context = self._current
        access = Access(
            label=label,
            op=op,
            time=time,
            step_seq=seq,
            step_priority=priority,
            context=context,
        )
        self._window.append(access)
        self._check(access)

    def watch_store(self, store: Any, label: str) -> None:
        """Track a :class:`repro.sim.Store`: puts and gets are conflicting
        (consuming) operations, so any same-timestamp pair from different
        contexts is order-sensitive."""
        if id(store) in self._watched_stores:
            return
        self._watched_stores.add(id(store))
        for op_name in ("put", "get", "try_get"):
            original = getattr(store, op_name)

            def wrapped(*args, _original=original, _label=label, **kwargs):
                self.record(_label, "write")
                return _original(*args, **kwargs)

            setattr(store, op_name, wrapped)

    def watch_mapping(self, obj: Any, attr: str, label: str) -> None:
        """Replace ``obj.attr`` (a dict) with a read/write-recording shim."""
        current = getattr(obj, attr)
        if isinstance(current, _TrackedDict):
            return
        setattr(obj, attr, _TrackedDict(current, self, label))

    def watch_calls(
        self, obj: Any, methods: Iterable[str], label: str, op: str = "write"
    ) -> None:
        """Record every call of the named methods as one ``op`` access.

        For state that is not a plain dict (deques of restart timestamps,
        admission counters, rank bookkeeping) the mutation surface *is*
        the method: wrapping it records one access per invocation, which
        is exactly the granularity the tie-order analysis needs — two
        same-timestamp calls from different contexts are order-sensitive.
        The wrapper shadows the bound method with an instance attribute,
        so even callbacks that capture ``self`` route through it.
        """
        for name in methods:
            key = (id(obj), name)
            if key in self._watched_calls:
                continue
            self._watched_calls.add(key)
            original = getattr(obj, name)

            def wrapped(*args, _original=original, _label=label, _op=op, **kwargs):
                self.record(_label, _op)
                return _original(*args, **kwargs)

            setattr(obj, name, wrapped)

    # -- analysis --------------------------------------------------------
    def _check(self, access: Access) -> None:
        """Compare the new access against the current timestamp window."""
        if access.step_seq < 0:
            return  # setup accesses cannot race
        for other in self._window[:-1]:
            if other.label != access.label:
                continue
            if other.context == access.context:
                continue  # program order within one process/callback chain
            if other.step_seq == access.step_seq:
                continue  # same scheduled event: one atomic callback chain
            if other.step_priority != access.step_priority:
                continue  # URGENT-vs-NORMAL order is semantic, not a tie
            if other.op == "read" and access.op == "read":
                continue
            if other.step_seq < 0:
                continue
            # Happens-before: the older step is an ancestor of the newer
            # one — their order is causal, not a heap-arrival accident.
            older, newer = sorted((other.step_seq, access.step_seq))
            if older in self._ancestors.get(newer, frozenset()):
                continue
            pair = (access.label, other.context, access.context)
            if pair in self._reported_pairs:
                continue
            self._reported_pairs.add(pair)
            first, second = sorted(
                (other, access), key=lambda a: (a.step_seq, a.op, a.context)
            )
            self.reports.append(
                RaceReport(
                    time=access.time, label=access.label,
                    first=first, second=second,
                )
            )

    def _flush(self) -> None:
        self._window.clear()
        self._reported_pairs.clear()
        self._ancestors.clear()


def watch(detector: RaceDetector, host: Any) -> None:
    """Instrument one cluster host: every current and future mailbox.

    Existing mailboxes are wrapped immediately; the host's lazy
    ``mailbox(port)`` factory is shimmed so ports created later are
    tracked too.
    """
    for port in sorted(host._mailboxes):
        detector.watch_store(host._mailboxes[port], f"{host.name}:{port}")
    original = host.mailbox

    def mailbox(port: str, _original=original, _host=host.name):
        box = _original(port)
        detector.watch_store(box, f"{_host}:{port}")
        return box

    host.mailbox = mailbox
