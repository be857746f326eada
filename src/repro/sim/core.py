"""Discrete-event simulation kernel.

This module provides the virtual-time substrate on which every other part of
the reproduction runs: the cluster model, the sandboxed virtual execution
environment, and the applications themselves are all coroutine processes
scheduled by a :class:`Simulator`.

The design follows the classic event/process style (as popularized by SimPy,
reimplemented here from scratch): a :class:`Simulator` owns a priority queue
of :class:`Event` objects; application logic is written as Python generator
functions that ``yield`` events and are resumed when those events fire.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Tuple

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
]

# Event scheduling priorities (lower fires first at equal times).
URGENT = 0
NORMAL = 1

_PENDING = object()
_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the process was interrupted (e.g. a reconfiguration request).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt({self.cause!r})"


class Event:
    """A happening at a point in simulated time.

    Events start *pending*; calling :meth:`succeed` or :meth:`fail` schedules
    them on the simulator queue, and once the queue processes them their
    callbacks run.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        #: If True, a failure of this event that nobody handles will not
        #: crash the simulation run.
        self.defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        if not sim._direct:
            sim._enqueue(self, 0.0, priority)
        elif not self._scheduled:
            self._scheduled = True
            heappush(sim._heap, (sim._now, priority, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed; waiters receive ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        if not sim._direct:
            sim._enqueue(self, 0.0, priority)
        elif not self._scheduled:
            self._scheduled = True
            heappush(sim._heap, (sim._now, priority, next(sim._seq), self))
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome (used by condition events)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units.

    ``priority`` orders the firing against other events at the same
    timestamp (:data:`URGENT` before :data:`NORMAL`): periodic control
    loops that must observe state *before* same-instant activity — e.g. a
    liveness watchdog vs. message deliveries — take :data:`URGENT` so
    their ordering is semantic instead of a queue-arrival accident.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: Any = None,
        priority: int = NORMAL,
    ):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Event.__init__ and the push are inlined: the hottest constructor.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self.defused = False
        self.delay = delay
        if sim._direct:
            self._scheduled = True
            heappush(sim._heap, (sim._now + delay, priority, next(sim._seq), self))
        else:
            self._scheduled = False
            sim._enqueue(self, delay, priority)


class _Initialize(Event):
    """Kick-starts a freshly created process."""

    __slots__ = ("process",)

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        obs = sim.obs
        # A bound recorder's hook runs first: it opens the process's
        # lifecycle span before the generator starts.
        self.callbacks = (
            [process._resume] if obs is None else [obs._step_hook, process._resume]
        )
        self._value = None
        self._ok = True
        self.defused = False
        #: Back-reference for instrumentation (the recorder's hook reads
        #: the process it starts).
        self.process = process
        if sim._direct:
            self._scheduled = True
            heappush(sim._heap, (sim._now, URGENT, next(sim._seq), self))
        else:
            self._scheduled = False
            sim._enqueue(self, 0.0, URGENT)


class Process(Event):
    """A coroutine driven by the events it yields.

    The process object is itself an event that fires when the generator
    terminates: its value is the generator's return value, or the unhandled
    exception if it crashed.
    """

    __slots__ = ("generator", "_target", "name", "obs_span", "obs_parent")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() requires a generator, got {generator!r}"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        #: Span context for :mod:`repro.obs`: the id of this process's
        #: lifecycle span (set by a bound recorder when the process starts)
        #: and the span that was active in the *spawning* context — captured
        #: here because by the time the initialize event fires the creator
        #: is no longer the active process.
        self.obs_span: Optional[int] = None
        creator = sim._active
        self.obs_parent: Optional[int] = (
            creator.obs_span if creator is not None else None
        )
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and must not interrupt itself.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever the process was waiting on so that the stale
        # event no longer resumes it.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        interruption = Event(self.sim)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption.defused = True
        interruption.callbacks.append(self._resume)
        self.sim._enqueue(interruption, 0.0, URGENT)

    # -- plumbing ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        generator = self.generator
        sim._active = self
        try:
            while True:
                try:
                    if event._ok:
                        result = generator.send(event._value)
                    else:
                        event.defused = True
                        result = generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    break
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    break

                if not isinstance(result, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded a non-event: {result!r}"
                    )
                    self._ok = False
                    self._value = exc
                    break
                if result.sim is not sim:
                    exc = SimulationError("yielded event belongs to another simulator")
                    self._ok = False
                    self._value = exc
                    break

                callbacks = result.callbacks
                if callbacks is not None:
                    # Pending (or triggered but unprocessed) event: wait for it.
                    callbacks.append(self._resume)
                    self._target = result
                    sim._active = None
                    return
                # Already processed: feed its outcome straight back in.
                event = result
        finally:
            if sim._active is self:
                sim._active = None
        # Generator finished (or crashed): fire the process event.
        self._target = None
        if not sim._direct:
            sim._enqueue(self, 0.0, URGENT)
        elif not self._scheduled:
            self._scheduled = True
            heappush(sim._heap, (sim._now, URGENT, next(sim._seq), self))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


#: A passive step observer: ``fn(time, priority, seq, event)``.
StepObserver = Callable[[float, int, int, Event], None]


class Simulator:
    """Owns virtual time and the pending-event queue.

    Ties — events scheduled at the same ``(time, priority)`` — are broken
    by a FIFO counter by default.  A **tiebreak policy** (see
    :mod:`repro.analysis.schedule`) may replace that counter's key to
    explore alternative same-instant orders: any object with a
    ``key(time, priority, seq, event)`` method returning a sortable value
    that is unique per event.  With no policy installed (the default) the
    queue behaves byte-identically to the plain FIFO counter.
    """

    def __init__(self, start: float = 0.0, tiebreak: Optional[Any] = None):
        self._now = float(start)
        self._heap: list = []
        self._seq = count()
        self._tiebreak = tiebreak
        #: Opt-in push observer: called as ``hook(event)`` once per event,
        #: just before its first push.  :class:`repro.analysis.races.
        #: RaceDetector` learns each event's causal parent through it.
        self._push_hook: Optional[Callable[[Event], None]] = None
        #: True while neither a tiebreak policy nor a push hook is
        #: installed.  The hot push sites (``Timeout``, ``succeed``/``fail``,
        #: process start and exit, FluidShare's completion timer) then push
        #: their heap entry themselves; otherwise they call :meth:`_enqueue`.
        self._direct = tiebreak is None
        self._active: Optional[Process] = None
        #: End-of-instant work: callables appended here run once, just
        #: before the clock next advances (or the schedule drains), in
        #: order.  They may push events only at later instants.  Lets a
        #: component coalesce every same-instant change into one pass
        #: (``FluidShare`` recomputes its rates there).  The hot loop pays
        #: a list emptiness check for it, no extra event.
        self._eoi: list = []
        #: Events dispatched so far: one per :meth:`step` that pops one.
        self.steps = 0
        #: The clock alarm (see :meth:`set_alarm`): :meth:`step` calls
        #: ``_alarm_fn(t)`` on every step dispatched at ``t >= _alarm``.
        self._alarm = _INF
        self._alarm_fn: Optional[Callable[[float], None]] = None
        #: Passive step observers in dispatch (attach) order; change it
        #: through :meth:`observe`/:meth:`unobserve`.  A tuple, replaced on
        #: every change, so :meth:`step` iterates a snapshot and an empty
        #: one costs a truthiness check.
        self.observers: Tuple[StepObserver, ...] = ()
        #: Discovery point for the observability layer: a bound
        #: :class:`repro.obs.TraceRecorder`, or None (the default — every
        #: instrumented call site guards on this, so disabled tracing costs
        #: one attribute read).
        self.obs: Optional[Any] = None
        #: Discovery point for the usage-accounting layer: an attached
        #: :class:`repro.obs.usage.UsageAccountant`, or None.  The runtime
        #: uses it to attribute served work to the active configuration at
        #: ``config.switch`` safe points; like ``obs`` it is strictly
        #: passive, so disabled accounting costs one attribute read.
        self.usage: Optional[Any] = None
        #: Discovery point for the recovery layer: an attached
        #: :class:`repro.recovery.Supervisor`, or None.  ControlBox safe
        #: points notify it (checkpointing) and FaultPlan ``kill`` events
        #: route through it; with no supervisor attached every hook site is
        #: a single ``is None`` check, so disabled recovery costs nothing.
        self.recovery: Optional[Any] = None
        #: Discovery point for the kernel self-profiler: an attached
        #: :class:`repro.obs.perf.KernelProfiler`, or None.  The hot loop
        #: decrements its burst-sampling countdown inline and hands it
        #: observed steps so host wall-clock cost can be attributed per
        #: bucket; it is
        #: strictly passive — it never schedules, draws randomness, or
        #: touches sim state — so profiled runs stay byte-identical and
        #: disabled profiling costs one attribute read.
        self.perf: Optional[Any] = None

    # -- inspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle.

        Pending end-of-instant work counts as due now; it is reported, not
        run (the next :meth:`step` runs it).
        """
        if self._eoi:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def is_idle(self) -> bool:
        return not self._heap and not self._eoi

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(
        self, delay: float, value: Any = None, priority: int = NORMAL
    ) -> Timeout:
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AnyOf

        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> "Event":
        from .conditions import AllOf

        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def set_tiebreak(self, policy: Optional[Any]) -> None:
        """Install (or clear) the same-instant tiebreak policy.

        Only legal while the queue is empty: mixing keys produced by two
        different policies inside one heap would make entries incomparable.
        """
        if self._heap:
            raise SimulationError(
                "set_tiebreak() with events already scheduled; install the "
                "policy before creating any process or timeout"
            )
        self._tiebreak = policy
        self._direct = policy is None and self._push_hook is None

    @property
    def tiebreak(self) -> Optional[Any]:
        return self._tiebreak

    @property
    def push_hook(self) -> Optional[Callable[[Event], None]]:
        """The installed push observer, or None."""
        return self._push_hook

    @push_hook.setter
    def push_hook(self, hook: Optional[Callable[[Event], None]]) -> None:
        self._push_hook = hook
        self._direct = hook is None and self._tiebreak is None

    # -- observers ----------------------------------------------------------
    def observe(self, fn: StepObserver) -> None:
        """Attach a passive step observer.

        :meth:`step` calls ``fn(time, priority, seq, event)`` after the
        clock advances and before the event's callbacks run, after every
        observer attached earlier.  Observers must not schedule events,
        draw randomness or change simulation state.
        """
        self.observers += (fn,)

    def unobserve(self, fn: StepObserver) -> None:
        """Detach ``fn`` (matched by ``==``, so a bound method matches its
        fresh re-binding).  A step already dispatching still calls the
        observers it started with."""
        observers = list(self.observers)
        observers.remove(fn)
        self.observers = tuple(observers)

    def set_alarm(self, at: float, fn: Optional[Callable[[float], None]]) -> None:
        """Arm the kernel's one clock alarm, or clear it with ``fn=None``.

        While armed, :meth:`step` calls ``fn(t)`` after the clock advances
        to ``t`` and before the step observers, on every step with
        ``t >= at``, until ``fn`` re-arms or clears it.  A step that is not
        due costs one float compare.  Like an observer, ``fn`` must be
        passive.  One owner at a time: arming over another function's
        alarm raises :class:`SimulationError`.
        """
        if fn is None:
            self._alarm = _INF
            self._alarm_fn = None
            return
        if self._alarm_fn is not None and self._alarm_fn != fn:
            raise SimulationError("the clock alarm is already armed by another owner")
        self._alarm = at
        self._alarm_fn = fn

    def _enqueue(
        self, event: Event, delay: float, priority: int, slot: Optional[int] = None
    ) -> None:
        """Push ``event`` at ``now + delay``.

        ``slot`` is a FIFO number reserved earlier with ``next(self._seq)``:
        the event then sorts as if it had been pushed at reservation time.
        The general push path: while ``_direct`` holds, the hot push sites
        inline its no-policy, no-hook case.
        """
        if event._scheduled:
            return
        event._scheduled = True
        if self._push_hook is not None:
            self._push_hook(event)
        seq = next(self._seq) if slot is None else slot
        if self._tiebreak is not None:
            seq = self._tiebreak.key(self._now + delay, priority, seq, event)
        heappush(self._heap, (self._now + delay, priority, seq, event))

    def schedule_callback(
        self, delay: float, fn: Callable[[], None], priority: int = NORMAL
    ) -> Event:
        """Run ``fn()`` after ``delay``; returns the underlying event."""
        ev = Timeout(self, delay, priority=priority)

        def _fire(_e: Event) -> None:
            fn()

        # Callsite identity for the kernel profiler: the wrapper itself has
        # an anonymous qualname, so expose the scheduled function through
        # the standard ``__wrapped__`` convention.
        _fire.__wrapped__ = fn  # type: ignore[attr-defined]
        ev.callbacks.append(_fire)
        return ev

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        When end-of-instant work is pending and the next event lies later
        (or none is left), that work is the step instead: it runs, and the
        event stays queued, so a caller bounding time with :meth:`peek`
        never dispatches past its bound.
        """
        if self._active is not None:
            raise SimulationError(
                "step() re-entered from inside a process; processes must "
                "yield events instead of driving the kernel"
            )
        heap = self._heap
        eoi = self._eoi
        if eoi and (not heap or heap[0][0] > self._now):
            for fn in eoi:
                fn()
            eoi.clear()
            return
        if not heap:
            raise SimulationError("step() on an empty schedule")
        t, prio, seq, event = heappop(heap)
        if t < self._now - 1e-12:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = t
        self.steps += 1
        if t >= self._alarm:
            self._alarm_fn(t)
        observers = self.observers
        if observers:
            for fn in observers:
                fn(t, prio, seq, event)
        perf = self.perf
        if perf is not None:
            # Burst sampling: during a profiler off phase the countdown is
            # decremented inline (three ops, no call).  On observed steps
            # pre_step closes the previous event's wall window with a
            # single clock read, so each bucket's cost spans from its
            # event's dispatch to the next event's dispatch — callbacks,
            # step observers, and heap maintenance included.
            n = perf.skip
            if n:
                perf.skip = n - 1
            else:
                perf.pre_step(t, prio, event)
        callbacks = event.callbacks
        event.callbacks = None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event.defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or virtual time reaches ``until``."""
        if self._active is not None:
            raise SimulationError(
                "run() re-entered from inside a process; processes must "
                "yield events instead of driving the kernel"
            )
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self._now!r})"
            )
        limit = float("inf") if until is None else until
        heap = self._heap
        eoi = self._eoi
        try:
            while True:
                if eoi and (not heap or heap[0][0] > self._now):
                    # End-of-instant work runs here, not as a step() of its
                    # own, so every step() call inside run() dispatches one
                    # event.  It may arm an event at or before ``until``,
                    # so the bound is checked after it.
                    for fn in eoi:
                        fn()
                    eoi.clear()
                if not heap:
                    break
                if heap[0][0] > limit:
                    self._now = until
                    return
                self.step()
        except StopSimulation:
            return
        finally:
            # Structural profiling boundary: host time after this point
            # (between run() segments) must not be charged to the last
            # event's bucket.
            if self.perf is not None:
                self.perf.run_pause()
        if until is not None:
            self._now = until

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator``, run, and return its result."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self._now}"
            )
        if not proc.ok:
            raise proc._value
        return proc._value

    def stop(self) -> None:
        """Halt :meth:`run` at the current time (callable from callbacks)."""
        raise StopSimulation()
