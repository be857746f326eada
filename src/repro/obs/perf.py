"""Self-profiling for the simulation kernel: where host time actually goes.

A :class:`KernelProfiler` attaches to a :class:`~repro.sim.core.Simulator`
(``sim.perf``, the same discovery-point pattern as ``sim.obs`` and
``sim.usage``) and attributes **host wall-clock** cost to named buckets —
one per event-type / resumed-process / callback-callsite — while also
collecting deterministic kernel-health telemetry on the **virtual-time**
axis: heap pushes and peak size, a census of same-instant tie windows,
the callback-vs-process event mix, and per-:class:`FluidShare` update
counts with their flow fan-out (the O(active flows) cost ROADMAP item 1
targets).

Two invariants, both enforced by ``tests/obs/test_perf.py`` and
``benchmarks/bench_sim.py``:

* **Byte-invisible.**  Profiling never schedules events, draws
  randomness, or mutates any simulation-visible state; a profiled
  same-seed run's payload is byte-identical to the unprofiled run.  The
  wall-clock reads are *host-side telemetry* in the sense of the DET501
  convention: they never feed back into the simulation.
* **Cheap.**  With no profiler attached every hook site in the kernel is
  one attribute read plus an ``is None`` check.  With one attached in
  the default **burst-sampling** mode, most steps cost a three-op inline
  countdown in the kernel; full accounting (one clock read, cached
  bucket classification, tie census) runs only for bursts of
  consecutive steps.  ``bench_sim`` gates the total overhead at < 5 %
  of the bare run.

Burst sampling, not stride sampling: observing *consecutive* steps keeps
the inter-step wall deltas and the same-instant tie windows locally
exact inside each burst (windows straddling a burst edge are truncated).
Wall shares and event-mix counts are therefore *sampled* statistics —
but deterministic ones, because the burst schedule is a pure function of
the step count.  ``steps``, ``pushes``, and ``max_heap`` stay globally
exact in every mode.  ``full=True`` observes every step (exact census,
exact attribution, roughly 15 % overhead) — what the ``repro perf`` CLI
uses, since a one-off profile capture does not care about overhead.

The wall-clock side of :meth:`summary` is inherently machine-dependent;
everything under the ``"sim"`` key — and every bucket's *count* — is a
pure function of the seeded run (the determinism tests compare them
bit-for-bit).  The folded exporter (:func:`to_folded`) emits the
collapsed-stack format every standard flamegraph tool consumes
(``stack;frames value`` with integer microsecond values);
:func:`to_chrome_profile` lays the aggregated buckets out as a
chrome://tracing flame chart.
"""

from __future__ import annotations

# Host-side telemetry clock (DET501 convention): readings are attributed
# to profile buckets only and never influence the simulation.
from time import perf_counter  # repro: allow[DET101] -- host-side profiler telemetry

from types import MethodType
from typing import Any, Callable, Dict, List, Optional

from ..sim.core import Event, Process, _Initialize
from .record import ObsError

__all__ = ["KernelProfiler", "to_folded", "to_chrome_profile"]

#: Fallback heuristic for simulators driven through ``step()`` directly
#: (no ``run()`` loop, so no structural ``run_pause`` boundary): a final
#: window longer than this at burst close is host work after the last
#: event, not the event's own cost, and lands in ``kernel;external``.
#: Inside a ``run()`` loop attribution is structural and no cutoff
#: applies — a long window there *is* the event's callback cost.
_EXTERNAL_CUTOFF = 1e-3

#: Bucket for host time that is provably not kernel work.
_EXTERNAL = "kernel;external"


def _fluid_entry() -> Dict[str, int]:
    return {
        "set_speed": 0,
        "set_weight": 0,
        "set_cap": 0,
        "submit": 0,
        "cancel": 0,
        "reschedules": 0,
        "fanout_sum": 0,
        "fanout_max": 0,
    }


class KernelProfiler:
    """Attributes host wall-clock cost inside the sim kernel to buckets.

    A profiler may be attached to several simulators in sequence (the
    profiling driver runs one testbed per measurement); counters and
    buckets accumulate across attaches, which is what a sweep-level
    profile wants.  Attach order relative to other instrumentation does
    not matter: the profiler is not one of the kernel's step observers
    (:meth:`Simulator.observe`) — the kernel calls it directly through
    ``sim.perf``, after the observers, in an inline countdown.

    Because each observed event's wall window is closed by the *next*
    observed step (one clock read per step), a bucket's seconds include
    everything from the event's dispatch to the next dispatch: its
    callbacks, step observers, and heap maintenance.  The profiler's
    own per-step cost is attributed the same way — honest
    self-accounting, gated below 5 % by ``bench_sim``.

    Parameters
    ----------
    clock:
        Host clock (seconds, monotonic); injectable for tests.
    full:
        Observe *every* step — exact tie census and attribution at
        roughly 15 % overhead — instead of burst sampling.
    burst, cycle:
        Burst-sampling schedule: observe ``burst`` consecutive steps out
        of every ``cycle``.  The defaults (64 / 4096, ~1.6 % of steps)
        keep overhead around 2 % while every burst still sees whole tie
        windows; most of the residual cost is the kernel's inline
        three-op countdown on skipped steps, so shrinking the observed
        fraction further buys almost nothing.
    """

    __slots__ = (
        "_clock",
        "buckets",
        "skip",
        "_pushes",
        "_heap",
        "_heap_base",
        "_steps_base",
        "max_heap",
        "tie_windows",
        "tied_events",
        "max_tie_window",
        "tie_census",
        "fluid",
        "attaches",
        "measured_wall",
        "sim",
        "_full",
        "_burst",
        "_off",
        "_burst_left",
        "_offs",
        "_sampled",
        "_skipped",
        "_burst_start",
        "_cache",
        "_pending",
        "_last",
        "_tie_t",
        "_tie_p",
        "_window",
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        full: bool = False,
        burst: int = 64,
        cycle: int = 4096,
    ):
        if burst < 2 or cycle <= burst:
            raise ObsError(
                f"need cycle > burst >= 2, got burst={burst} cycle={cycle}"
            )
        self._clock = clock if clock is not None else perf_counter
        #: bucket name -> ``[count, seconds]``.  Names are ``;``-separated
        #: frame stacks (collapsed-stack convention).  Counts are
        #: deterministic; seconds are host telemetry.
        self.buckets: Dict[str, List[float]] = {}
        # -- sampling schedule ------------------------------------------
        self._full = full
        self._burst = burst
        self._off = cycle - burst
        self._burst_left = burst
        #: Off-phase countdown, decremented *inline by the kernel* (see
        #: ``Simulator.step``): while non-zero the step is skipped without
        #: a method call.  0 in full mode.
        self.skip = 0
        self._offs = 0  # completed-or-started off phases
        self._sampled = 0
        self._skipped = 0  # steps skipped in partial off phases (folded at detach)
        # -- deterministic (virtual-time axis) telemetry ----------------
        self._pushes = 0
        self._heap: Optional[list] = None
        self._heap_base = 0
        self._steps_base = 0
        #: Peak heap size observed at event dispatch (sampled steps).
        self.max_heap = 0
        self.tie_windows = 0
        self.tied_events = 0
        self.max_tie_window = 0
        #: window size -> number of same-``(time, priority)`` windows of
        #: that size (only sizes >= 2; singletons are the common case).
        #: Exact in full mode; per observed burst otherwise.
        self.tie_census: Dict[int, int] = {}
        self.fluid: Dict[str, Dict[str, int]] = {}
        self.attaches = 0
        # -- host-side state --------------------------------------------
        self.measured_wall = 0.0
        self.sim: Optional[Any] = None
        #: classification key -> the same ``[count, seconds]`` list that
        #: ``buckets`` holds under the rendered name.  Process resumes are
        #: keyed on the Process object itself (identity hash, bounded by
        #: the number of processes the profiler ever saw).
        self._cache: Dict[Any, List[float]] = {}
        self._pending: Optional[List[float]] = None
        self._last: Optional[float] = None
        self._burst_start = 0.0
        self._tie_t = float("nan")
        self._tie_p = -1
        self._window = 0

    # -- binding ----------------------------------------------------------
    def attach(self, sim: Any) -> "KernelProfiler":
        """Install as ``sim.perf``.  Accumulates over earlier attaches."""
        if self.sim is not None:
            raise ObsError("profiler is already attached; detach() first")
        if sim.perf is not None:
            raise ObsError("simulator already has an attached profiler")
        self.sim = sim
        sim.perf = self
        self.attaches += 1
        self._pending = None
        self._last = None
        self._tie_t = float("nan")
        self._tie_p = -1
        self._window = 0
        # Push accounting needs no per-push hook: every push is either
        # popped (a step) or still in the heap, so the session's pushes
        # are steps + (heap growth) — both exact.
        self._heap = sim._heap
        self._heap_base = len(sim._heap)
        self._steps_base = self.steps
        # Every attach starts observing immediately (skip carries no
        # meaning across simulators).
        self.skip = 0
        self._burst_left = self._burst
        return self

    def detach(self) -> "KernelProfiler":
        """Detach from the simulator, folding session totals."""
        sim = self.sim
        if sim is None:
            return self
        self._close_window()
        self._close_burst()
        if self.skip:
            # Detached mid-off-phase: that phase skipped only
            # ``off - skip`` steps, not the full ``off`` the ``_offs``
            # product assumes.  Fold the shortfall now — the next
            # attach resets ``skip`` and would otherwise lose it.
            self._offs -= 1
            self._skipped += self._off - self.skip
            self.skip = 0
        self._pushes += (
            (self.steps - self._steps_base)
            + len(self._heap) - self._heap_base
        )
        self._heap = None
        self._heap_base = 0
        self._steps_base = self.steps
        if sim.perf is self:
            sim.perf = None
        self.sim = None
        return self

    # -- the kernel hook (called from Simulator.step) ----------------------
    def pre_step(self, t: float, prio: int, event: Event) -> None:
        """Observe one step: close the previous window, open this one's.

        The kernel only calls this while ``skip == 0`` (observed steps);
        during an off phase it decrements ``skip`` inline instead.
        """
        self._sampled += 1
        # Same-instant tie-window census (deterministic, virtual axis).
        if t == self._tie_t and prio == self._tie_p:
            self._window += 1
        else:
            w = self._window
            if w > 1:
                self.tie_windows += 1
                self.tied_events += w
                if w > self.max_tie_window:
                    self.max_tie_window = w
                census = self.tie_census
                census[w] = census.get(w, 0) + 1
            self._window = 1
            self._tie_t = t
            self._tie_p = prio
        # Classify into a cached accumulator (name string built on miss).
        cls = event.__class__
        if cls is Process:
            key: Any = (cls, event.name)  # type: ignore[attr-defined]
        elif cls is _Initialize:
            key = (cls, event.process.name)  # type: ignore[attr-defined]
        else:
            callbacks = event.callbacks
            if callbacks:
                cb = callbacks[0]
                if cb.__class__ is MethodType:
                    receiver = cb.__self__
                    if receiver.__class__ is Process:
                        key = (cls, receiver)
                    else:
                        key = (cls, receiver.__class__, cb.__func__.__name__)
                else:
                    wrapped = getattr(cb, "__wrapped__", cb)
                    key = (cls, wrapped.__qualname__, None)
            else:
                key = (cls,)
        acc = self._cache.get(key)
        if acc is None:
            acc = self._intern(key)
        depth = len(self._heap)
        if depth > self.max_heap:
            self.max_heap = depth
        now = self._clock()  # repro: allow[DET101] -- host-side profiler telemetry
        last = self._last
        if last is None:
            # First observed step of a burst (or after a run() pause).
            self._burst_start = now
        else:
            # Intra-run deltas are the previous event's cost, however
            # long: run() boundaries are closed structurally by
            # run_pause(), so no cutoff heuristic is needed here.
            pending = self._pending
            pending[0] += 1
            pending[1] += now - last
        self._pending = acc
        self._last = now
        if not self._full:
            left = self._burst_left - 1
            if left:
                self._burst_left = left
            else:
                # Burst over: fold its span, enter the off phase.  This
                # last step's own duration is not charged (one event per
                # burst; the shares do not miss it).
                self.measured_wall += now - self._burst_start
                self._pending = None
                self._last = None
                self._close_window()
                self._burst_left = self._burst
                self._offs += 1
                self.skip = self._off

    def run_pause(self) -> None:
        """The kernel's ``run()`` loop exited (called from Simulator.run).

        Closes the in-flight wall window so host work *between* run
        segments (experiment setup, payload building, teardown) is never
        charged to a kernel bucket — attribution is structural, not a
        gap-length heuristic.  The tie census is untouched: virtual time
        continues across run() calls.
        """
        pending = self._pending
        if pending is not None:
            now = self._clock()  # repro: allow[DET101] -- host-side profiler telemetry
            pending[0] += 1
            pending[1] += now - self._last
            self.measured_wall += now - self._burst_start
        self._pending = None
        self._last = None

    def _intern(self, key: Any) -> List[float]:
        """Render the bucket name for a fresh classification key (cold)."""
        cls = key[0]
        arity = len(key)
        if arity == 1:
            name = "kernel;" + cls.__name__ + ";unwaited"
        elif cls is Process:
            name = "kernel;exit;proc:" + key[1]
        elif cls is _Initialize:
            name = "kernel;init;proc:" + key[1]
        elif arity == 2:  # (event class, Process instance): a resume
            name = "kernel;" + cls.__name__ + ";proc:" + key[1].name
        elif key[2] is None:  # (event class, callable qualname, None)
            name = (
                "kernel;" + cls.__name__ + ";call:"
                + key[1].replace(".<locals>", "")
            )
        else:  # (event class, receiver class, method name)
            name = (
                "kernel;" + cls.__name__ + ";call:"
                + key[1].__name__ + "." + key[2]
            )
        # Distinct keys may render to one name (two Process objects with
        # the same name; a respawned process): share one accumulator.
        acc = self.buckets.get(name)
        if acc is None:
            acc = self.buckets[name] = [0, 0.0]
        self._cache[key] = acc
        return acc

    # -- fluid hooks (called from repro.sim.fluid) ------------------------
    def fluid_event(self, share: str, kind: str) -> None:
        """A FluidShare mutation (set_speed / submit / cancel / ...).

        Exact in every mode: fluid updates are orders of magnitude rarer
        than steps, so these are not sampled.
        """
        entry = self.fluid.get(share)
        if entry is None:
            entry = self.fluid[share] = _fluid_entry()
        entry[kind] += 1

    def fluid_reschedule(self, share: str, fanout: int) -> None:
        """One rate recomputation touching ``fanout`` active flows.

        A share recomputes at most once per virtual instant, however many
        updates that instant made.
        """
        entry = self.fluid.get(share)
        if entry is None:
            entry = self.fluid[share] = _fluid_entry()
        entry["reschedules"] += 1
        entry["fanout_sum"] += fanout
        if fanout > entry["fanout_max"]:
            entry["fanout_max"] = fanout

    # -- window/burst bookkeeping -----------------------------------------
    def _close_window(self) -> None:
        w = self._window
        if w > 1:
            self.tie_windows += 1
            self.tied_events += w
            if w > self.max_tie_window:
                self.max_tie_window = w
            self.tie_census[w] = self.tie_census.get(w, 0) + 1
        self._window = 0
        self._tie_t = float("nan")
        self._tie_p = -1

    def _close_burst(self) -> None:
        pending = self._pending
        if pending is not None:
            now = self._clock()  # repro: allow[DET101] -- host-side profiler telemetry
            delta = now - self._last
            pending[0] += 1
            if delta > _EXTERNAL_CUTOFF:
                ext = self.buckets.get(_EXTERNAL)
                if ext is None:
                    ext = self.buckets[_EXTERNAL] = [0, 0.0]
                ext[0] += 1
                ext[1] += delta
            else:
                pending[1] += delta
            self.measured_wall += now - self._burst_start
        self._pending = None
        self._last = None

    # -- results -----------------------------------------------------------
    @property
    def steps(self) -> int:
        """Events processed while attached — exact in every mode.

        Observed steps are counted directly; skipped steps are recovered
        from the off-phase arithmetic (each completed off phase skipped
        exactly ``cycle - burst`` steps; ``skip`` is what remains of the
        current one; off phases cut short by a detach are folded into
        ``_skipped``).
        """
        return (
            self._sampled + self._skipped
            + self._off * self._offs - self.skip
        )

    @property
    def pushes(self) -> int:
        """Heap pushes while attached — exact in every mode, no per-push
        hook: each session's pushes are its steps plus its heap growth
        (every pushed event is either popped by a step or still queued).
        """
        live = 0
        if self._heap is not None:
            live = (
                (self.steps - self._steps_base)
                + len(self._heap) - self._heap_base
            )
        return self._pushes + live

    @property
    def sampled_steps(self) -> int:
        """Steps the profiler actually observed (== steps in full mode)."""
        return self._sampled

    @property
    def total_wall(self) -> float:
        """Seconds attributed across all buckets (external included)."""
        return sum(acc[1] for acc in self.buckets.values())

    @property
    def kernel_wall(self) -> float:
        """Seconds attributed to kernel buckets (external excluded)."""
        return sum(
            acc[1] for name, acc in self.buckets.items() if name != _EXTERNAL
        )

    @property
    def coverage(self) -> float:
        """Fraction of observed kernel wall-clock in named kernel buckets.

        The denominator is the span of every observed burst (first event
        to burst close); the numerator drops the ``external`` bucket
        (host time between run segments that happened to fall inside a
        burst).  The bench gate requires this to stay >= 0.95.
        """
        if self.measured_wall <= 0.0:
            return 1.0
        return min(1.0, self.kernel_wall / self.measured_wall)

    @property
    def event_mix(self) -> Dict[str, int]:
        """Observed event counts by kind — derived from the bucket counts:
        ``init`` / ``exit`` plus one entry per event class."""
        mix: Dict[str, int] = {}
        for name, acc in self.buckets.items():
            if name == _EXTERNAL:
                continue
            frame = name.split(";", 2)[1]
            mix[frame] = mix.get(frame, 0) + acc[0]
        return mix

    def summary(self) -> dict:
        """JSON-friendly profile.

        ``"sim"`` — and each wall bucket's ``count`` — is deterministic
        (a pure function of the seeded run; in burst mode the counts are
        deterministic *samples*); the wall-clock seconds are host
        telemetry and vary run to run.  Call after :meth:`detach`: an
        open attach session's in-flight window is not yet folded in.
        """
        fluid_totals = _fluid_entry()
        for entry in self.fluid.values():
            for key, value in entry.items():
                if key == "fanout_max":
                    fluid_totals[key] = max(fluid_totals[key], value)
                else:
                    fluid_totals[key] += value
        updates = (
            fluid_totals["set_speed"] + fluid_totals["set_weight"]
            + fluid_totals["set_cap"] + fluid_totals["submit"]
            + fluid_totals["cancel"]
        )
        total = self.total_wall
        wall_buckets = {
            name: {
                "count": acc[0],
                "seconds": round(acc[1], 6),
                "share": round(acc[1] / total, 4) if total > 0 else 0.0,
            }
            for name, acc in sorted(self.buckets.items())
        }
        return {
            "sim": {
                "steps": self.steps,
                "pushes": self.pushes,
                "max_heap": self.max_heap,
                "sampling": {
                    "mode": "full" if self._full else "burst",
                    "burst": self._burst,
                    "cycle": self._burst + self._off,
                    "sampled_steps": self._sampled,
                },
                "event_mix": dict(sorted(self.event_mix.items())),
                "ties": {
                    "windows": self.tie_windows,
                    "tied_events": self.tied_events,
                    "max_window": self.max_tie_window,
                    "census": {
                        str(size): count
                        for size, count in sorted(self.tie_census.items())
                    },
                },
                "fluid": {
                    "shares": {
                        name: dict(entry)
                        for name, entry in sorted(self.fluid.items())
                    },
                    "updates": updates,
                    "reschedules": fluid_totals["reschedules"],
                    "fanout_sum": fluid_totals["fanout_sum"],
                    "fanout_max": fluid_totals["fanout_max"],
                },
                "attaches": self.attaches,
            },
            "wall": {
                "total_s": round(total, 6),
                "kernel_s": round(self.kernel_wall, 6),
                "measured_s": round(self.measured_wall, 6),
                "coverage": round(self.coverage, 4),
                "buckets": wall_buckets,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<KernelProfiler steps={self.steps} "
            f"buckets={len(self.buckets)} wall={self.total_wall:.4f}s>"
        )


def to_folded(profiler: KernelProfiler) -> str:
    """Collapsed-stack flamegraph input: ``frame;frame value`` lines.

    Values are integer microseconds (flamegraph.pl / speedscope / inferno
    all take any integer unit).  Lines are sorted by stack so the set of
    stacks — everything but the values — is deterministic for a seeded
    run; the wall-clock values vary run to run.
    """
    lines = []
    for name, acc in sorted(profiler.buckets.items()):
        lines.append(f"{name} {int(round(acc[1] * 1e6))}")
    return "\n".join(lines)


def to_chrome_profile(profiler: KernelProfiler) -> dict:
    """Aggregated buckets as a chrome://tracing / Perfetto flame chart.

    Buckets are laid end to end (largest first) as complete (``X``)
    events on one synthetic track — a visual share-of-time breakdown,
    not a timeline.
    """
    events: List[dict] = []
    cursor = 0
    ranked = sorted(
        profiler.buckets.items(), key=lambda item: (-item[1][1], item[0])
    )
    for name, acc in ranked:
        duration = int(round(acc[1] * 1e6))
        frames = name.split(";")
        events.append(
            {
                "name": frames[-1],
                "cat": "kernel-profile",
                "ph": "X",
                "ts": cursor,
                "dur": duration,
                "pid": 1,
                "tid": 1,
                "args": {"stack": name, "count": acc[0]},
            }
        )
        cursor += duration
    return {
        "displayTimeUnit": "ms",
        "otherData": {"coverage": round(profiler.coverage, 4)},
        "traceEvents": events,
    }
