"""Per-layer timing for the traced run.

:class:`LayerTracer` replaces the entry points of each ``repro`` layer
(its public methods, plus the trace recorder's kernel hook) with timing
wrappers, in the process that calls :meth:`LayerTracer.install` only.
Every wrapped call becomes a span ``(id, name, start, end, parent,
iteration)``; a span's self time is its duration minus that of its
direct child spans.  Spans are folded into per-name ``[calls, self_s]``
totals as they close, and kept raw only for an iteration that
:meth:`LayerTracer.begin_iteration` asks to record, so memory stays
bounded.

Spans come from call boundaries, not from inside the program:
``Simulator.step`` self time therefore still includes process resumes
and every callback that is not itself wrapped.
"""

from __future__ import annotations

from statistics import mean
from time import perf_counter  # repro: allow[DET101] -- benchmark harness timing
from typing import Dict, List, Optional, Tuple

__all__ = ["LAYER_METRICS", "LayerTracer", "layer_metrics"]

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.step.calls": "count",
    "sim.step.self_s": "s",
    "sim.ns_per_event": "ns",
    "sim.spawns": "count",
    "sim.spawn.self_s": "s",
    "sim.callbacks": "count",
    "sim.callback.self_s": "s",
    "sim.store.ops": "count",
    "sim.store.self_s": "s",
    "sim.fluid.calls": "count",
    "sim.fluid.self_s": "s",
    "sim.fluid.ns_per_call": "ns",
    "sim.fluid.mean_active": "count",
    "sim.fluid.max_active": "count",
    "sim.aggregate.calls": "count",
    "sim.aggregate.self_s": "s",
    "cluster.net.sends": "count",
    "cluster.net.self_s": "s",
    "cluster.link.transfers": "count",
    "cluster.link.self_s": "s",
    "sandbox.testbeds": "count",
    "sandbox.testbed.self_s": "s",
    "sandbox.compute.calls": "count",
    "sandbox.compute.self_s": "s",
    "tunable.instantiate.calls": "count",
    "tunable.instantiate.self_s": "s",
    "profiling.measure.calls": "count",
    "profiling.measure.self_s": "s",
    "profiling.predict.calls": "count",
    "profiling.predict.us_per_call": "us",
    "runtime.select.calls": "count",
    "runtime.select.self_s": "s",
    "runtime.switch_ratio": "ratio",
    "faults.gate.calls": "count",
    "faults.gate.self_s": "s",
    "recovery.admit.calls": "count",
    "recovery.shed_ratio": "ratio",
    "recovery.checkpoint.calls": "count",
    "recovery.checkpoint.self_s": "s",
    "crowd.requests": "count",
    "crowd.requests_per_s": "1/s",
    "obs.spans": "count",
    "obs.self_s": "s",
    "exec.sweeps": "count",
    "exec.self_s": "s",
    "codecs.calls": "count",
    "codecs.self_s": "s",
    "experiments.import_s": "s",
    "experiments.cold_extra_s": "s",
    "bench.trace_overhead": "ratio",
}

#: (package, class, attribute) of every wrapped call.  Spans are named
#: ``Class.attribute``.
_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim", "Simulator", "step"),
    ("repro.sim", "Simulator", "schedule_callback"),
    ("repro.sim", "Process", "__init__"),
    ("repro.sim", "Store", "put"),
    ("repro.sim", "Store", "get"),
    ("repro.sim", "FluidShare", "submit"),
    ("repro.sim", "FluidShare", "add_work"),
    ("repro.sim", "FluidShare", "set_weight"),
    ("repro.sim", "FluidShare", "set_cap"),
    ("repro.sim", "FluidShare", "set_speed"),
    ("repro.sim", "FluidShare", "cancel"),
    ("repro.sim", "AggregateFlow", "add"),
    ("repro.sim", "AggregateFlow", "set_rate"),
    ("repro.sim", "AggregateFlow", "set_weight"),
    ("repro.cluster", "Network", "send"),
    ("repro.cluster", "Link", "transfer"),
    ("repro.sandbox", "Testbed", "__init__"),
    ("repro.sandbox", "Sandbox", "compute"),
    ("repro.tunable", "TunableApp", "instantiate"),
    ("repro.profiling", "ProfilingDriver", "measure"),
    ("repro.profiling", "PerformanceDatabase", "predict"),
    ("repro.runtime", "ResourceScheduler", "select"),
    ("repro.faults", "FaultInjector", "gate"),
    ("repro.recovery", "OverloadGuard", "admit"),
    ("repro.recovery", "CheckpointStore", "save"),
    # The recorder's kernel hook and record constructor carry nearly all
    # of its cost; the public begin/end/instant/span are thin over them.
    ("repro.obs", "TraceRecorder", "_step_hook"),
    ("repro.obs", "TraceRecorder", "_record"),
    ("repro.obs", "TraceRecorder", "begin"),
    ("repro.obs", "TraceRecorder", "end"),
    ("repro.obs", "TraceRecorder", "instant"),
    ("repro.obs", "TraceRecorder", "span"),
    ("repro.exec", "SweepEngine", "run"),
    ("repro.codecs", "Codec", "ratio"),
    ("repro.codecs", "WaveletPyramid", "__init__"),
)

_FLUID = tuple(f"FluidShare.{a}" for a in (
    "submit", "add_work", "set_weight", "set_cap", "set_speed", "cancel"))
_AGGREGATE = ("AggregateFlow.add", "AggregateFlow.set_rate",
              "AggregateFlow.set_weight")
_OBS = tuple(f"TraceRecorder.{a}" for a in (
    "_step_hook", "_record", "begin", "end", "instant", "span"))
_CODECS = ("Codec.ratio", "WaveletPyramid.__init__")


class LayerTracer:
    """Installs, records and removes the per-layer timing wrappers."""

    def __init__(self) -> None:
        #: span name -> [calls, self seconds] for the current iteration.
        self.totals: Dict[str, List[float]] = {}
        #: Raw spans of the recorded iteration (None when not recording).
        self.spans: Optional[List[tuple]] = None
        #: ``FluidShare.active_jobs`` read after every submit.
        self.active: List[int] = []
        #: ``OverloadGuard.admit`` calls that returned False.
        self.shed = 0
        #: One kernel profiler per simulator built while installed; their
        #: exact step counts are ``sim.events``.
        self.profilers: list = []
        self.iteration = 0
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: list = []

    def install(self) -> None:
        import importlib

        from repro.obs import KernelProfiler

        after = {
            "FluidShare.submit":
                lambda share, _job: self.active.append(share.active_jobs),
            "OverloadGuard.admit": self._count_shed,
        }
        for package, cls_name, attr in _CALLS:
            cls = getattr(importlib.import_module(package), cls_name)
            name = f"{cls_name}.{attr}"
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr],
                                              after.get(name)))
        sim_cls = importlib.import_module("repro.sim").Simulator
        sim_init = sim_cls.__dict__["__init__"]

        def init(sim, *args, **kwargs):
            sim_init(sim, *args, **kwargs)
            self.profilers.append(KernelProfiler().attach(sim))

        self._patch(sim_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def begin_iteration(self, iteration: int, record: bool) -> None:
        """Zero the totals; keep raw spans of this iteration if ``record``."""
        self.iteration = iteration
        self.spans = [] if record else None
        for acc in self.totals.values():
            acc[0] = 0
            acc[1] = 0.0
        self.active = []
        self.shed = 0
        self.profilers = []

    def events(self) -> int:
        return sum(p.steps for p in self.profilers)

    def _count_shed(self, _guard, admitted) -> None:
        if not admitted:
            self.shed += 1

    def _patch(self, cls, attr: str, replacement) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap(self, name: str, fn, after):
        acc = self.totals.setdefault(name, [0, 0.0])
        stack = self._stack
        tracer = self

        def timed(*args, **kwargs):
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_counter()  # repro: allow[DET101] -- benchmark harness timing
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()  # repro: allow[DET101] -- benchmark harness timing
                stack.pop()
                duration = t1 - t0
                acc[0] += 1
                acc[1] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if tracer.spans is not None:
                    tracer.spans.append((
                        frame[0], name, t0, t1,
                        parent[0] if parent is not None else None,
                        tracer.iteration,
                    ))
            if after is not None:
                after(args[0], result)
            return result

        timed.__wrapped__ = fn
        return timed


def _calls(totals, names) -> int:
    return int(sum(totals.get(n, (0, 0.0))[0] for n in names))


def _self_s(totals, names) -> float:
    return float(sum(totals.get(n, (0, 0.0))[1] for n in names))


def _per(value: float, count: float, scale: float) -> float:
    return value / count * scale if count else 0.0


def layer_metrics(tracer: LayerTracer, switches: int) -> Dict[str, float]:
    """Metrics of one traced iteration from the tracer's current totals.

    The codec, crowd-rate, import and overhead metrics are filled in by
    the caller: they need the cold iteration or untraced timings.
    """
    t = tracer.totals
    events = tracer.events()
    step_self = _self_s(t, ["Simulator.step"])
    fluid_calls = _calls(t, _FLUID)
    fluid_self = _self_s(t, _FLUID)
    predicts = _calls(t, ["PerformanceDatabase.predict"])
    selects = _calls(t, ["ResourceScheduler.select"])
    admits = _calls(t, ["OverloadGuard.admit"])
    return {
        "sim.events": events,
        "sim.step.calls": _calls(t, ["Simulator.step"]),
        "sim.step.self_s": step_self,
        "sim.ns_per_event": _per(step_self, events, 1e9),
        "sim.spawns": _calls(t, ["Process.__init__"]),
        "sim.spawn.self_s": _self_s(t, ["Process.__init__"]),
        "sim.callbacks": _calls(t, ["Simulator.schedule_callback"]),
        "sim.callback.self_s": _self_s(t, ["Simulator.schedule_callback"]),
        "sim.store.ops": _calls(t, ["Store.put", "Store.get"]),
        "sim.store.self_s": _self_s(t, ["Store.put", "Store.get"]),
        "sim.fluid.calls": fluid_calls,
        "sim.fluid.self_s": fluid_self,
        "sim.fluid.ns_per_call": _per(fluid_self, fluid_calls, 1e9),
        "sim.fluid.mean_active": mean(tracer.active) if tracer.active else 0.0,
        "sim.fluid.max_active": max(tracer.active, default=0),
        "sim.aggregate.calls": _calls(t, _AGGREGATE),
        "sim.aggregate.self_s": _self_s(t, _AGGREGATE),
        "cluster.net.sends": _calls(t, ["Network.send"]),
        "cluster.net.self_s": _self_s(t, ["Network.send"]),
        "cluster.link.transfers": _calls(t, ["Link.transfer"]),
        "cluster.link.self_s": _self_s(t, ["Link.transfer"]),
        "sandbox.testbeds": _calls(t, ["Testbed.__init__"]),
        "sandbox.testbed.self_s": _self_s(t, ["Testbed.__init__"]),
        "sandbox.compute.calls": _calls(t, ["Sandbox.compute"]),
        "sandbox.compute.self_s": _self_s(t, ["Sandbox.compute"]),
        "tunable.instantiate.calls": _calls(t, ["TunableApp.instantiate"]),
        "tunable.instantiate.self_s": _self_s(t, ["TunableApp.instantiate"]),
        "profiling.measure.calls": _calls(t, ["ProfilingDriver.measure"]),
        "profiling.measure.self_s": _self_s(t, ["ProfilingDriver.measure"]),
        "profiling.predict.calls": predicts,
        "profiling.predict.us_per_call": _per(
            _self_s(t, ["PerformanceDatabase.predict"]), predicts, 1e6),
        "runtime.select.calls": selects,
        "runtime.select.self_s": _self_s(t, ["ResourceScheduler.select"]),
        "runtime.switch_ratio": _per(switches, selects, 1.0),
        "faults.gate.calls": _calls(t, ["FaultInjector.gate"]),
        "faults.gate.self_s": _self_s(t, ["FaultInjector.gate"]),
        "recovery.admit.calls": admits,
        "recovery.shed_ratio": _per(tracer.shed, admits, 1.0),
        "recovery.checkpoint.calls": _calls(t, ["CheckpointStore.save"]),
        "recovery.checkpoint.self_s": _self_s(t, ["CheckpointStore.save"]),
        "obs.spans": _calls(t, ["TraceRecorder._record"]),
        "obs.self_s": _self_s(t, _OBS),
        "exec.sweeps": _calls(t, ["SweepEngine.run"]),
        "exec.self_s": _self_s(t, ["SweepEngine.run"]),
        "codecs.calls": _calls(t, _CODECS),
        "codecs.self_s": _self_s(t, _CODECS),
    }
