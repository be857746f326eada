"""The monitoring agent (Section 6.1).

Runs as a periodic process beside the application (default every 10 ms, as
in the paper), estimating the fraction of each relevant resource actually
available to the application:

- **cpu**: allotted CPU work vs. wall-clock time, *factoring in periods
  where the application is waiting* (the sandbox's runnable-time
  accounting);
- **network**: observed effective rate of recent transfers (bytes over
  transfer duration, which includes any shaping the environment applies);
- **memory**: resident-limit fraction of the sandbox's allocated pages.

The agent is configuration-specific: it watches only the resources the
active configuration's execution path uses (the preprocessor's
:class:`~repro.tunable.MonitoringPlan`), and it notifies the scheduler only
when an estimate leaves the current decision's validity region.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..sandbox import Sandbox
from ..sandbox.sandbox import TransferLog
from ..sim import Process, Simulator
from ..tunable import AppRuntime
from .history import HistoryWindow

__all__ = ["SystemMonitor", "MonitoringAgent"]


class SystemMonitor:
    """System-wide resource capacity registry.

    "...relying on a system-wide monitor to provide information about
    maximum capacities of system resources (CPU speed, physical memory
    pages, network bandwidth, etc.)."
    """

    def __init__(self) -> None:
        self._capacities: Dict[str, float] = {}

    def register(self, resource: str, capacity: float) -> None:
        self._capacities[resource] = float(capacity)

    def capacity(self, resource: str) -> float:
        try:
            return self._capacities[resource]
        except KeyError:
            raise KeyError(f"no registered capacity for {resource!r}") from None

    @staticmethod
    def from_runtime(rt: AppRuntime) -> "SystemMonitor":
        """Capacities of every host the application runs on."""
        monitor = SystemMonitor()
        for host_name, sandbox in rt.sandboxes.items():
            host = sandbox.host
            monitor.register(f"{host_name}.cpu", host.cpu.speed)
            monitor.register(f"{host_name}.memory", float(host.memory.total_pages))
            monitor.register(f"{host_name}.disk", host.disk.bandwidth)
            # Network capacity: the fastest outbound link of the host.
            best_bw = 0.0
            if host.network is not None:
                for (a, _b), link in host.network._links.items():
                    if a == host_name:
                        best_bw = max(best_bw, link.bandwidth)
            monitor.register(f"{host_name}.network", best_bw)
        return monitor


class MonitoringAgent:
    """Application-specific periodic resource-availability estimation."""

    def __init__(
        self,
        rt: AppRuntime,
        watch: List[str],
        period: float = 0.010,
        window: float = 0.5,
        hysteresis: float = 0.05,
        cooldown: float = 0.5,
        on_violation: Optional[Callable[[Dict[str, float]], None]] = None,
        crowd=None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        self.rt = rt
        self.sim: Simulator = rt.sim
        self.watch = list(watch)
        self.period = float(period)
        self.window = float(window)
        #: Relative margin the estimate must cross beyond the validity bound
        #: before a violation fires (suppresses noise-induced thrash).
        self.hysteresis = float(hysteresis)
        #: Minimum time between violation notifications.
        self.cooldown = float(cooldown)
        self.on_violation = on_violation
        #: Messages smaller than this do not contribute bandwidth samples.
        self.min_sample_bytes = 4096.0
        #: Optional :class:`repro.crowd.CrowdSource` whose columnar tallies
        #: back ``crowd.<class>.{qos,rate,inflight}`` watch entries.
        self.crowd = crowd
        self.system = SystemMonitor.from_runtime(rt)

        #: resource -> (lo, hi) validity bounds from the current decision.
        #: Written only through :meth:`retarget` and :meth:`restore`, which
        #: also recompute ``_triggers``.
        self.conditions: Dict[str, Tuple[float, float]] = {}
        #: (history, low trigger, high trigger) per watched resource with a
        #: condition: the validity bounds widened by the hysteresis margin.
        self._triggers: List[Tuple[HistoryWindow, float, float]] = []
        self._histories: Dict[str, HistoryWindow] = {
            r: HistoryWindow(window) for r in self.watch
        }
        #: The watch list parsed once: (resource, host, kind) per entry, and
        #: (resource, class, kind) per ``crowd.<class>.<kind>`` entry.
        self._entries: List[Tuple[str, str, str]] = []
        self._crowd_entries: List[Tuple[str, str, str]] = []
        #: resource -> its (recv, send) keys into ``_net_seen``.
        self._net_keys: Dict[str, Tuple[str, str]] = {}
        self._parse_watch()
        self._cpu_anchor: Dict[str, Tuple[float, float]] = {}
        self._crowd_anchor: Dict[str, Tuple[float, float, float]] = {}
        self._net_seen: Dict[str, int] = {}
        self._last_trigger = -float("inf")
        self._stopped = False
        self.violations = 0
        self.process: Optional[Process] = None
        #: Cached (recorder, samples-counter) pair for the hot _run loop.
        self._obs_seen = None
        self._samples_counter = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "MonitoringAgent":
        self.process = self.sim.process(self._run(), name="monitoring-agent")
        if self.rt.finished is not None and self.rt.finished.callbacks is not None:
            self.rt.finished.callbacks.append(lambda _e: self.stop())
        return self

    def stop(self) -> None:
        self._stopped = True

    def retarget(
        self,
        watch: Optional[List[str]] = None,
        conditions: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        """Customize the agent to a new active configuration/decision."""
        if watch is not None:
            self.watch = list(watch)
            for r in self.watch:
                self._histories.setdefault(r, HistoryWindow(self.window))
            self._parse_watch()
        if conditions is not None:
            self.conditions = dict(conditions)
        self._arm_triggers()

    def _parse_watch(self) -> None:
        self._entries = []
        self._crowd_entries = []
        for resource in self.watch:
            host, _, kind = resource.partition(".")
            if host == "crowd":
                cls, _, kind = kind.partition(".")
                self._crowd_entries.append((resource, cls, kind))
            else:
                self._entries.append((resource, host, kind))
                if kind == "network":
                    self._net_keys[resource] = (f"{resource}:recv", f"{resource}:send")

    def _arm_triggers(self) -> None:
        """Precompute the violation thresholds of the watched conditions."""
        triggers = []
        for resource, (lo, hi) in self.conditions.items():
            hist = self._histories.get(resource)
            if hist is None or resource not in self.watch:
                continue
            # True hysteresis: the estimate must cross the bound by the
            # margin before we bother the scheduler.
            lo_margin = self.hysteresis * max(abs(lo), 1e-12)
            hi_margin = self.hysteresis * max(abs(hi), 1e-12)
            triggers.append((
                hist,
                lo - lo_margin if math.isfinite(lo) else -math.inf,
                hi + hi_margin if math.isfinite(hi) else math.inf,
            ))
        self._triggers = triggers

    # -- checkpoint/restore ----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data state for a warm restart (see repro.recovery).

        The histories are the valuable part: a cold agent needs several
        sample periods (and, for bandwidth, a completed large transfer)
        before ``estimates()`` says anything, while a restored agent can
        answer immediately — that gap is exactly the warm-vs-cold MTTR
        difference the recovery benchmark measures.
        """
        return {
            "watch": list(self.watch),
            "conditions": {r: list(b) for r, b in self.conditions.items()},
            "histories": {
                r: [list(s) for s in h.samples()]
                for r, h in sorted(self._histories.items())
            },
            "cpu_anchor": {r: list(a) for r, a in self._cpu_anchor.items()},
            "crowd_anchor": {r: list(a) for r, a in self._crowd_anchor.items()},
            "net_seen": dict(self._net_seen),
            "last_trigger": self._last_trigger,
            "violations": self.violations,
        }

    def restore(self, state: Dict[str, object]) -> None:
        self.watch = list(state.get("watch", self.watch))
        self.conditions = {
            r: (b[0], b[1]) for r, b in dict(state.get("conditions", {})).items()
        }
        self._histories = {}
        for r, samples in dict(state.get("histories", {})).items():
            hist = HistoryWindow(self.window)
            for t, v in samples:
                hist.record(t, v)
            self._histories[r] = hist
        for r in self.watch:
            self._histories.setdefault(r, HistoryWindow(self.window))
        self._parse_watch()
        self._arm_triggers()
        self._cpu_anchor = {
            r: (a[0], a[1]) for r, a in dict(state.get("cpu_anchor", {})).items()
        }
        self._crowd_anchor = {
            r: tuple(a) for r, a in dict(state.get("crowd_anchor", {})).items()
        }
        self._net_seen = dict(state.get("net_seen", {}))
        self._last_trigger = state.get("last_trigger", -float("inf"))
        self.violations = int(state.get("violations", 0))

    # -- estimation ------------------------------------------------------------
    def estimates(self) -> Dict[str, float]:
        """Latest windowed availability estimate per watched resource."""
        out = {}
        for resource in self.watch:
            hist = self._histories.get(resource)
            if hist is not None and not hist.empty:
                out[resource] = hist.mean()
        return out

    def _sample(self) -> None:
        now = self.sim.now
        sandboxes = self.rt.sandboxes
        for resource, host, kind in self._entries:
            sandbox = sandboxes.get(host)
            if sandbox is None:
                continue
            if kind == "cpu":
                self._sample_cpu(resource, sandbox, now)
            elif kind == "network":
                recv_key, send_key = self._net_keys[resource]
                self._sample_transfers(resource, recv_key, sandbox.recv_log)
                self._sample_transfers(resource, send_key, sandbox.send_log)
            elif kind == "memory":
                self._sample_memory(resource, sandbox, now)
            elif kind == "disk":
                self._sample_transfers(resource, f"{resource}:ops", sandbox.disk_log)
        # Crowd reads are pure, so sampling them after the sandboxes is the
        # same as sampling in watch order.
        if self._crowd_entries and self.crowd is not None:
            stats = self.crowd.stats()  # one columnar snapshot per period
            for resource, cls, kind in self._crowd_entries:
                self._sample_crowd(resource, cls, kind, stats, now)

    def _sample_crowd(
        self, resource: str, cls: str, kind: str, stats: Dict, now: float
    ) -> None:
        """Estimates from a CrowdSource's cumulative per-class tallies.

        ``crowd.<class>.qos`` is the satisfaction fraction of outcomes
        resolved since the previous sample, ``crowd.<class>.rate`` the
        realized issue rate (req/s), and ``crowd.<class>.inflight`` the
        instantaneous outstanding-request count.  All three are pure
        reads of columnar state — sampling never perturbs the crowd.
        """
        row = stats.get(cls)
        if row is None:
            return
        if kind == "inflight":
            self._histories[resource].record(now, float(row["inflight"]))
            return
        anchor = self._crowd_anchor.get(resource)
        cur = (float(row["satisfied"]), float(row["violated"]), float(row["issued"]))
        self._crowd_anchor[resource] = cur
        if anchor is None:
            return
        if kind == "qos":
            resolved = (cur[0] - anchor[0]) + (cur[1] - anchor[1])
            if resolved <= 0:
                return  # nothing resolved this period: no signal
            self._histories[resource].record(now, (cur[0] - anchor[0]) / resolved)
        elif kind == "rate":
            self._histories[resource].record(now, (cur[2] - anchor[2]) / self.period)

    def _sample_cpu(self, resource: str, sandbox: Sandbox, now: float) -> None:
        consumed = sandbox.cpu_consumed()
        runnable = sandbox.runnable_time()
        anchor = self._cpu_anchor.get(resource)
        self._cpu_anchor[resource] = (consumed, runnable)
        if anchor is None:
            return
        d_consumed = consumed - anchor[0]
        d_runnable = runnable - anchor[1]
        if d_runnable <= 1e-9:
            return  # app was blocked the whole interval: no signal
        speed = self.system.capacity(resource)
        if speed <= 0:
            return
        share = min(1.0, d_consumed / (speed * d_runnable))
        self._histories[resource].record(now, share)

    def _sample_transfers(self, resource: str, key: str, log: TransferLog) -> None:
        """Effective bandwidth from transfers finished since the last tick.

        Packet-train estimator: for back-to-back transfers the meaningful
        interval is the time since the *previous* one ended (the pipe drains
        continuously), not this transfer's own queueing delay — otherwise
        backlog debt is double-counted and the estimate biases low.
        """
        seen = self._net_seen.get(key)
        if seen is None:
            seen = 0  # first visit records the key, as snapshots show
        elif seen == log.offset:
            return  # nothing finished since the last tick
        # ``seen`` is an absolute index: re-anchor it past whatever the
        # bounded log trimmed off its front.
        start_idx = max(0, seen - log.dropped)
        prev_end = log[start_idx - 1][1] if start_idx > 0 else float("-inf")
        for start, end, size in log[start_idx:]:
            duration = end - max(start, prev_end)
            # Skip control-sized transfers: their timing is dominated by
            # per-message latency, not bandwidth.
            if duration > 1e-9 and size >= self.min_sample_bytes:
                self._histories[resource].record(end, size / duration)
            prev_end = end
        self._net_seen[key] = log.offset

    def _sample_memory(self, resource: str, sandbox: Sandbox, now: float) -> None:
        space = sandbox.mem_space
        if space is None or space.allocated_pages == 0:
            return
        self._histories[resource].record(
            now, float(space.resident_limit)
        )

    # -- violation detection ----------------------------------------------------
    def _check_conditions(self) -> Optional[Dict[str, float]]:
        """All estimates if any watched condition is violated, else None.

        Reads only the windows that carry a condition; the full estimates
        are built only when a violation is returned.
        """
        for hist, low, high in self._triggers:
            est = hist.mean()
            if est is not None and (est < low or est > high):
                return self.estimates()
        return None

    def _run(self):
        while not self._stopped:
            yield self.sim.timeout(self.period)
            if self._stopped:
                return
            self._sample()
            obs = self.sim.obs
            if obs is not None:
                # Cache the counter per bound recorder: this loop runs once
                # per monitor period, so the registry lookup is hot.
                if obs is not self._obs_seen:
                    self._obs_seen = obs
                    self._samples_counter = obs.metrics.counter("monitor.samples")
                self._samples_counter.inc()
            if self.on_violation is None or not self.conditions:
                continue
            if self.sim.now - self._last_trigger < self.cooldown:
                continue
            violation = self._check_conditions()
            if violation is not None:
                self.violations += 1
                self._last_trigger = self.sim.now
                if obs is not None:
                    obs.metrics.counter("monitor.violations").inc()
                self.on_violation(violation)
