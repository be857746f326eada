"""The adaptation controller: monitor -> scheduler -> steering glue.

"Run-time adaptation is triggered whenever the [monitoring agent] detects
that the currently active application configuration no longer meets user
preferences of application quality, and is guided by the [performance
database]."

The controller owns one application instance's adaptation loop:

1. ``select_initial`` picks the starting configuration for the measured
   resource characteristics (automatic configuration in diverse
   environments);
2. once the app is running, ``attach``/``start`` arms the monitoring agent
   with the decision's validity region;
3. a violation re-invokes the scheduler at the *measured* resource point;
   a new decision goes to the steering agent and, after the switch is
   acknowledged, the monitor is retargeted to the new configuration;
4. a guard-rejected switch triggers negotiation: the scheduler re-selects
   with the rejected configuration excluded (bounded by
   ``max_negotiation_depth`` so a pathological database cannot walk the
   whole configuration space on one violation).

Fault tolerance: when attached together with a :class:`MonitorExchange`,
a liveness watchdog turns missing peer heartbeats into adaptation events —
a silent peer is declared lost (``"peer-lost"``), selection re-runs over
the degraded resource point (crashed host => zero availability,
``"degraded"``), and resumed heartbeats trigger a ``"peer-recovered"``
re-selection.  A steering handshake that never completes is abandoned by
the steering agent's ack timeout and recorded as ``"steering-timeout"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..obs import TraceRecorder
from ..profiling import ResourcePoint
from ..sim import URGENT
from ..tunable import AppRuntime, Configuration, MonitoringPlan
from .exchange import MonitorExchange
from .monitor import MonitoringAgent
from .scheduler import Decision, ResourceScheduler
from .steering import ControlMessage, SteeringAgent

__all__ = ["AdaptationController", "AdaptationEvent"]

#: Trace instant and counter of each adaptation event kind, in category
#: ``adapt``.  Any other kind is the reason of a forced switch or of its
#: release, traced as ``recovery.<kind>`` in category ``recovery``.
EVENT_TRACE: Dict[str, Tuple[str, Optional[str]]] = {
    "initial": ("config.initial", None),
    "trigger": ("monitor.violation", "adapt.violations"),
    "decision": ("sched.decision", "adapt.decisions"),
    "no-candidate": ("sched.no-candidate", None),
    "applied": ("adapt.applied", "adapt.applied"),
    "rejected": ("adapt.rejected", "adapt.rejected"),
    "steering-timeout": ("adapt.steering-timeout", None),
    "peer-lost": ("adapt.peer-lost", "adapt.peer_lost"),
    "peer-recovered": ("adapt.peer-recovered", "adapt.peer_recovered"),
    "degraded": ("adapt.degraded", None),
}


@dataclass
class AdaptationEvent:
    """One entry in the controller's event log.

    ``kind`` is one of: "initial", "trigger", "decision", "applied",
    "rejected", "no-candidate", "peer-lost", "peer-recovered",
    "steering-timeout", "degraded", "brownout-enter", "brownout-exit".
    """

    time: float
    kind: str
    config: Optional[Configuration] = None
    estimates: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-able form (fields in order); :meth:`from_dict` inverts it."""
        config = dict(self.config) if self.config is not None else None
        return dict(vars(self), config=config, estimates=dict(self.estimates))

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptationEvent":
        config = data["config"]
        return cls(
            float(data["time"]), data["kind"],
            Configuration(config) if config is not None else None,
            {k: float(v) for k, v in data["estimates"].items()},
        )


class AdaptationController:
    """Wires the run-time components together for one application."""

    def __init__(
        self,
        scheduler: ResourceScheduler,
        monitoring_plan: Optional[MonitoringPlan] = None,
        control_latency: float = 0.001,
        monitor_kwargs: Optional[dict] = None,
        settle_delay: Optional[float] = None,
        max_negotiation_depth: int = 8,
        steering_kwargs: Optional[dict] = None,
        watchdog_period: float = 1.0,
        peer_timeout: Optional[float] = None,
        recorder: Optional[TraceRecorder] = None,
    ):
        if max_negotiation_depth < 1:
            raise ValueError(
                f"max_negotiation_depth must be >= 1, got {max_negotiation_depth!r}"
            )
        self.scheduler = scheduler
        self.monitoring_plan = monitoring_plan
        self.control_latency = float(control_latency)
        self.monitor_kwargs = dict(monitor_kwargs or {})
        #: Extra arguments for the steering agent (e.g. ``ack_timeout``).
        self.steering_kwargs = dict(steering_kwargs or {})
        #: After a violation, wait this long before re-reading estimates and
        #: deciding, so the monitoring window fully covers the post-change
        #: regime instead of a transient mix.  Defaults to the monitor's
        #: history window.
        self.settle_delay = settle_delay
        #: Bound on negotiation recursion after rejected switches.
        self.max_negotiation_depth = int(max_negotiation_depth)
        #: Liveness-check period of the peer watchdog (needs an exchange).
        self.watchdog_period = float(watchdog_period)
        #: Heartbeat silence that declares a peer lost; defaults to four
        #: exchange publication periods.
        self.peer_timeout = peer_timeout
        #: Observability recorder.  Passing one explicitly lets the initial
        #: selection (which happens before any simulator exists) be traced;
        #: otherwise the recorder bound to the runtime's simulator
        #: (``sim.obs``) is discovered lazily at each instrumentation site.
        self.recorder = recorder
        self._settling = False
        self._pending_estimates: Optional[Dict[str, float]] = None
        #: The one control message awaiting its outcome (see :meth:`_steer`).
        self._inflight: Optional[ControlMessage] = None
        self.rt: Optional[AppRuntime] = None
        self.monitor: Optional[MonitoringAgent] = None
        self.steering: Optional[SteeringAgent] = None
        self.exchange: Optional[MonitorExchange] = None
        self.current_decision: Optional[Decision] = None
        self.events: List[AdaptationEvent] = []
        self.lost_peers: Set[str] = set()
        self._watchdog_stopped = False
        self._watchdog_proc = None
        #: While pinned (brownout), monitor violations do not steer away
        #: from the forced configuration.
        self._pinned = False
        #: Monitor state from a checkpoint, applied by the next attach().
        self._pending_monitor_state: Optional[Dict] = None

    # -- observability -----------------------------------------------------
    def _obs(self) -> Optional[TraceRecorder]:
        """The active recorder: explicit, else discovered via ``sim.obs``."""
        if self.recorder is None and self.rt is not None:
            return self.rt.sim.obs
        return self.recorder

    def _event(
        self,
        kind: str,
        config: Optional[Configuration] = None,
        estimates: Optional[Dict[str, float]] = None,
        parent: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
        counter: Optional[str] = None,
    ) -> Optional[int]:
        """Log one adaptation event; under a recorder, trace it as well.

        The kind's instant (see :data:`EVENT_TRACE`) shares the event's time
        (0 before :meth:`attach`) and carries the configuration's label, if
        any, then ``attrs``; the kind's counter, else ``counter``, is bumped
        after it.  Returns the instant's id, the causal link for what the
        event sets off.
        """
        t = self.rt.sim.now if self.rt is not None else 0.0
        self.events.append(AdaptationEvent(t, kind, config, dict(estimates or {})))
        obs = self._obs()
        if obs is None:
            return None
        cat = "adapt" if kind in EVENT_TRACE else "recovery"
        name, counter = EVENT_TRACE.get(kind, (f"recovery.{kind}", counter))
        if config is not None:
            attrs = {"config": config.label(), **(attrs or {})}
        sid = obs.instant(name, cat=cat, parent=parent, t=t, **(attrs or {}))
        if counter is not None:
            obs.metrics.counter(counter).inc()
        return sid

    # -- phase 1: initial configuration ------------------------------------
    def select_initial(self, point: ResourcePoint) -> Decision:
        """Choose the starting configuration for the measured resources."""
        obs = self._obs()
        if obs is not None:
            self.scheduler.obs = obs
        decision = self.scheduler.select(point)
        if decision is None:
            raise RuntimeError(
                f"no configuration satisfies any preference at {point.label()}"
            )
        self.current_decision = decision
        self._event("initial", decision.config)
        return decision

    # -- phase 2: run-time loop -----------------------------------------------
    def attach(
        self, rt: AppRuntime, exchange: Optional[MonitorExchange] = None
    ) -> "AdaptationController":
        """Bind to a running application instance and start monitoring.

        With an ``exchange``, the controller also runs the peer-liveness
        watchdog against the exchange's heartbeat record.
        """
        if self.current_decision is None:
            raise RuntimeError("call select_initial() before attach()")
        self.rt = rt
        if rt.sim.usage is not None:
            # Work served from here on belongs to the initial configuration
            # (until the steering agent records a switch at a safe point).
            rt.sim.usage.set_config(
                self.current_decision.config.label(), t=rt.sim.now
            )
        self.steering = SteeringAgent(
            rt, control_latency=self.control_latency, **self.steering_kwargs
        )
        watch = self._watch_list(self.current_decision.config)
        self.monitor = MonitoringAgent(
            rt,
            watch=watch,
            on_violation=self._on_violation,
            **self.monitor_kwargs,
        )
        if self._pending_monitor_state is not None:
            # Warm restart/failover: resume from the checkpointed monitor
            # state so estimates are available immediately instead of after
            # a full sampling window refill.
            self.monitor.restore(self._pending_monitor_state)
            self._pending_monitor_state = None
        self.monitor.retarget(conditions=self.current_decision.conditions)
        self.monitor.start()
        if exchange is not None:
            self.start_watchdog(exchange)
        return self

    def start_watchdog(self, exchange: MonitorExchange) -> None:
        """Bind an exchange and start the peer-liveness watchdog.

        Separate from :meth:`attach` because the exchange usually publishes
        the controller's own monitor — which only exists after attach.
        """
        if self.rt is None:
            raise RuntimeError("call attach() before start_watchdog()")
        self.exchange = exchange
        if exchange.peers:
            self._watchdog_stopped = False
            self._watchdog_proc = self.rt.sim.process(
                self._watchdog(), name="adaptation-watchdog"
            )
            rt = self.rt
            if rt.finished is not None and rt.finished.callbacks is not None:
                rt.finished.callbacks.append(lambda _e: self.stop_watchdog())

    def stop_watchdog(self) -> None:
        self._watchdog_stopped = True

    def _watch_list(self, config: Configuration) -> List[str]:
        if self.monitoring_plan is not None:
            resources = self.monitoring_plan.resources_for(config)
            if resources:
                return resources
        return list(self.scheduler.db.resource_dims)

    # -- peer liveness watchdog ---------------------------------------------
    def _watchdog(self):
        assert self.rt is not None and self.exchange is not None
        exchange = self.exchange
        timeout = (
            self.peer_timeout
            if self.peer_timeout is not None
            else 4.0 * exchange.period
        )
        start = self.rt.sim.now
        while not self._watchdog_stopped:
            # URGENT: the liveness check must observe peer state *before*
            # any message arriving at the same instant, so its view never
            # depends on the event queue's FIFO tiebreak (tie-order race).
            yield self.rt.sim.timeout(self.watchdog_period, priority=URGENT)
            if self._watchdog_stopped:
                return
            now = self.rt.sim.now
            exchange.expire_stale()
            for peer in exchange.peers:
                last = exchange.peer_last_seen.get(peer, start)
                alive = (now - last) <= timeout
                if not alive and peer not in self.lost_peers:
                    self.lost_peers.add(peer)
                    cause = self._event(
                        "peer-lost", estimates={"peer": peer}, attrs={"peer": peer}
                    )
                    self._degraded_reschedule(peer, cause=cause)
                elif alive and peer in self.lost_peers:
                    self.lost_peers.discard(peer)
                    cause = self._event(
                        "peer-recovered", estimates={"peer": peer}, attrs={"peer": peer}
                    )
                    self._reschedule(
                        self._global_estimates(), exclude=set(), cause=cause
                    )

    def _global_estimates(self) -> Dict[str, float]:
        if self.exchange is not None:
            return self.exchange.global_estimates()
        return self.monitor.estimates()

    def _degraded_reschedule(self, peer: str, cause: Optional[int] = None) -> None:
        """Re-select at the degraded point: the lost host contributes zero."""
        assert self.rt is not None and self.monitor is not None
        estimates = dict(self.monitor.estimates())
        for dim in self.scheduler.db.resource_dims:
            if dim.startswith(peer + "."):
                estimates[dim] = 0.0
        cause = self._event(
            "degraded", estimates=estimates, parent=cause,
            attrs={"peer": peer, "estimates": dict(sorted(estimates.items()))},
        )
        self._reschedule(estimates, exclude=set(), cause=cause)

    # -- violation handling -------------------------------------------------
    def _on_violation(self, estimates: Dict[str, float]) -> None:
        assert self.rt is not None and self.monitor is not None
        if self._pinned:
            # Brownout: the configuration is deliberately forced; violations
            # must not steer away until resume_normal() lifts the pin.
            return
        now = self.rt.sim.now
        cause = self._event(
            "trigger", estimates=estimates,
            attrs={"estimates": dict(sorted(estimates.items()))},
        )
        delay = (
            self.settle_delay
            if self.settle_delay is not None
            else self.monitor.window
        )
        if delay <= 0:
            self._reschedule(estimates, exclude=set(), cause=cause)
            return
        if self._settling:
            # A second violation during the settling window — possibly in a
            # *different* resource dimension.  Fold its estimates into the
            # pending decision instead of dropping them on the floor.
            if self._pending_estimates is not None:
                self._pending_estimates.update(estimates)
            return
        self._settling = True
        self._pending_estimates = dict(estimates)
        settle_span = None
        obs = self._obs()
        if obs is not None:
            settle_span = obs.begin("adapt.settle", cat="adapt", parent=cause)

        def decide() -> None:
            self._settling = False
            pending = self._pending_estimates or {}
            self._pending_estimates = None
            fresh = self.monitor.estimates()
            fresh = {**pending, **fresh}
            obs = self._obs()
            if obs is not None and settle_span is not None:
                obs.end(settle_span)
                obs.metrics.histogram(
                    "adapt.settle_latency", edges=(0.1, 0.5, 1.0, 2.0, 5.0)
                ).observe(self.rt.sim.now - now)
            self._reschedule(fresh, exclude=set(), cause=cause)

        self.rt.sim.schedule_callback(delay, decide)

    def _measured_point(self, estimates: Dict[str, float]) -> ResourcePoint:
        """Fill unmeasured dimensions from the last decision's point."""
        base = dict(self.current_decision.point) if self.current_decision else {}
        base.update(estimates)
        return ResourcePoint(
            {d: base[d] for d in self.scheduler.db.resource_dims if d in base}
        )

    def _reschedule(
        self,
        estimates: Dict[str, float],
        exclude: Set[Configuration],
        depth: int = 0,
        cause: Optional[int] = None,
    ) -> None:
        assert self.rt is not None and self.steering is not None
        obs = self._obs()
        if obs is not None:
            self.scheduler.obs = obs
        # Negotiation is bounded: a pathological database could otherwise
        # recurse through every configuration on a single violation.
        decision = None
        reason = "negotiation-exhausted"
        if depth < self.max_negotiation_depth:
            point = self._measured_point(estimates)
            decision = self.scheduler.select(point, exclude=exclude)
            reason = "no-feasible-config"
        if decision is None:
            self._event(
                "no-candidate", parent=cause, attrs={"reason": reason, "depth": depth}
            )
            return
        decision_id = self._event(
            "decision", decision.config, parent=cause,
            attrs={"depth": depth, "point": decision.point.label()},
        )
        if obs is not None:
            obs.metrics.histogram(
                "adapt.negotiation_depth", edges=(0, 1, 2, 4, 8)
            ).observe(depth)
        if decision.config == self.rt.controls.current:
            # Same configuration remains best; just refresh the validity
            # region so the monitor re-arms around the new conditions.
            self.current_decision = decision
            self.monitor.retarget(conditions=decision.conditions)
            return
        inflight = self._inflight
        if inflight is not None and inflight.decision.config == decision.config:
            # An identical request is already awaiting its ack;
            # re-posting it would only supersede itself.
            return
        self._steer(decision, decision_id, exclude=exclude, depth=depth)

    def _steer(
        self,
        decision: Decision,
        cause: Optional[int],
        exclude: Optional[Set[Configuration]] = None,
        depth: int = 0,
    ) -> None:
        """Post ``decision`` to the steering agent as the in-flight message.

        A new post replaces the message in flight, which is how a newer
        request supersedes an older one.  The superseded message may still
        be applied (at a safe point before the newer one is posted) or time
        out; only its rejection, the echo of being replaced, is ignored.  A
        guard rejection negotiates the next best configuration outside
        ``exclude``, unless ``exclude`` is None (a forced switch).
        """
        message = ControlMessage(decision=decision, cause=cause)
        self._inflight = message

        def on_done(outcome: str) -> None:
            superseded = self._inflight is not message
            if not superseded:
                self._inflight = None
            config = decision.config
            link = message.span if message.span is not None else cause
            if outcome == "ack":
                self.current_decision = decision
                self._event("applied", config, parent=link)
                self.monitor.retarget(
                    watch=self._watch_list(config), conditions=decision.conditions
                )
            elif outcome == "timeout":
                # The application is stalled (crash/partition), not refusing
                # this configuration: no negotiation.  The watchdog or the
                # next violation re-triggers adaptation.
                self._event("steering-timeout", config, parent=link)
            elif exclude is not None and not superseded:
                rejected_id = self._event("rejected", config, parent=link)
                # Negotiation: ask for the next best configuration.
                self._reschedule(
                    dict(decision.point), exclude | {config}, depth + 1,
                    cause=rejected_id,
                )

        message.on_done = on_done
        self.steering.deliver(message)

    # -- forced steering (brownout) -------------------------------------------
    def force_config(self, config: Configuration, reason: str = "brownout-enter") -> None:
        """Steer directly to ``config``, bypassing the scheduler, and pin it.

        Used by the brownout controller: under sustained overload the best
        move is a *known cheaper* configuration, not whatever the database
        predicts from (overload-polluted) estimates.  While pinned, monitor
        violations are suppressed; :meth:`resume_normal` lifts the pin.
        """
        assert self.steering is not None and self.current_decision is not None
        self._pinned = True
        cause = self._event(reason, config, counter="recovery.forced_switches")
        if config == self.rt.controls.current:
            return
        # Empty conditions: nothing to violate while pinned.
        decision = replace(
            self.current_decision, config=config, predicted={}, conditions={}
        )
        self._steer(decision, cause)

    def resume_normal(self, reason: str = "brownout-exit") -> None:
        """Lift a forced-configuration pin and re-run normal selection."""
        assert self.rt is not None
        if not self._pinned:
            return
        self._pinned = False
        cause = self._event(reason)
        self._reschedule(self._global_estimates(), exclude=set(), cause=cause)

    # -- checkpoint/restore ----------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-data state for warm restart and failover replication.

        Covers the decision (reconstructable: the constraint is referenced
        by preference-list index), lost-peer set, and the monitor's state.
        The event log is observational and stays with the instance.
        """
        d = self.current_decision
        decision_state = None
        if d is not None:
            decision_state = {
                "values": dict(d.config),
                "predicted": dict(d.predicted),
                "constraint_index": d.constraint_index,
                "point": dict(d.point),
                "conditions": {r: list(b) for r, b in d.conditions.items()},
            }
        return {
            "decision": decision_state,
            "lost_peers": sorted(self.lost_peers),
            "pinned": self._pinned,
            "monitor": (
                self.monitor.snapshot() if self.monitor is not None else None
            ),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt checkpointed state; call before :meth:`attach`.

        The monitor part is deferred: attach() creates the fresh
        MonitoringAgent and applies it there.
        """
        d = state.get("decision")
        if d is not None:
            constraints = list(self.scheduler.preference)
            idx = int(d["constraint_index"])
            self.current_decision = Decision(
                config=Configuration(dict(d["values"])),
                predicted=dict(d["predicted"]),
                constraint=constraints[idx],
                constraint_index=idx,
                point=ResourcePoint(dict(d["point"])),
                conditions={
                    r: (b[0], b[1]) for r, b in dict(d["conditions"]).items()
                },
            )
        self.lost_peers = set(state.get("lost_peers", ()))
        self._pinned = bool(state.get("pinned", False))
        self._pending_monitor_state = state.get("monitor")

    # -- introspection ---------------------------------------------------------
    @property
    def switch_times(self) -> List[Tuple[float, Configuration]]:
        return [(e.time, e.config) for e in self.events if e.kind == "applied"]
