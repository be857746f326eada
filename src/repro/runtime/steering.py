"""The steering agent (Section 6.3).

Receives control messages from the resource scheduler (new control-parameter
values plus the resource conditions under which they are valid), posts them
to the application's :class:`~repro.tunable.ControlBox`, and acknowledges
once the change takes effect at a task boundary / transition point.  When a
transition guard rejects the switch, the steering agent reports failure so
the scheduler can negotiate an alternative.

Fault tolerance: with an ``ack_timeout`` configured, a control message that
is neither applied nor rejected in time (the application is stalled behind
a crash or partition and never reaches a safe point) is re-posted with
exponential backoff up to ``max_retries`` times, after which the agent
gives up: it withdraws the pending change and reports the outcome
``"timeout"`` through ``ControlMessage.on_done``, so the scheduler is never
left hanging on a dead handshake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..tunable import AppRuntime, Configuration, PendingChange
from .scheduler import Decision

__all__ = ["SteeringAgent", "ControlMessage"]


@dataclass
class ControlMessage:
    """Scheduler -> steering agent reconfiguration request."""

    decision: Decision
    #: Called once with the outcome the agent also ends the
    #: ``steer.request`` span with: "ack" once applied at a safe point,
    #: "rejected" when superseded or refused by a transition guard, or
    #: "timeout" when abandoned after the ack timeout.
    on_done: Optional[Callable[[str], None]] = None
    #: Observability: span id of the decision that issued this message
    #: (set by the sender) and of the ``steer.request`` handshake span the
    #: agent opens for it (set in :meth:`SteeringAgent._post`), so the
    #: sender's outcome callback can link into the same causal chain.
    cause: Optional[int] = None
    span: Optional[int] = None


class _MessageState:
    """Ack bookkeeping for one in-flight control message."""

    __slots__ = ("message", "done", "resending", "change")

    def __init__(self, message: ControlMessage):
        self.message = message
        self.done = False
        self.resending = False
        self.change: Optional[PendingChange] = None


class SteeringAgent:
    """Applies configuration switches for one application instance."""

    def __init__(
        self,
        rt: AppRuntime,
        control_latency: float = 0.0,
        ack_timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff: float = 2.0,
    ):
        if ack_timeout is not None and ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be positive, got {ack_timeout!r}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff!r}")
        self.rt = rt
        #: Virtual-time delay before a control message reaches the agent
        #: (models the scheduler running off-host).
        self.control_latency = float(control_latency)
        #: None preserves the classic wait-forever handshake.
        self.ack_timeout = ack_timeout
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        #: (time_posted, config) of every message received.
        self.received: List[Tuple[float, Configuration]] = []
        #: (time_applied, config) acknowledgements.
        self.acks: List[Tuple[float, Configuration]] = []
        self.retries = 0
        self.timeouts = 0

    def deliver(self, message: ControlMessage) -> None:
        """Accept a control message; the change lands at a safe point."""
        if self.control_latency > 0:
            self.rt.sim.schedule_callback(
                self.control_latency, lambda: self._post(message)
            )
        else:
            self._post(message)

    def _post(self, message: ControlMessage) -> None:
        self.received.append((self.rt.sim.now, message.decision.config))
        obs = self.rt.sim.obs
        if obs is not None:
            message.span = obs.begin(
                "steer.request", cat="steer", parent=message.cause,
                config=message.decision.config.label(),
            )
            obs.metrics.counter("steer.requests").inc()
        state = _MessageState(message)
        self._request(state)
        if self.ack_timeout is not None:
            self._arm_timeout(state, attempt=0)

    def _request(self, state: _MessageState) -> None:
        """Post (or re-post) the pending change for one control message."""
        message = state.message
        config = message.decision.config
        # Switch-history length before this post: lets the ack callback
        # tell a real switch (history grew; its entry carries the safe-point
        # time) from a no-op change (acked without touching history).
        history_before = len(self.rt.controls.history)

        def on_applied(ok: bool) -> None:
            # A re-post supersedes our own previous PendingChange, which
            # reports failure synchronously — ignore that echo.
            if state.done or (not ok and state.resending):
                return
            state.done = True
            # A retry may have re-posted this message after the application
            # had already popped an earlier copy at a safe point; withdraw
            # the duplicate so it cannot apply a second time.
            if self.rt.controls.pending is state.change:
                self.rt.controls.pending = None
            history = self.rt.controls.history
            switched = ok and len(history) > history_before
            outcome = "ack" if ok else "rejected"
            if ok:
                self.acks.append((self.rt.sim.now, config))
            if switched and self.rt.sim.usage is not None:
                # Attribute work served after the safe point to the new
                # configuration (same exact timestamp as the trace instant).
                self.rt.sim.usage.set_config(config.label(), t=history[-1][0])
            obs = self.rt.sim.obs
            if obs is not None and message.span is not None:
                if ok:
                    if switched:
                        # Timestamp the switch at the safe point where the
                        # application applied it (the transition handlers
                        # may take further simulated time before this ack
                        # callback runs).
                        obs.instant(
                            "config.switch", cat="steer", parent=message.span,
                            t=history[-1][0], config=config.label(),
                        )
                    obs.metrics.counter("steer.acks").inc()
                obs.end(message.span, outcome=outcome)
            if message.on_done is not None:
                message.on_done(outcome)

        change = PendingChange(
            new_config=config,
            conditions=message.decision.conditions,
            on_applied=on_applied,
        )
        state.resending = state.change is not None
        state.change = change
        try:
            self.rt.controls.request(change)
        finally:
            state.resending = False

    def _arm_timeout(self, state: _MessageState, attempt: int) -> None:
        delay = self.ack_timeout * (self.backoff ** attempt)

        def check() -> None:
            if state.done:
                return
            message = state.message
            obs = self.rt.sim.obs
            if attempt < self.max_retries:
                self.retries += 1
                if obs is not None:
                    obs.instant(
                        "steer.retry", cat="steer", parent=message.span,
                        attempt=attempt + 1,
                    )
                    obs.metrics.counter("steer.retries").inc()
                self._request(state)
                self._arm_timeout(state, attempt + 1)
                return
            # Terminal: withdraw the stale change so the application cannot
            # silently apply a switch the scheduler already gave up on.
            state.done = True
            self.timeouts += 1
            if self.rt.controls.pending is state.change:
                self.rt.controls.pending = None
            if obs is not None:
                obs.instant(
                    "steer.withdrawal", cat="steer", parent=message.span,
                    attempts=attempt,
                )
                obs.metrics.counter("steer.timeouts").inc()
                if message.span is not None:
                    obs.end(message.span, outcome="timeout")
            if message.on_done is not None:
                message.on_done("timeout")

        self.rt.sim.schedule_callback(delay, check)

    @property
    def switches(self) -> List[Tuple[float, Configuration, Configuration]]:
        """(time, old, new) history of applied switches."""
        return list(self.rt.controls.history)
