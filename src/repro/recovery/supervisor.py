"""The supervision tree: process ownership, restart, and escalation.

A :class:`Supervisor` owns named *services* — groups of simulator
processes (a server, a monitoring agent, the controller plus its
failover heartbeats) — and brings them back when they die:

- death detection is event-driven (a callback on each process's
  completion event), so no polling loop perturbs the simulation;
- restarts follow the service's :class:`RestartPolicy`: deterministic
  exponential backoff whose jitter comes from the supervisor's dedicated
  ``"recovery"`` RNG stream (same seed ⇒ same restart instants);
- a restart storm (``max_restarts`` within ``storm_window``) trips
  escalation instead of looping forever;
- restarts are *warm* when a checkpoint exists (see
  :mod:`repro.recovery.checkpoint`): the service's ``start`` factory
  receives the last snapshot taken at a ControlBox safe point;
- MTTR (death → ready) is measured per restart and exported through
  ``repro.obs`` (histogram ``recovery.mttr``, spans on the timeline).

The supervisor binds to the simulator as ``sim.recovery`` — the same
discovery convention as ``sim.obs`` / ``sim.usage`` — which is how
ControlBox safe points reach :meth:`on_safe_point` and how FaultPlan
``kill`` events reach :meth:`kill` without explicit plumbing.  With no
supervisor attached every hook site is a single ``is None`` check, so
disabled recovery costs nothing.

Determinism: the supervisor draws randomness only for backoff jitter, in
the deterministic order of service deaths; checkpointing is pure data
copying; and a supervisor over services that never die schedules nothing
at all — which is why enabling supervision on a healthy run replays
byte-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Union

from ..sandbox.sandbox import SandboxOp
from ..sim import Process, Simulator, stream
from ..sim.primitives import StoreGet
from .checkpoint import Checkpoint, CheckpointStore
from .policy import RecoveryError, RestartPolicy

__all__ = ["Supervisor", "SupervisedService"]

# Service lifecycle states.
UP = "up"
DOWN = "down"
RESTARTING = "restarting"
ESCALATED = "escalated"
STOPPED = "stopped"

StartFn = Callable[[Optional[Dict[str, Any]]], Union[Process, Sequence[Process]]]

#: Bucket edges (seconds) for the ``recovery.mttr`` histogram.
MTTR_EDGES = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0)


class SupervisedService:
    """One supervised unit: its processes, policy, and bookkeeping."""

    def __init__(
        self,
        name: str,
        start: StartFn,
        policy: RestartPolicy,
        snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
        ready: Optional[Callable[[], bool]] = None,
        on_escalate: Optional[Callable[[str], None]] = None,
        restarts: bool = True,
    ):
        self.name = name
        self.start = start
        self.policy = policy
        self.snapshot = snapshot
        self.ready = ready
        self.on_escalate = on_escalate
        #: False = bare registry entry: deaths are recorded and downtime
        #: accrues, but nothing is restarted (the unsupervised baseline).
        self.restarts = restarts
        self.processes: List[Process] = []
        self.state = UP
        #: Incarnation counter; stale death callbacks from a previous
        #: incarnation are ignored by epoch mismatch.
        self.epoch = 0
        self.registered_at = 0.0
        self.down_since: Optional[float] = None
        self.downtime = 0.0
        self.restart_count = 0
        self.recent_restarts: Deque[float] = deque()

    def alive(self) -> List[Process]:
        return [p for p in self.processes if p.is_alive]


class Supervisor:
    """Owns services, restarts them per policy, and tracks availability."""

    def __init__(
        self,
        sim: Simulator,
        seed: int = 0,
        policy: Optional[RestartPolicy] = None,
        store: Optional[CheckpointStore] = None,
        checkpoint_interval: float = 0.0,
    ):
        self.sim = sim
        self.rng = stream(seed, "recovery")
        self.default_policy = policy or RestartPolicy()
        self.store = store or CheckpointStore()
        #: Minimum simulated time between safe-point checkpoint sweeps.
        self.checkpoint_interval = float(checkpoint_interval)
        self._last_checkpoint: Optional[float] = None
        self.services: Dict[str, SupervisedService] = {}
        self._shutdown = False
        self._shutdown_at: Optional[float] = None
        # -- bookkeeping exported into experiment payloads ------------------
        self.kills = 0
        self.restarts = 0
        self.escalations = 0
        #: Per-restart MTTR records: dicts with service/down_at/ready_at/
        #: mttr/warm/attempts — JSON-friendly for payload export.
        self.mttrs: List[Dict[str, Any]] = []

    # -- discovery binding --------------------------------------------------
    def attach(self) -> "Supervisor":
        """Bind as ``sim.recovery`` so safe points and fault kills find us."""
        self.sim.recovery = self
        return self

    def detach(self) -> None:
        if getattr(self.sim, "recovery", None) is self:
            self.sim.recovery = None

    @property
    def _obs(self):
        return getattr(self.sim, "obs", None)

    # -- registration -------------------------------------------------------
    def supervise(
        self,
        name: str,
        start: StartFn,
        *,
        processes: Optional[Sequence[Process]] = None,
        policy: Optional[RestartPolicy] = None,
        snapshot: Optional[Callable[[], Dict[str, Any]]] = None,
        ready: Optional[Callable[[], bool]] = None,
        on_escalate: Optional[Callable[[str], None]] = None,
        restarts: bool = True,
    ) -> SupervisedService:
        """Register a service.

        ``start(state)`` is the (re)launch factory: ``state`` is None for a
        cold start or the latest checkpoint's state dict for a warm one; it
        returns the new process(es).  When ``processes`` is given the
        service is adopted already-running (the normal case: experiments
        launch the app first, then hand its processes to the supervisor);
        otherwise ``start(None)`` is called here.
        """
        if name in self.services:
            raise RecoveryError(f"service {name!r} already supervised")
        svc = SupervisedService(
            name,
            start,
            policy or self.default_policy,
            snapshot=snapshot,
            ready=ready,
            on_escalate=on_escalate,
            restarts=restarts,
        )
        svc.registered_at = self.sim.now
        self.services[name] = svc
        procs = list(processes) if processes is not None else None
        if procs is None:
            launched = start(None)
            procs = [launched] if isinstance(launched, Process) else list(launched)
        svc.processes = procs
        self._watch(svc)
        return svc

    def _watch(self, svc: SupervisedService) -> None:
        epoch = svc.epoch
        for proc in svc.processes:
            if proc.callbacks is None:
                continue
            proc.callbacks.append(
                lambda event, s=svc, e=epoch: self._on_exit(s, e, event)
            )

    # -- death handling -----------------------------------------------------
    def _on_exit(self, svc: SupervisedService, epoch: int, event) -> None:
        # A failed process event with a listener must be defused or the
        # kernel re-raises the exception after callbacks run.
        if not event._ok:
            event.defused = True
        if self._shutdown or epoch != svc.epoch:
            return
        if svc.state not in (UP, RESTARTING):
            return
        now = self.sim.now
        if svc.state == UP:
            svc.down_since = now
        svc.state = DOWN
        obs = self._obs
        if obs is not None:
            obs.instant("recovery.death", cat="recovery", service=svc.name)
            obs.metrics.counter("recovery.deaths").inc()
        # Tear down any sibling processes of the same incarnation so the
        # whole service restarts as a unit (one-for-all strategy).
        for proc in svc.alive():
            self._reap(proc, f"supervisor:{svc.name}:sibling-down")
        if not svc.restarts:
            return
        self._plan_restart(svc)

    def _plan_restart(self, svc: SupervisedService) -> None:
        now = self.sim.now
        window_start = now - svc.policy.storm_window
        while svc.recent_restarts and svc.recent_restarts[0] < window_start:
            svc.recent_restarts.popleft()
        if len(svc.recent_restarts) >= svc.policy.max_restarts:
            self._escalate(svc)
            return
        attempt = len(svc.recent_restarts)
        delay = svc.policy.delay(attempt, self.rng)
        epoch = svc.epoch
        self.sim.schedule_callback(
            delay, lambda s=svc, e=epoch, a=attempt: self._restart(s, e, a)
        )

    def _escalate(self, svc: SupervisedService) -> None:
        svc.state = ESCALATED
        self.escalations += 1
        obs = self._obs
        if obs is not None:
            obs.instant(
                "recovery.escalated", cat="recovery",
                service=svc.name, restarts=svc.restart_count,
            )
            obs.metrics.counter("recovery.escalations").inc()
        if svc.on_escalate is not None:
            svc.on_escalate(svc.name)

    def _restart(self, svc: SupervisedService, epoch: int, attempt: int) -> None:
        if self._shutdown or epoch != svc.epoch or svc.state != DOWN:
            return
        state: Optional[Dict[str, Any]] = None
        warm = False
        if svc.policy.warm:
            ckpt = self.store.latest(svc.name)
            if ckpt is not None:
                state = ckpt.state
                warm = True
        svc.epoch += 1
        svc.state = RESTARTING
        svc.restart_count += 1
        svc.recent_restarts.append(self.sim.now)
        self.restarts += 1
        launched = svc.start(state)
        svc.processes = [launched] if isinstance(launched, Process) else list(launched)
        self._watch(svc)
        obs = self._obs
        if obs is not None:
            obs.instant(
                "recovery.restart", cat="recovery",
                service=svc.name, attempt=attempt, warm=warm,
            )
            obs.metrics.counter("recovery.restarts").inc()
        self.sim.process(
            self._await_ready(svc, svc.epoch, warm, attempt),
            name=f"supervisor.ready.{svc.name}",
        )

    def _await_ready(self, svc: SupervisedService, epoch: int, warm: bool, attempt: int):
        deadline = self.sim.now + svc.policy.ready_timeout
        while svc.ready is not None and not svc.ready() and self.sim.now < deadline:
            yield self.sim.timeout(svc.policy.ready_poll)
            if self._shutdown or epoch != svc.epoch or svc.state != RESTARTING:
                return
        if self._shutdown or epoch != svc.epoch or svc.state != RESTARTING:
            return
        self._mark_up(svc, warm, attempt)

    def _mark_up(self, svc: SupervisedService, warm: bool, attempt: int) -> None:
        now = self.sim.now
        svc.state = UP
        if svc.down_since is not None:
            down_at = svc.down_since
            mttr = now - down_at
            svc.downtime += mttr
            svc.down_since = None
            self.mttrs.append(
                {
                    "service": svc.name,
                    "down_at": down_at,
                    "ready_at": now,
                    "mttr": mttr,
                    "warm": warm,
                    "attempts": attempt + 1,
                }
            )
            obs = self._obs
            if obs is not None:
                obs.instant(
                    "recovery.ready", cat="recovery",
                    service=svc.name, mttr=mttr, warm=warm,
                )
                obs.metrics.histogram("recovery.mttr", edges=MTTR_EDGES).observe(mttr)

    # -- kills (fault injection) --------------------------------------------
    def kill(self, name: str, reason: str = "injected") -> bool:
        """Fail-stop a service (FaultPlan ``kill`` events land here).

        Interrupts every live process of the service and unwinds whatever
        each was parked on (mailbox waiters, resource requests, sandbox
        sends and receives) so no orphaned waiter swallows traffic
        meant for the restarted incarnation.  Messages already queued in
        host mailboxes survive — the durable-queue crash model shared with
        host crashes.
        """
        svc = self.services.get(name)
        if svc is None:
            raise RecoveryError(
                f"cannot kill unknown service {name!r}; supervised: "
                f"{sorted(self.services)}"
            )
        if svc.state != UP:
            return False
        self.kills += 1
        obs = self._obs
        if obs is not None:
            obs.instant("recovery.kill", cat="recovery", service=name, reason=reason)
            obs.metrics.counter("recovery.kills").inc()
        # The interrupts below fire the process events, which invoke
        # _on_exit — death handling and restart planning happen there.
        for proc in svc.alive():
            self._reap(proc, f"kill:{name}:{reason}")
        return True

    def _reap(self, proc: Process, reason: str) -> None:
        """Interrupt ``proc`` and unwind the event it was waiting on."""
        if not proc.is_alive or proc is self.sim.active_process:
            return
        target = proc.target
        proc.interrupt(reason)
        if isinstance(target, StoreGet):
            # Detached mailbox waiter: cancel it or it silently consumes
            # the next message addressed to the restarted service.
            target.store.cancel(target)
        elif isinstance(target, SandboxOp):
            # A send or receive in flight: it books nothing, and a receive
            # withdraws its mailbox get.
            target.cancel()

    # -- checkpointing ------------------------------------------------------
    def on_safe_point(self, ctx: Any, time: float) -> None:
        """ControlBox safe-point hook: snapshot every checkpointable service.

        Strictly passive — pure data reads into the store, no events, no
        RNG — so enabling checkpoints cannot perturb the simulation.
        """
        if self._shutdown:
            return
        if (
            self._last_checkpoint is not None
            and time - self._last_checkpoint < self.checkpoint_interval
        ):
            return
        self._last_checkpoint = time
        obs = self._obs
        for name in sorted(self.services):
            svc = self.services[name]
            if svc.snapshot is None or svc.state != UP:
                continue
            self.store.save(name, time, svc.snapshot())
            if obs is not None:
                obs.metrics.counter("recovery.checkpoints").inc()

    def checkpoint_now(self, name: str) -> Optional[Checkpoint]:
        """Snapshot one service immediately (failover replication)."""
        svc = self.services.get(name)
        if svc is None or svc.snapshot is None or svc.state != UP:
            return None
        return self.store.save(name, self.sim.now, svc.snapshot())

    # -- lifecycle / accounting ---------------------------------------------
    def shutdown(self) -> None:
        """Stop restarting: the run is over, deaths are normal teardown.

        Also the end of availability accounting: open downtime intervals
        close here, and :meth:`availability`/:meth:`summary` default their
        horizon to this instant — otherwise a service that exits a hair
        before this callback runs (the server answering the very
        CloseConnection that finishes the run) would accrue "downtime"
        until whatever padded ``until`` the experiment ran with.
        """
        if self._shutdown:
            return
        self._shutdown = True
        self._shutdown_at = self.sim.now
        for svc in self.services.values():
            if svc.down_since is not None:
                svc.downtime += max(0.0, self.sim.now - svc.down_since)
                svc.down_since = None
            svc.state = STOPPED

    @property
    def shutdown_at(self):
        """Sim time :meth:`shutdown` ran, or ``None`` if it never did."""
        return self._shutdown_at

    def _default_end(self) -> float:
        return self.sim.now if self._shutdown_at is None else self._shutdown_at

    def finalize(self, end_time: Optional[float] = None) -> None:
        """Close open downtime intervals at the end of a run."""
        end = self._default_end() if end_time is None else end_time
        for svc in self.services.values():
            if svc.down_since is not None:
                svc.downtime += max(0.0, end - svc.down_since)
                svc.down_since = None

    def availability(self, end_time: Optional[float] = None) -> Dict[str, float]:
        """Per-service fraction of time up since registration."""
        end = self._default_end() if end_time is None else end_time
        out: Dict[str, float] = {}
        for name in sorted(self.services):
            svc = self.services[name]
            total = end - svc.registered_at
            down = svc.downtime
            if svc.down_since is not None:
                down += max(0.0, end - svc.down_since)
            out[name] = 1.0 if total <= 0 else max(0.0, 1.0 - down / total)
        return out

    def summary(self, end_time: Optional[float] = None) -> Dict[str, Any]:
        """JSON-friendly run summary for experiment payloads."""
        avail = self.availability(end_time)
        return {
            "services": {
                name: {
                    "state": self.services[name].state,
                    "restarts": self.services[name].restart_count,
                    "downtime": round(self.services[name].downtime, 6),
                    "availability": round(avail[name], 6),
                }
                for name in sorted(self.services)
            },
            "kills": self.kills,
            "restarts": self.restarts,
            "escalations": self.escalations,
            "checkpoints": self.store.saved,
            "mttr": [
                {**m, "down_at": round(m["down_at"], 6),
                 "ready_at": round(m["ready_at"], 6), "mttr": round(m["mttr"], 6)}
                for m in self.mttrs
            ],
        }
