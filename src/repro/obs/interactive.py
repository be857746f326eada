"""Interactive inspection context: build, step, inspect, intervene.

A vivarium-style REPL/notebook workflow for the adaptation loop.  An
:class:`InteractiveContext` constructs any registered scenario through
its ``build_<name>()`` split (see :mod:`repro.experiments.scene`), then
hands the simulator to the user one event — or one virtual second — at
a time::

    from repro.obs import InteractiveContext

    ctx = InteractiveContext("fig5sess", seed=0)
    ctx.run_until(21.0)                       # just after the CPU drop
    ctx.inspect.monitor()["estimates"]        # what the monitor believes
    ctx.run_until(lambda c: c.switches())     # wait for the re-selection
    ctx.inspect.controller()["phase"]
    ctx.inject({"events": [{"kind": "crash", "host": "server",
                            "at": 40.0, "until": 45.0}]})
    fig, payload = ctx.finish()

Three guarantees, all regression-tested:

- **Passivity** — every inspector is read-only: FluidShare state is read
  through the passive :meth:`~repro.sim.FluidShare.peek` projection,
  never ``sync``/``snapshot`` (which re-arm completion timers), and
  nothing an inspector touches schedules events, draws randomness, or
  advances lazy accumulators.  A run driven through ``step()``/
  ``run_until()`` with inspectors read at every pause is byte-identical
  to the uninterrupted run.  The OBS104 lint rule enforces the no-mutate
  discipline statically.
- **Determinism of interventions** — ``inject``/``force_config``/
  ``perturb`` are recorded (virtual time + event ordinal + arguments)
  into a JSON-able script; :func:`replay` re-applies the script at the
  exact same event boundaries, reproducing the intervened run
  bit-for-bit.
- **Finalization fidelity** — ``finish()`` runs the scenario to its
  horizon and produces the same figure/payload the monolithic
  ``run_<name>()`` entry point returns.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..scenarios import resolve, scene_names
from .record import TraceRecorder
from .usage import UsageAccountant

__all__ = [
    "InteractiveContext",
    "ScenarioInspector",
    "replay",
]


class ScenarioInspector:
    """Read-only views of a live scenario's internal state.

    Every accessor is passive: plain attribute reads, passive fluid
    projections (:meth:`FluidShare.peek`), and pure summaries.  None of
    them may call mutating kernel/runtime APIs (``set_speed``, ``send``,
    ``succeed``, ``schedule_callback``, ``sync``, ``select`` ...) — the
    OBS104 lint rule checks this class statically, and the interactive
    byte-identity tests check it dynamically.
    """

    def __init__(self, scene):
        self._scene = scene

    # -- kernel-level state -------------------------------------------------
    def queues(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Mailbox depths and waiter counts per host/port."""
        out: Dict[str, Dict[str, Dict[str, int]]] = {}
        testbed = self._scene.testbed
        for host_name in sorted(testbed.hosts):
            host = testbed.hosts[host_name]
            ports = {}
            for port in sorted(host._mailboxes):
                box = host._mailboxes[port]
                ports[port] = {
                    "depth": len(box.items),
                    "getters": len(box._get_waiters),
                    "putters": len(box._put_waiters),
                }
            out[host_name] = ports
        return out

    def shares(self) -> Dict[str, dict]:
        """Passive projections of every CPU and link FluidShare."""
        out: Dict[str, dict] = {}
        testbed = self._scene.testbed
        for host_name in sorted(testbed.hosts):
            out[f"cpu.{host_name}"] = testbed.hosts[host_name].cpu.share.peek()
        for link in testbed.network.links():
            entry = link.share.peek()
            entry["up"] = link.up
            entry["latency"] = link.latency
            out[f"link.{link.name}"] = entry
        return out

    def usage(self) -> Optional[dict]:
        """Utilization account so far (``UsageAccountant.summary()``)."""
        accountant = self._scene.instruments.usage
        if accountant is None:
            return None
        return accountant.summary()

    # -- runtime / adaptation state -----------------------------------------
    def monitor(self) -> Optional[dict]:
        """The controller-side monitoring agent's current beliefs."""
        controller = self._scene.controller
        if controller is None:
            return None
        agent = controller.monitor
        return {
            "watch": list(agent.watch),
            "estimates": dict(agent.estimates()),
            "conditions": {
                name: [lo, hi]
                for name, (lo, hi) in sorted(agent.conditions.items())
            },
            "violations": agent.violations,
        }

    def exchange(self) -> Dict[str, dict]:
        """Both estimate-exchange endpoints: peers, freshness, TTL state."""
        out: Dict[str, dict] = {}
        for label in ("client", "server"):
            ex = getattr(self._scene, f"{label}_exchange")
            if ex is None:
                continue
            out[label] = {
                "peers": list(ex.peers),
                "stale_after": ex.stale_after,
                "remote_estimates": {
                    peer: [value, at]
                    for peer, (value, at) in sorted(ex.remote_estimates.items())
                },
                "peer_last_seen": dict(sorted(ex.peer_last_seen.items())),
                "updates_received": ex.updates_received,
                "expired": ex.expired,
            }
        return out

    def controller(self) -> Optional[dict]:
        """Adaptation-controller phase, decision, and candidate set."""
        ctl = self._scene.controller
        if ctl is None:
            return None
        if ctl._inflight is not None:
            phase = "reconfiguring"
        elif ctl._settling:
            phase = "settling"
        elif ctl._pinned:
            phase = "pinned"
        else:
            phase = "steady"
        decision = ctl.current_decision
        rt = self._scene.rt
        return {
            "phase": phase,
            "pinned": ctl._pinned,
            "inflight": ctl._inflight is not None,
            "current_config": (
                rt.controls.current.label() if rt is not None else None
            ),
            "decision": (
                None
                if decision is None
                else {
                    "config": decision.config.label(),
                    "constraint_index": decision.constraint_index,
                    "conditions": {
                        name: [lo, hi]
                        for name, (lo, hi) in sorted(decision.conditions.items())
                    },
                }
            ),
            "candidates": [c.label() for c in ctl.scheduler.candidates],
            "lost_peers": sorted(ctl.lost_peers),
            "events": [
                {
                    "t": e.time,
                    "kind": e.kind,
                    "config": e.config.label() if e.config is not None else None,
                }
                for e in ctl.events
            ],
            "switches": (
                [
                    {"t": t, "from": old.label(), "to": new.label()}
                    for t, old, new in rt.controls.history
                ]
                if rt is not None
                else []
            ),
        }

    # -- recovery / crowd state ---------------------------------------------
    def supervision(self) -> Optional[dict]:
        """Supervision-tree status (service states, restarts, availability).

        Uses the read-only ``Supervisor.summary`` path — never
        ``finalize``, which closes downtime intervals.
        """
        supervisor = self._scene.supervisor
        if supervisor is None:
            return None
        return supervisor.summary(self._scene.sim.now)

    def faults(self) -> Optional[dict]:
        """What the fault injector has applied so far."""
        injector = self._scene.injector
        if injector is None:
            return None
        return {
            "log": [dict(entry) for entry in injector.log],
            "dropped": injector.dropped,
            "delayed": injector.delayed,
            "duplicated": injector.duplicated,
            "rules": len(injector.rules),
        }

    def crowd(self) -> Optional[dict]:
        """Per-class crowd tallies (columnar state, pure read)."""
        source = self._scene.crowd
        if source is None:
            return None
        return {"classes": source.stats(), "totals": source.totals()}

    def overload(self) -> Optional[dict]:
        """Overload-guard admission totals and brownout windows."""
        guard = self._scene.guard
        if guard is None:
            return None
        out = dict(guard.totals())
        brownout = self._scene.brownout
        if brownout is not None:
            out["brownout_windows"] = [[t0, t1] for t0, t1 in brownout.windows]
        return out

    def snapshot(self) -> dict:
        """Everything above, as one JSON-able dict keyed by subsystem."""
        sections = {
            "queues": self.queues(),
            "shares": self.shares(),
            "usage": self.usage(),
            "monitor": self.monitor(),
            "exchange": self.exchange(),
            "controller": self.controller(),
            "supervision": self.supervision(),
            "faults": self.faults(),
            "crowd": self.crowd(),
            "overload": self.overload(),
        }
        return {
            "t": self._scene.sim.now,
            "scenario": self._scene.name,
            "seed": self._scene.seed,
            **{k: v for k, v in sections.items() if v is not None},
        }


class InteractiveContext:
    """Construct a scenario and drive it step-by-step with live inspection.

    Parameters
    ----------
    scenario:
        A Scene entry of :data:`repro.scenarios.SCENARIOS` (listed by
        :func:`repro.scenarios.scene_names`), or a Scene-builder callable.
    instrument:
        Attach a :class:`TraceRecorder` + :class:`UsageAccountant` (the
        same pairing ``repro trace``/``repro report`` use).  Both are
        strictly passive.
    kwargs:
        Forwarded to the scenario builder (``n_images``, ``until``,
        ``fault_spec``, ...).
    """

    def __init__(
        self,
        scenario: Union[str, Callable],
        /,
        seed: int = 0,
        instrument: bool = True,
        **kwargs: Any,
    ):
        if callable(scenario):
            builder = scenario
            self.scenario = getattr(scenario, "__name__", "custom")
        else:
            if scenario not in scene_names():
                raise KeyError(
                    f"{scenario!r} is not a steppable scenario; steppable: "
                    f"{', '.join(scene_names())}"
                )
            builder = resolve(scenario)
            self.scenario = scenario
        self.recorder = TraceRecorder() if instrument else None
        self.usage = (
            UsageAccountant(metrics=self.recorder.metrics)
            if instrument
            else None
        )
        self.scene = builder(
            seed=seed, recorder=self.recorder, usage=self.usage, **kwargs
        )
        self.seed = seed
        self.inspect = ScenarioInspector(self.scene)
        #: Recorded intervention script (JSON-able; see :func:`replay`).
        self.interventions: List[dict] = []
        #: Events dispatched through this context so far (the replay
        #: anchor: an intervention is re-applied at the same ordinal).
        self.steps = 0
        self._stopped = False
        self.result: Optional[Tuple[Any, Dict]] = None

    # -- clock --------------------------------------------------------------
    @property
    def sim(self):
        return self.scene.sim

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def done(self) -> bool:
        """No more events to dispatch (or the scene was finalized)."""
        return self.result is not None or self._stopped or self.sim.is_idle()

    def _step_once(self) -> None:
        from ..sim import StopSimulation

        self.steps += 1
        try:
            self.sim.step()
        except StopSimulation:
            self._stopped = True

    def step(self, n: int = 1) -> float:
        """Dispatch up to ``n`` events; returns the new virtual time."""
        self._check_live()
        for _ in range(n):
            if self.done or self.sim.peek() > self.scene.until:
                break
            self._step_once()
        return self.now

    def run_until(
        self, target: Union[float, int, Callable[["InteractiveContext"], bool]]
    ) -> float:
        """Advance to a virtual time, or until a predicate turns true.

        A numeric target dispatches every event with ``time <= target``
        (clamped to the scenario horizon) — the same boundary
        ``Simulator.run(until=target)`` stops at, so segmented driving
        stays byte-identical to one uninterrupted run.  A callable is
        invoked as ``target(ctx)`` after construction and after every
        event; the run pauses as soon as it returns true.
        """
        self._check_live()
        if callable(target):
            while not target(self) and not self.done:
                if self.sim.peek() > self.scene.until:
                    break
                self._step_once()
            return self.now
        t = min(float(target), self.scene.until)
        while not self.done and self.sim.peek() <= t:
            self._step_once()
        return self.now

    def switches(self) -> List[dict]:
        """Convenience: configuration switches so far (for predicates)."""
        rt = self.scene.rt
        if rt is None:
            return []
        return [
            {"t": t, "from": old.label(), "to": new.label()}
            for t, old, new in rt.controls.history
        ]

    def finish(self) -> Tuple[Any, Dict]:
        """Run to the scenario horizon and finalize; returns (figure, payload).

        Idempotent — the result is cached, and the payload is identical
        to the monolithic ``run_<scenario>()`` entry point's.
        """
        if self.result is None:
            # Delegate the final leg to the kernel's run() so the clock
            # lands exactly on the horizon before teardown folds usage —
            # the same terminal state the monolithic run_<name>() leaves.
            if not self._stopped and self.scene.until >= self.sim.now:
                self.sim.run(until=self.scene.until)
            self.result = self.scene.finalize()
        return self.result

    def _check_live(self) -> None:
        if self.result is not None:
            raise RuntimeError(
                "scenario already finalized; build a new InteractiveContext"
            )

    # -- interventions ------------------------------------------------------
    def _record_intervention(self, kind: str, args: dict) -> None:
        entry = {"t": self.now, "steps": self.steps, "kind": kind, "args": args}
        self.interventions.append(entry)
        obs = self.sim.obs
        if obs is not None:
            obs.instant(
                f"interactive.{kind}", cat="interactive", steps=self.steps,
                **{k: json.dumps(v, sort_keys=True) for k, v in sorted(args.items())},
            )

    def inject(self, fault_spec: dict) -> None:
        """Inject a :class:`FaultPlan` fragment from here on.

        Absolute ``at`` times in the spec are honored (events already in
        the past fire immediately); per-message rules join the live
        delivery gate.  Creates an injector on demand for fault-free
        scenarios.
        """
        from ..faults import FaultInjector, FaultPlan

        self._check_live()
        plan = FaultPlan.from_spec(fault_spec)
        if self.scene.injector is None:
            self.scene.injector = FaultInjector(
                self.scene.testbed.network, seed=self.scene.seed
            ).install(plan)
        else:
            self.scene.injector.inject(plan)
        self._record_intervention("inject", {"fault_spec": plan.to_spec()})

    def force_config(
        self, config: Union[dict, Any], reason: str = "interactive-pin"
    ) -> None:
        """Pin a configuration, bypassing the scheduler (brownout-style)."""
        from ..tunable import Configuration

        self._check_live()
        if not isinstance(config, Configuration):
            config = Configuration(dict(config))
        self.scene.controller.force_config(config, reason=reason)
        self._record_intervention(
            "force_config",
            {"config": {k: v for k, v in sorted(dict(config).items())},
             "reason": reason},
        )

    def resume_normal(self, reason: str = "interactive-unpin") -> None:
        """Lift a forced-config pin and re-enter normal adaptation."""
        self._check_live()
        self.scene.controller.resume_normal(reason=reason)
        self._record_intervention("resume_normal", {"reason": reason})

    def perturb(self, host: str, **limits: Any) -> None:
        """Perturb a host's resource trace (``cpu_share=``, ``net_bw=`` ...)."""
        from ..sandbox import ResourceLimits

        self._check_live()
        self.scene.rt.sandboxes[host].set_limits(ResourceLimits(**limits))
        self._record_intervention(
            "perturb", {"host": host, **{k: limits[k] for k in sorted(limits)}}
        )

    _APPLY = {"inject", "force_config", "resume_normal", "perturb"}

    def apply(self, entry: dict) -> None:
        """Apply one recorded intervention entry (replay primitive)."""
        kind = entry["kind"]
        if kind not in self._APPLY:
            raise ValueError(f"unknown intervention kind {kind!r}")
        args = dict(entry["args"])
        if kind == "inject":
            self.inject(args["fault_spec"])
        elif kind == "force_config":
            self.force_config(args["config"], reason=args.get("reason", "interactive-pin"))
        elif kind == "resume_normal":
            self.resume_normal(reason=args.get("reason", "interactive-unpin"))
        else:
            host = args.pop("host")
            self.perturb(host, **args)

    def script(self) -> str:
        """The intervention script as canonical JSON (feed to :func:`replay`)."""
        return json.dumps(self.interventions, sort_keys=True)

    # -- mid-flight HTML ----------------------------------------------------
    def snapshot_html(self, title: Optional[str] = None) -> str:
        """A self-contained no-JS HTML page of the state right now.

        One cell through the page renderer every ``repro report`` and
        ``repro dash`` page uses: the sections of the records, metrics and
        usage so far, plus the inspector snapshot.  Reading it is passive —
        rendering mid-flight leaves the run byte-identical.
        """
        from .dash import dashboard_cell_from_context, render_dashboard

        cell = dashboard_cell_from_context(self)
        return render_dashboard(
            [cell],
            title=title
            or f"interactive: {self.scenario} (seed {self.seed}) "
            f"@ t={self.now:.3f}",
        )


def replay(
    scenario: Union[str, Callable],
    seed: int,
    script: Union[str, List[dict]],
    /,
    instrument: bool = True,
    **kwargs: Any,
) -> InteractiveContext:
    """Re-run a scenario, re-applying a recorded intervention script.

    Each entry is applied at its recorded event ordinal (``steps``), i.e.
    at the exact same boundary between events as the original session —
    so the replayed run is bit-identical to the intervened original.
    The returned context is left un-finalized; call ``finish()`` on it.
    """
    entries = json.loads(script) if isinstance(script, str) else list(script)
    ctx = InteractiveContext(
        scenario, seed=seed, instrument=instrument, **kwargs
    )
    for entry in entries:
        target = int(entry["steps"])
        while ctx.steps < target and not ctx.done:
            if ctx.sim.peek() > ctx.scene.until:
                break
            ctx._step_once()
        ctx.apply(entry)
    return ctx
