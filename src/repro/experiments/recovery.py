"""Recovery experiment: supervision, failover, and overload under fire.

The paper's runtime *re-plans* when the environment drifts; this
experiment exercises the :mod:`repro.recovery` layer that *recovers
state* when the application itself breaks.  One run drives the adaptive
visualization app through

- a **crash storm**: the server process is fail-stopped twice and the
  adaptation controller once (FaultPlan ``kill`` events routed through
  the attached :class:`~repro.recovery.Supervisor`), plus a windowed
  host crash — supervised services restart with deterministic backoff,
  warm from ControlBox safe-point checkpoints;
- a **flash crowd**: low-priority closed-loop users hammer the server
  while the interactive session runs; the server's
  :class:`~repro.recovery.OverloadGuard` sheds crowd traffic beyond the
  soft queue depth, and sustained shedding trips the
  :class:`~repro.recovery.BrownoutController` into a known-cheap pinned
  configuration until the crowd passes;
- **controller failover**: a standby :class:`~repro.recovery.FailoverMember`
  on the server host follows the primary's heartbeats (which replicate
  the controller checkpoint) and takes over by deterministic rank while
  the killed controller waits out its restart backoff, handing back when
  the primary's heartbeats resume.

Everything is deterministic: restart jitter comes from the dedicated
``"recovery"`` RNG stream, crowd think times from per-user
``recovery.crowd.<uid>`` streams, and fault times are scripted — so two
runs with the same seed produce byte-identical payloads, supervision on
or off (the benchmark asserts this).
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from ..apps.visualization import VizWorkload
from ..faults import FaultInjector, FaultPlan
from ..recovery import (
    BrownoutController,
    FailoverMember,
    OverloadGuard,
    OverloadPolicy,
    RestartPolicy,
    Supervisor,
)
from ..sandbox import ResourceLimits
from ..tunable import Configuration
from .common import (
    FigureResult,
    build_adaptive_viz,
    closed_loop_viz_user,
    viz_initial_point,
    viz_preference,
)
from .fig6 import EXP1_COSTS, fig6a_database
from .scene import Scene, scene_runner

__all__ = [
    "build_recovery",
    "run_recovery",
    "DEFAULT_RECOVERY_FAULTS",
    "DEFAULT_CROWD",
    "CHEAP_CONFIG",
]

#: The crash storm: two server kills (the second while the flash crowd is
#: still up), a controller kill (exercising failover + warm restart), and
#: a windowed host crash late in the run (exercising the durable-queue
#: crash path and the exchange's restore re-announcement).
DEFAULT_RECOVERY_FAULTS: Dict = {
    "events": [
        {"kind": "kill", "service": "viz-server", "at": 12.0},
        {"kind": "kill", "service": "viz-server", "at": 22.0},
        {"kind": "kill", "service": "controller", "at": 32.0},
        {"kind": "crash", "host": "server", "at": 36.5, "until": 38.5,
         "mode": "queue"},
    ]
}

#: The flash crowd: low-priority closed-loop users on the client host
#: requesting small rings over private reply ports, overlapping the first
#: two server kills.
DEFAULT_CROWD: Dict = {
    "users": 14,
    "start": 8.0,
    "duration": 18.0,
    "think": 0.02,
    "r1": 12,
    "level": 3,
}

#: Where brownout steers: the cheapest configuration in the default
#: space (largest increment, cheap codec, low resolution).
CHEAP_CONFIG = {"dR": 320, "c": "lzw", "l": 3}


def build_recovery(
    seed: int = 0,
    n_images: int = 14,
    fault_spec: Optional[Dict] = None,
    crowd_spec: Optional[Dict] = None,
    supervise: bool = True,
    checkpoints: bool = True,
    failover: bool = True,
    brownout: bool = True,
    until: float = 400.0,
    detect_races: bool = False,
    recorder=None,
    usage=None,
    tiebreak=None,
    profiler=None,
) -> Scene:
    """Construct the supervision/failover/overload-shedding run, unrun.

    Builds through :func:`~repro.experiments.common.build_adaptive_viz`:
    the supervisor, injector and overload guard come before the workload,
    the failover group, supervision tree, brownout and flash crowd after
    the exchanges (construction order is byte-identity-gated by
    ``bench_recovery``).  The Scene's ``finalize()`` produces the figure +
    payload once the sim reaches ``until``.

    ``supervise=False`` keeps the service *registry* (kill events still
    route, downtime still accrues) but never restarts anything — the
    unsupervised baseline the benchmark compares availability against.
    ``checkpoints=False`` forces every restart cold (warm-vs-cold MTTR).
    ``recorder``/``usage``/``profiler``/``detect_races`` behave as in
    ``run_chaos`` — strictly passive instrumentation.  ``tiebreak`` hands
    same-instant tie ordering to a schedule-exploration policy (None =
    default FIFO).
    """
    db, _dims, _configs = fig6a_database(seed=seed)
    plan = FaultPlan.from_spec(
        DEFAULT_RECOVERY_FAULTS if fault_spec is None else fault_spec
    )
    crowd = dict(DEFAULT_CROWD if crowd_spec is None else crowd_spec)
    # Filled in as the scene is built; _summarize_recovery reads them.
    parts: Dict = {"crowd_stats": {}, "member_client": None, "member_server": None}

    def workload(scene):
        # The supervisor must bind before the plan installs: kill events
        # route through sim.recovery, and safe points start checkpointing
        # immediately.
        scene.supervisor = Supervisor(scene.sim, seed=seed).attach()
        scene.injector = FaultInjector.attach(scene.testbed, plan, seed=seed)
        scene.guard = OverloadGuard(
            OverloadPolicy(queue_capacity=64, shed_depth=4, keep_priority=1),
            sim=scene.sim,
        )
        return VizWorkload(
            n_images=n_images, costs=EXP1_COSTS, seed=seed,
            overload=scene.guard, server_state={"codec": dict(scene.config)["c"]},
        )

    def services(scene):
        rt, controller, supervisor = scene.rt, scene.controller, scene.supervisor
        workload, client_ex = scene.workload, scene.client_exchange
        server_state = workload.server_state

        # -- controller failover group -------------------------------------
        member_client: Optional[FailoverMember] = None
        if failover:
            member_client = FailoverMember(
                rt, "client", ["client", "server"],
                activate=lambda state: None,  # rank 0 *is* the controller host
                snapshot=controller.snapshot,
                period=0.5, takeover_after=1.5, initially_active=True,
            ).start()

            def standby_activate(state):
                # Resume from the replicated checkpoint: adopt the freshest
                # controller state so the primary's warm restart picks it up.
                if state is not None:
                    supervisor.store.save("controller", scene.sim.now, dict(state))

            member_server = FailoverMember(
                rt, "server", ["client", "server"],
                activate=standby_activate,
                period=0.5, takeover_after=1.5,
            ).start()
            if rt.finished.callbacks is not None:
                rt.finished.callbacks.append(lambda _e: member_client.stop())
                rt.finished.callbacks.append(lambda _e: member_server.stop())
            parts.update(member_client=member_client, member_server=member_server)

        # -- supervision tree -----------------------------------------------
        server_policy = RestartPolicy(
            base_delay=0.25, factor=2.0, jitter=0.05, max_restarts=5,
            storm_window=60.0, warm=checkpoints,
        )
        # The controller's backoff deliberately exceeds takeover_after so
        # the standby demonstrably runs the group while the primary is down.
        controller_policy = RestartPolicy(
            base_delay=3.0, factor=2.0, jitter=0.05, max_restarts=5,
            storm_window=120.0, ready_poll=0.05, ready_timeout=30.0,
            warm=checkpoints,
        )

        def start_server(state):
            if state:
                server_state.update(state)
            from ..apps.visualization.server import server_process

            return rt.sim.process(
                server_process(rt, workload, rt.app_model,
                               overload=workload.overload,
                               codec_state=workload.server_state),
                name="viz-server",
            )

        supervisor.supervise(
            "viz-server",
            start_server,
            processes=[rt.processes["viz-server"]],
            policy=server_policy,
            snapshot=lambda: dict(server_state),
            restarts=supervise,
        )

        def controller_procs():
            procs = [controller.monitor.process, controller._watchdog_proc]
            if member_client is not None:
                procs.extend(member_client.processes())
            return [p for p in procs if p is not None]

        def start_controller(state):
            if state is not None:
                controller.restore(dict(state))
            controller.attach(rt)
            client_ex.agent = controller.monitor
            controller.start_watchdog(client_ex)
            if member_client is not None:
                member_client.start()
            return controller_procs()

        def controller_ready():
            # Warm restarts restore the monitor's histories and answer at
            # once; a cold monitor must refill (bandwidth needs a completed
            # transfer) — exactly the warm-vs-cold MTTR gap the benchmark
            # measures.
            est = controller.monitor.estimates()
            return all(r in est for r in controller.monitor.watch)

        supervisor.supervise(
            "controller",
            start_controller,
            processes=controller_procs(),
            policy=controller_policy,
            snapshot=controller.snapshot,
            ready=controller_ready,
            restarts=supervise,
        )

        # -- overload / brownout ---------------------------------------------
        if brownout:
            scene.brownout = BrownoutController(
                rt, controller, scene.guard, Configuration(dict(CHEAP_CONFIG)),
                period=1.0, enter_shed_rate=0.3, exit_shed_rate=0.05,
                enter_after=2, exit_after=3,
            ).start()

        # -- flash crowd -----------------------------------------------------
        for uid in range(int(crowd.get("users", 0))):
            scene.sim.process(
                closed_loop_viz_user(
                    rt, workload, rt.app_model, uid, crowd, seed,
                    parts["crowd_stats"],
                ),
                name=f"crowd-{uid}",
            )

    def watch(scene, detector):
        # Recovery-subsystem shared state: the supervisor's service and
        # checkpoint tables, each failover member's heartbeat/rank state,
        # and the overload guard's admission counters.  All of it is
        # touched from several coroutines (kill routing, safe-point
        # checkpointing, watchdog ticks, crowd requests) — exactly the
        # kind of cross-context state a tie-order race would corrupt.
        supervisor = scene.supervisor
        detector.watch_mapping(supervisor, "services", "supervisor.services")
        detector.watch_mapping(
            supervisor.store, "_latest", "supervisor.checkpoints"
        )
        detector.watch_mapping(
            supervisor.store, "_seq", "supervisor.checkpoint_seq"
        )
        detector.watch_calls(
            supervisor, ("_plan_restart", "_restart"),
            "supervisor.restart_table",
        )
        for member in (parts["member_client"], parts["member_server"]):
            if member is None:
                continue
            detector.watch_mapping(
                member, "last_seen",
                f"failover.{member.host_name}.last_seen",
            )
            detector.watch_calls(
                member, ("_take_over",),
                f"failover.{member.host_name}.takeover",
            )
        detector.watch_calls(scene.guard, ("admit",), "overload.guard")

    return build_adaptive_viz(
        "recovery", seed, until, db, viz_preference(), viz_initial_point(),
        {"client": ResourceLimits(net_bw=500e3)}, workload,
        functools.partial(
            _summarize_recovery, plan, n_images, crowd,
            {"supervise": supervise, "checkpoints": checkpoints,
             "failover": failover, "brownout": brownout},
            parts,
        ),
        must_finish=supervise,
        on_session=services,
        watch=watch,
        tiebreak=tiebreak, detect_races=detect_races,
        recorder=recorder, usage=usage, profiler=profiler,
    )


def _summarize_recovery(
    plan, n_images, crowd, modes, parts, scene, payload,
) -> Tuple[FigureResult, Dict]:
    supervisor, workload, brownout_ctl = (
        scene.supervisor, scene.workload, scene.brownout
    )
    # Accounting horizon: the teardown instant when the app finished (the
    # supervisor recorded it in shutdown()); for unsupervised runs that never
    # fire shutdown, fall back to the simulated clock.
    horizon = supervisor.shutdown_at
    if horizon is None:
        horizon = scene.sim.now
    supervisor.finalize(horizon)

    crowd_stats = parts["crowd_stats"]
    crowd_served = sum(s["served"] for s in crowd_stats.values())
    crowd_shed = sum(s["shed"] for s in crowd_stats.values())
    del payload["exchange"]
    payload.update(
        experiment="recovery",
        seed=scene.seed,
        n_images=n_images,
        modes=modes,
        fault_spec=plan.to_spec(),
        crowd={k: crowd[k] for k in sorted(crowd)},
        injections=scene.injector.log,
        recovery=supervisor.summary(horizon),
        horizon=horizon,
        failover={
            name: {
                "takeovers": m.takeovers,
                "handbacks": m.handbacks,
                "latencies": list(m.failover_latencies),
                "active_at_end": m.active,
            }
            for name, m in (
                ("client", parts["member_client"]),
                ("server", parts["member_server"]),
            )
            if m is not None
        },
        overload={
            **scene.guard.totals(),
            "crowd_served": crowd_served,
            "crowd_shed": crowd_shed,
            "interactive_shed_rounds": len(workload.shed_rounds),
            "brownout_windows": (
                [[t0, t1] for t0, t1 in brownout_ctl.windows]
                if brownout_ctl is not None
                else []
            ),
        },
        finished=bool(scene.rt.finished.triggered),
    )

    result = FigureResult(
        figure="Recovery",
        title="Supervised recovery through a crash storm and flash crowd",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    series = result.new_series(
        "adaptive, supervised" if modes["supervise"] else "adaptive, unsupervised"
    )
    for t, duration in workload.image_times:
        series.add(t, duration)
    for entry in scene.injector.log:
        what = entry.get("service") or entry.get("host") or entry.get("between")
        result.note(f"t={entry['t']:.1f}s: {entry['action']} ({what})")
    for m in payload["recovery"]["mttr"]:
        result.note(
            f"t={m['ready_at']:.1f}s: {m['service']} back up, "
            f"mttr={m['mttr']:.2f}s ({'warm' if m['warm'] else 'cold'})"
        )
    fo = payload["failover"].get("server")
    if fo is not None and fo["latencies"]:
        result.note(
            f"standby takeover latency: {fo['latencies'][0]:.2f}s "
            f"(takeovers={fo['takeovers']}, handbacks={fo['handbacks']})"
        )
    for t0, t1 in payload["overload"]["brownout_windows"]:
        t1s = f"{t1:.1f}" if t1 is not None else "end"
        result.note(f"brownout window: {t0:.1f}s .. {t1s}s")
    avail = payload["recovery"]["services"]
    for name in sorted(avail):
        result.note(
            f"availability[{name}] = {avail[name]['availability']:.4f} "
            f"({avail[name]['restarts']} restarts)"
        )
    result.note(
        f"crowd: {crowd_served} served, {crowd_shed} shed; "
        f"interactive rounds shed: {len(workload.shed_rounds)}"
    )
    result.note(f"final config: {payload['final_config']}")
    return result, payload


run_recovery = scene_runner(build_recovery)
