"""Chaos experiment: run-time adaptation under injected faults.

The paper's experiments vary resources *gently* (a bandwidth or CPU-share
step).  This experiment instead runs the visualization application while
the environment actively misbehaves — the server host crashes and
restarts, the client-server link partitions and heals, and the monitoring
exchange's estimate traffic is lossy and delayed — and records the full
configuration trajectory the adaptation runtime takes through it.

Everything is deterministic: infrastructure faults fire at scripted
virtual times and per-message faults draw from the seeded ``"faults"``
RNG stream, so two runs with the same ``(seed, fault_spec)`` produce
byte-identical trajectories.  Replay a run by passing its recorded
``fault_spec`` and seed back to :func:`run_chaos`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps.visualization import VizWorkload, make_viz_app
from ..faults import FaultInjector, FaultPlan
from ..sandbox import ResourceLimits, Testbed
from .common import (
    FigureResult,
    attach_instrumentation,
    build_viz_controller,
    detach_instrumentation,
    start_estimate_exchanges,
    viz_initial_point,
    viz_preference,
)
from .fig6 import EXP1_COSTS, fig6a_database
from .scene import Scene, scene_runner

__all__ = ["build_chaos", "run_chaos", "DEFAULT_FAULT_SPEC", "DEFAULT_VARIATIONS"]

#: The scripted fault schedule: a server crash window, a full client-server
#: partition, and a lossy/laggy spell on the monitoring exchange traffic.
DEFAULT_FAULT_SPEC: Dict = {
    "events": [
        {"kind": "crash", "host": "server", "at": 15.0, "until": 32.0,
         "mode": "queue"},
        {"kind": "partition", "groups": [["client"], ["server"]],
         "at": 60.0, "until": 70.0, "mode": "queue"},
        {"kind": "loss", "rate": 0.25, "port": "monitor.exchange",
         "at": 75.0, "until": 95.0},
        {"kind": "delay", "extra": 0.02, "jitter": 0.01,
         "port": "monitor.exchange", "at": 75.0, "until": 95.0},
    ]
}

#: Client bandwidth-limit steps (resource drift, not faults): a drop just
#: before the crash — so the resulting switch decision lands while the
#: client is stalled behind the dead server and the steering handshake
#: times out — then a recovery that lets adaptation switch back.
DEFAULT_VARIATIONS: Tuple[Tuple[float, float], ...] = (
    (7.0, 50e3),
    (100.0, 500e3),
)


def build_chaos(
    seed: int = 0,
    n_images: int = 8,
    fault_spec: Optional[Dict] = None,
    variations: Tuple[Tuple[float, float], ...] = DEFAULT_VARIATIONS,
    until: float = 2000.0,
    detect_races: bool = False,
    recorder=None,
    usage=None,
    supervise: bool = False,
    tiebreak=None,
    profiler=None,
) -> Scene:
    """Construct the adaptation run through crash/partition/loss faults, unrun.

    Performs every construction statement of :func:`run_chaos` in the
    original order (this order is byte-identity-gated by ``bench_chaos``)
    and returns a :class:`~repro.experiments.scene.Scene` whose
    ``finalize()`` produces the figure + payload once the sim has been
    driven to ``until``.

    With ``detect_races`` the run is instrumented by
    :class:`repro.analysis.RaceDetector`: every host mailbox and the
    exchanges' estimate tables are watched for same-timestamp conflicting
    accesses whose order is decided only by the event queue's FIFO
    tiebreak, and the payload gains a ``"races"`` list (empty == the
    trajectory does not hinge on scheduling accidents).

    With ``recorder`` (a :class:`repro.obs.TraceRecorder`) the run emits
    the full span/metric trace — the recorder is strictly passive, so the
    returned payload is byte-identical with or without it.

    With ``usage`` (a :class:`repro.obs.UsageAccountant`) the run also
    accounts served work per resource, process, and active configuration.
    Accounting is passive like tracing — the payload stays byte-identical
    — and the account is read from ``usage.summary()`` by the caller, not
    folded into the payload.

    With ``profiler`` (a :class:`repro.obs.KernelProfiler`) the kernel
    attributes host wall-clock cost per event bucket and counts heap /
    tie-window / fluid-update telemetry.  Profiling is passive like
    tracing — the payload stays byte-identical — and results are read
    from ``profiler.summary()`` by the caller.

    With ``tiebreak`` (a policy from :mod:`repro.analysis.schedule`) the
    event queue's same-instant tie order is under the caller's control —
    the schedule explorer uses this to replay the run under permuted
    same-``(time, priority)`` orders.  ``None`` is the default FIFO.

    With ``supervise`` a :class:`repro.recovery.Supervisor` owns the
    server process.  No process dies before the run finishes (host
    crashes park traffic, they don't kill processes), so the supervisor
    schedules nothing and draws no randomness — the payload is
    byte-identical with supervision on or off, which the chaos benchmark
    asserts.
    """
    db, _dims, _configs = fig6a_database(seed=seed)
    plan = FaultPlan.from_spec(
        DEFAULT_FAULT_SPEC if fault_spec is None else fault_spec
    )
    preference = viz_preference()
    initial_point = viz_initial_point()

    app = make_viz_app()
    _scheduler, controller = build_viz_controller(
        app, db, preference, recorder=recorder
    )
    config = controller.select_initial(initial_point).config

    testbed = Testbed(
        host_specs=app.env.host_specs(), link_specs=app.env.link_specs(),
        seed=seed, tiebreak=tiebreak,
    )
    supervisor = None
    if supervise:
        from ..recovery import Supervisor

        supervisor = Supervisor(testbed.sim, seed=seed).attach()
    injector = FaultInjector.attach(testbed, plan, seed=seed)
    workload = VizWorkload(n_images=n_images, costs=EXP1_COSTS, seed=seed)
    rt = app.instantiate(
        testbed,
        config,
        limits={"client": ResourceLimits(net_bw=500e3)},
        workload=workload,
    )
    if supervisor is not None:
        # Shut down before the server's normal post-CloseConnection exit
        # lands, so teardown is never mistaken for a death.
        if rt.finished.callbacks is not None:
            rt.finished.callbacks.append(lambda _e: supervisor.shutdown())

        def respawn_server(state):
            from ..apps.visualization.server import server_process

            return rt.sim.process(
                server_process(rt, workload, rt.app_model), name="viz-server"
            )

        supervisor.supervise(
            "viz-server", respawn_server, processes=[rt.processes["viz-server"]]
        )
    controller.attach(rt)

    # Estimate exchange in both directions; the client side feeds the
    # controller's watchdog with server heartbeats.
    server_agent, client_ex, server_ex = start_estimate_exchanges(rt, controller)

    detector = None
    if detect_races:
        from ..analysis.races import RaceDetector, watch

        detector = RaceDetector(testbed.sim).attach()
        for host_name in sorted(testbed.hosts):
            watch(detector, testbed.hosts[host_name])
        for label, exchange in (("client", client_ex), ("server", server_ex)):
            detector.watch_mapping(
                exchange, "remote_estimates", f"{label}.remote_estimates"
            )
            detector.watch_mapping(
                exchange, "peer_last_seen", f"{label}.peer_last_seen"
            )

    # Hook order: the race detector refuses to attach over an existing
    # step_hook, so it goes first; the accountant and the recorder each
    # chain whatever they find, recorder last (attach_instrumentation
    # keeps that canonical order).
    attach_instrumentation(
        testbed.sim, testbed, config,
        usage=usage, recorder=recorder, profiler=profiler,
    )

    def vary():
        for at, net_bw in variations:
            yield testbed.sim.timeout(at - testbed.sim.now)
            rt.sandboxes["client"].set_limits(ResourceLimits(net_bw=net_bw))

    if variations:
        testbed.sim.process(vary())

    def _finalize():
        testbed.shutdown()
        if not rt.finished.triggered:
            raise RuntimeError(f"chaos run did not finish by t={until}")
        return _summarize_chaos(
            plan=plan, seed=seed, n_images=n_images, variations=variations,
            injector=injector, controller=controller, rt=rt,
            workload=workload, testbed=testbed,
            client_ex=client_ex, server_ex=server_ex, detector=detector,
            usage=usage, recorder=recorder, profiler=profiler,
        )

    return Scene(
        name="chaos", seed=seed, until=until, testbed=testbed,
        finalize=_finalize, rt=rt, controller=controller, workload=workload,
        injector=injector, supervisor=supervisor,
        client_exchange=client_ex, server_exchange=server_ex,
        recorder=recorder, usage=usage, profiler=profiler,
    )


def _summarize_chaos(
    plan, seed, n_images, variations, injector, controller, rt, workload,
    testbed, client_ex, server_ex, detector, usage, recorder, profiler,
) -> Tuple[FigureResult, Dict]:
    payload = {
        "experiment": "chaos",
        "seed": seed,
        "n_images": n_images,
        "fault_spec": plan.to_spec(),
        "variations": [[at, bw] for at, bw in variations],
        "injections": injector.log,
        "events": [
            {
                "t": e.time,
                "kind": e.kind,
                "config": e.config.label() if e.config is not None else None,
            }
            for e in controller.events
        ],
        "switches": [
            {"t": t, "from": old.label(), "to": new.label()}
            for t, old, new in rt.controls.history
        ],
        "final_config": rt.controls.current.label(),
        "qos": rt.qos.snapshot(),
        "image_times": [[t, d] for t, d in workload.image_times],
        "network": {
            "delivered": testbed.network.messages_delivered,
            "lost": testbed.network.messages_lost,
            "delayed": testbed.network.messages_delayed,
            "duplicated": testbed.network.messages_duplicated,
            "parked": testbed.network.messages_parked_total,
        },
        "exchange": {
            "client_updates_received": client_ex.updates_received,
            "server_updates_received": server_ex.updates_received,
            "client_expired": client_ex.expired,
            "injector_dropped": injector.dropped,
            "injector_delayed": injector.delayed,
        },
        "lost_peers_at_end": sorted(controller.lost_peers),
        "total_time": workload.image_times[-1][0] if workload.image_times else 0.0,
    }
    if detector is not None:
        payload["races"] = [r.to_dict() for r in detector.finish()]
        detector.detach()
    detach_instrumentation(usage=usage, recorder=recorder, profiler=profiler)

    result = FigureResult(
        figure="Chaos",
        title="Adaptation trajectory through crash, partition, and recovery",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    series = result.new_series("adaptive under faults")
    for t, duration in workload.image_times:
        series.add(t, duration)
    for entry in injector.log:
        what = entry.get("host") or entry.get("between") or entry.get("groups")
        result.note(f"t={entry['t']:.1f}s: {entry['action']} ({what})")
    for switch in payload["switches"]:
        result.note(
            f"t={switch['t']:.1f}s: switched {switch['from']} -> {switch['to']}"
        )
    kinds = [e.kind for e in controller.events]
    for kind in ("peer-lost", "peer-recovered", "steering-timeout", "degraded"):
        result.note(f"{kind} events: {kinds.count(kind)}")
    result.note(f"final config: {payload['final_config']}")
    return result, payload


run_chaos = scene_runner(build_chaos)
