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

import functools
from typing import Dict, Optional, Tuple

from ..apps.visualization import VizWorkload
from ..faults import FaultInjector, FaultPlan
from ..sandbox import ResourceLimits
from .common import (
    FigureResult,
    build_adaptive_viz,
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

    Builds through :func:`~repro.experiments.common.build_adaptive_viz`,
    adding the optional supervisor and the fault injector before the
    workload and the server's supervision before the controller attaches
    (construction order is byte-identity-gated by ``bench_chaos``).  The
    Scene's ``finalize()`` produces the figure + payload once the sim has
    been driven to ``until``.

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

    def workload(scene):
        if supervise:
            from ..recovery import Supervisor

            scene.supervisor = Supervisor(scene.sim, seed=seed).attach()
        scene.injector = FaultInjector.attach(scene.testbed, plan, seed=seed)
        return VizWorkload(n_images=n_images, costs=EXP1_COSTS, seed=seed)

    def supervise_server(scene):
        rt = scene.rt

        def respawn_server(state):
            from ..apps.visualization.server import server_process

            return rt.sim.process(
                server_process(rt, scene.workload, rt.app_model),
                name="viz-server",
            )

        scene.supervisor.supervise(
            "viz-server", respawn_server, processes=[rt.processes["viz-server"]]
        )

    return build_adaptive_viz(
        "chaos", seed, until, db, viz_preference(), viz_initial_point(),
        {"client": ResourceLimits(net_bw=500e3)}, workload,
        functools.partial(_summarize_chaos, plan, n_images, variations),
        variations=[(at, ResourceLimits(net_bw=bw)) for at, bw in variations],
        on_runtime=supervise_server if supervise else None,
        tiebreak=tiebreak, detect_races=detect_races,
        recorder=recorder, usage=usage, profiler=profiler,
    )


def _summarize_chaos(
    plan, n_images, variations, scene, payload
) -> Tuple[FigureResult, Dict]:
    injector, network = scene.injector, scene.testbed.network
    payload["network"].update(
        delayed=network.messages_delayed,
        duplicated=network.messages_duplicated,
    )
    payload["exchange"].update(
        client_expired=scene.client_exchange.expired,
        injector_dropped=injector.dropped,
        injector_delayed=injector.delayed,
    )
    payload.update(
        experiment="chaos",
        seed=scene.seed,
        n_images=n_images,
        fault_spec=plan.to_spec(),
        variations=[[at, bw] for at, bw in variations],
        injections=injector.log,
        lost_peers_at_end=sorted(scene.controller.lost_peers),
    )

    result = FigureResult(
        figure="Chaos",
        title="Adaptation trajectory through crash, partition, and recovery",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    series = result.new_series("adaptive under faults")
    for t, duration in scene.workload.image_times:
        series.add(t, duration)
    for entry in injector.log:
        what = entry.get("host") or entry.get("between") or entry.get("groups")
        result.note(f"t={entry['t']:.1f}s: {entry['action']} ({what})")
    for switch in payload["switches"]:
        result.note(
            f"t={switch['t']:.1f}s: switched {switch['from']} -> {switch['to']}"
        )
    kinds = [e.kind for e in scene.controller.events]
    for kind in ("peer-lost", "peer-recovered", "steering-timeout", "degraded"):
        result.note(f"{kind} events: {kinds.count(kind)}")
    result.note(f"final config: {payload['final_config']}")
    return result, payload


run_chaos = scene_runner(build_chaos)
