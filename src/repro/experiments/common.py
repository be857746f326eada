"""Shared experiment harness: series containers, rendering, sweep plumbing.

Every figure module returns a :class:`FigureResult` holding named
:class:`Series`; benchmarks assert on the series' qualitative shape and the
harness prints them as aligned tables plus an ASCII sketch, so the paper's
plots can be eyeballed straight from the terminal.

Grid loops inside the figure modules run their cells through
:func:`sweep_cells` (re-exported from :mod:`repro.exec`): each cell is a
pure module-level job function, so the CLI's ``--jobs``/``--no-cache``
flags parallelize and memoize every experiment without the figure code
knowing — and with ``jobs=1`` the cells execute inline, preserving the
serial path byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exec import sweep_cells
from ..obs import Instruments
from .scene import Scene

__all__ = [
    "Series",
    "FigureResult",
    "render_table",
    "ascii_plot",
    "sweep_cells",
    "viz_preference",
    "viz_initial_point",
    "build_adaptive_viz",
    "closed_loop_viz_user",
]


@dataclass
class Series:
    """One plotted curve: (x, y) points plus a label."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    @property
    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    @property
    def ys(self) -> List[float]:
        return [y for _, y in self.points]

    def y_at(self, x: float, tol: float = 1e-9) -> float:
        for px, py in self.points:
            if abs(px - x) <= tol:
                return py
        raise KeyError(f"series {self.label!r} has no point at x={x!r}")

    def monotone(self) -> str:
        """"increasing" / "decreasing" / "mixed" over x order."""
        ys = [y for _, y in sorted(self.points)]
        inc = all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))
        dec = all(a >= b - 1e-12 for a, b in zip(ys, ys[1:]))
        if inc and not dec:
            return "increasing"
        if dec and not inc:
            return "decreasing"
        if inc and dec:
            return "constant"
        return "mixed"


@dataclass
class FigureResult:
    """All series of one reproduced figure, plus free-form notes."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        s = Series(label)
        self.series[label] = s
        return s

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, plot: bool = True, width: int = 72, height: int = 16) -> str:
        out = [f"== {self.figure}: {self.title} =="]
        out.append(render_table(self))
        if plot and any(s.points for s in self.series.values()):
            out.append(ascii_plot(self, width=width, height=height))
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)


def render_table(result: FigureResult) -> str:
    """Aligned x/series table of every curve in the figure."""
    xs: List[float] = sorted({x for s in result.series.values() for x, _ in s.points})
    labels = list(result.series)
    header = [result.xlabel] + labels
    rows = [header]
    for x in xs:
        row = [f"{x:g}"]
        for label in labels:
            try:
                row.append(f"{result.series[label].y_at(x):.3f}")
            except KeyError:
                row.append("-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


_MARKS = "*o+x#@%&"


def ascii_plot(result: FigureResult, width: int = 72, height: int = 16) -> str:
    """Minimal terminal scatter of every series (one mark per series)."""
    pts = [(x, y) for s in result.series.values() for x, y in s.points]
    if not pts:
        return "(no data)"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    grid = [[" "] * width for _ in range(height)]
    for i, (label, series) in enumerate(result.series.items()):
        mark = _MARKS[i % len(_MARKS)]
        for x, y in series.points:
            col = int((x - x0) / (x1 - x0) * (width - 1))
            row = height - 1 - int((y - y0) / (y1 - y0) * (height - 1))
            grid[row][col] = mark
    lines = [f"{y1:10.3g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 10 + " |" + "".join(row))
    lines.append(f"{y0:10.3g} +" + "".join(grid[-1]))
    lines.append(
        " " * 12 + f"{x0:<12g}{result.xlabel:^{max(0, width - 24)}}{x1:>12g}"
    )
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]}={label}" for i, label in enumerate(result.series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The adaptive visualization session: one skeleton behind every Scene that
# runs the adaptation runtime (fig5sess, chaos, recovery, crowd, Fig 7).
#
# Keep construction order and RNG stream names stable: order decides
# same-instant FIFO ties, and the chaos/recovery/crowd payloads, the suite
# goldens and the Fig 7 artifacts are byte-identity-gated.
# ---------------------------------------------------------------------------


def viz_preference():
    """The experiments' common user preference: minimize transmit time."""
    from ..runtime import Objective, UserPreference

    return UserPreference.single(Objective("transmit_time", "minimize"))


def viz_initial_point():
    """The initial resource availability every scenario starts from."""
    from ..profiling import ResourcePoint

    return ResourcePoint({"client.cpu": 1.0, "client.network": 500e3})


#: Every session's monitor tuning unless a caller overrides it (A3 does).
_MONITOR = {"window": 2.0, "cooldown": 5.0, "period": 0.01}
#: The fault-tolerant controller of every session with estimate exchanges.
_RESILIENT = {
    "steering_kwargs": {"ack_timeout": 2.0, "max_retries": 2, "backoff": 2.0},
    "watchdog_period": 0.5,
}


def build_adaptive_viz(
    name: str,
    seed: int,
    until: float,
    db,
    preference,
    initial_point,
    limits,
    workload: Callable[[Scene], Any],
    summarize: Callable[[Scene, Dict], Tuple[Any, Dict]],
    variations: Sequence[Tuple[float, Any]] = (),
    config=None,
    exchanges: bool = True,
    must_finish: bool = True,
    monitor_kwargs: Optional[dict] = None,
    optimality_slack: float = 0.1,
    on_runtime: Optional[Callable[[Scene], None]] = None,
    on_session: Optional[Callable[[Scene], None]] = None,
    watch: Optional[Callable[[Scene, Any], None]] = None,
    tiebreak=None,
    detect_races: bool = False,
    recorder=None,
    usage=None,
    profiler=None,
) -> Scene:
    """Construct one adaptive visualization session as an unrun Scene.

    The skeleton runs in one fixed order, because construction order
    decides same-instant FIFO ties:

    1. the adaptation controller over ``db`` and ``preference``, and its
       initial configuration at ``initial_point`` (a static run passes
       ``config`` instead and gets no controller);
    2. ``Testbed(seed, tiebreak)``;
    3. ``workload(scene)``, which returns the ``VizWorkload`` after
       building whatever must exist before it (a supervisor, an injector);
    4. ``app.instantiate`` under ``limits``; a supervisor the workload
       hook set on the scene shuts down as the app finishes; then
       ``on_runtime(scene)``;
    5. ``controller.attach``; with ``exchanges``, the estimate exchange in
       both directions and the controller's peer watchdog;
    6. ``on_session(scene)``: the scenario's own services and load;
    7. with ``detect_races``, a race detector on every host mailbox, both
       exchanges' tables and whatever ``watch(scene, detector)`` adds;
    8. the passive instruments, then a process that sets the client's
       limits at each ``(at, ResourceLimits)`` of ``variations``.

    ``finalize`` shuts the testbed down, raises if ``must_finish`` and the
    app has not finished, and passes the common payload (events, switches,
    final config, QoS, image times, network and exchange counters) to
    ``summarize(scene, payload)``, which returns ``(figure, payload)``.
    The race report joins the payload, then the instruments detach.

    With exchanges the controller is the fault-tolerant one (steering ack
    timeout with retries, 0.5 s watchdog); without them it is the paper's
    plain runtime, as in Fig 7.
    """
    from ..apps.visualization import make_viz_app
    from ..runtime import (
        AdaptationController,
        MonitorExchange,
        MonitoringAgent,
        ResourceScheduler,
    )
    from ..sandbox import Testbed
    from ..tunable import Preprocessor

    app = make_viz_app()
    controller = None
    if config is None:
        controller = AdaptationController(
            ResourceScheduler(db, preference, optimality_slack=optimality_slack),
            monitoring_plan=Preprocessor(app).monitoring_plan(),
            monitor_kwargs=monitor_kwargs or _MONITOR,
            recorder=recorder,
            **(_RESILIENT if exchanges else {}),
        )
        config = controller.select_initial(initial_point).config
    testbed = Testbed(
        host_specs=app.env.host_specs(), link_specs=app.env.link_specs(),
        seed=seed, tiebreak=tiebreak,
    )
    instruments = Instruments(recorder, usage, profiler)
    detector = None

    def _finalize():
        testbed.shutdown()
        if must_finish and not scene.rt.finished.triggered:
            raise RuntimeError(f"{name} run did not finish by t={until}")
        figure, payload = summarize(scene, _session_payload(scene))
        if detector is not None:
            payload["races"] = [r.to_dict() for r in detector.finish()]
            detector.detach()
        instruments.detach()
        return figure, payload

    scene = Scene(
        name=name, seed=seed, until=until, testbed=testbed,
        finalize=_finalize, controller=controller, config=config,
        instruments=instruments,
    )
    scene.workload = workload(scene)
    scene.rt = rt = app.instantiate(
        testbed, config, limits=limits, workload=scene.workload
    )
    if scene.supervisor is not None and rt.finished.callbacks is not None:
        # Shut down before the server's normal post-CloseConnection exit
        # lands, so teardown is never mistaken for a death.
        rt.finished.callbacks.append(lambda _e: scene.supervisor.shutdown())
    if on_runtime is not None:
        on_runtime(scene)
    if controller is not None:
        controller.attach(rt)
    if exchanges:
        server_agent = MonitoringAgent(
            rt, watch=["server.cpu"], period=0.05
        ).start()
        scene.client_exchange = MonitorExchange(
            rt, controller.monitor, "client", ["server"],
            stale_after=2.0, heartbeat_every=0.5,
        ).start()
        scene.server_exchange = MonitorExchange(
            rt, server_agent, "server", ["client"],
            stale_after=2.0, heartbeat_every=0.5,
        ).start()
        controller.start_watchdog(scene.client_exchange)
    if on_session is not None:
        on_session(scene)

    if detect_races:
        from ..analysis.races import RaceDetector, watch as watch_host

        detector = RaceDetector(testbed.sim).attach()
        for host_name in sorted(testbed.hosts):
            watch_host(detector, testbed.hosts[host_name])
        if exchanges:
            for label, exchange in (
                ("client", scene.client_exchange),
                ("server", scene.server_exchange),
            ):
                detector.watch_mapping(
                    exchange, "remote_estimates", f"{label}.remote_estimates"
                )
                detector.watch_mapping(
                    exchange, "peer_last_seen", f"{label}.peer_last_seen"
                )
        if watch is not None:
            watch(scene, detector)

    instruments.attach(testbed, config)

    def vary():
        for at, client_limits in variations:
            yield testbed.sim.timeout(at - testbed.sim.now)
            rt.sandboxes["client"].set_limits(client_limits)

    if variations:
        testbed.sim.process(vary())
    return scene


def _session_payload(scene: Scene) -> Dict:
    """The payload keys adaptive sessions share; ``summarize`` edits them."""
    rt, workload, network = scene.rt, scene.workload, scene.testbed.network
    events = scene.controller.events if scene.controller is not None else []
    payload: Dict = {
        "events": [
            {
                "t": e.time,
                "kind": e.kind,
                "config": e.config.label() if e.config is not None else None,
            }
            for e in events
        ],
        "switches": [
            {"t": t, "from": old.label(), "to": new.label()}
            for t, old, new in rt.controls.history
        ],
        "final_config": rt.controls.current.label(),
        "qos": rt.qos.snapshot(),
        "image_times": [[t, d] for t, d in workload.image_times],
        "network": {
            "delivered": network.messages_delivered,
            "lost": network.messages_lost,
            "parked": network.messages_parked_total,
        },
        "total_time": workload.image_times[-1][0] if workload.image_times else 0.0,
    }
    if scene.client_exchange is not None:
        payload["exchange"] = {
            "client_updates_received": scene.client_exchange.updates_received,
            "server_updates_received": scene.server_exchange.updates_received,
        }
    return payload


def closed_loop_viz_user(rt, workload, model, uid, spec, seed, stats,
                         stream_prefix="recovery.crowd",
                         port_prefix="viz.crowd"):
    """One closed-loop background user: small foveal requests, QoS class 0.

    The coroutine counterpart of one crowd-class user — the recovery
    experiment's flash crowd runs N of these, and the crowd benchmark's
    baseline scenario reuses them verbatim.  Think times draw from the
    per-user ``<stream_prefix>.<uid>`` stream, never the global RNG.
    """
    from ..apps.visualization.protocol import (
        REQ_PORT,
        REQUEST_WIRE_BYTES,
        FovealRequest,
    )
    from ..apps.visualization.server import SERVER_HOST
    from ..sim import stream

    sandbox = rt.sandboxes["client"]
    sim = rt.sim
    rng = stream(seed, f"{stream_prefix}.{uid}")
    port = f"{port_prefix}.{uid}"
    level = int(spec["level"])
    side = model.level_side(level)
    end = float(spec["start"]) + float(spec["duration"])
    stats[uid] = {"served": 0, "shed": 0}
    # Deterministic ramp: users arrive staggered, not as one thundering tick.
    yield sandbox.sleep(float(spec["start"]) + 0.05 * uid)
    seq = 0
    while sim.now < end:
        req = FovealRequest(
            image_id=uid % workload.n_images,
            x=side // 2,
            y=side // 2,
            r0=0,
            r1=int(spec["r1"]),
            level=level,
            seq=seq,
            priority=0,
            reply_port=port,
        )
        yield sandbox.send(SERVER_HOST, REQ_PORT, req, size=REQUEST_WIRE_BYTES)
        msg = yield sandbox.recv(port)
        if getattr(msg.payload, "shed", False):
            stats[uid]["shed"] += 1
        else:
            stats[uid]["served"] += 1
        seq += 1
        yield sandbox.sleep(float(spec["think"]) * (0.5 + rng.random()))
