"""Figure 5: fovea-size tradeoff as CPU share varies.

(a) Image transmission time and (b) average response time for fovea sizes
{80, 160, 320} across CPU shares: more CPU improves both; a larger fovea
lowers total transmission time but raises per-round response time
(opposite trends — the reason adaptation must pick dR per CPU level).

Uses the Experiment-3 cost calibration (DESIGN.md §5): a fast link, with
client-side rendering dominating.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..apps.visualization import VizWorkload, make_viz_app
from ..obs import Instruments
from ..profiling import ResourcePoint, limits_for_point
from ..sandbox import ResourceLimits, Testbed
from ..sim import derive_seed
from ..tunable import Configuration
from .common import FigureResult, build_adaptive_viz
from .fig6 import (
    CPU_SHARES,
    EXP3_BW,
    EXP3_COSTS,
    VIZ_PROFILES,
    render_viz,
    viz_database,
    viz_workload,
)
from .scene import Scene, scene_runner

__all__ = [
    "run_fig5",
    "fig5_database",
    "build_fig5_cell",
    "build_fig5_session",
    "run_fig5_session",
    "DEFAULT_SESSION_VARIATIONS",
]

FOVEA_SIZES: Tuple[int, ...] = tuple(c["dR"] for c in VIZ_PROFILES[3].configs)


def fig5_database(
    shares: Tuple[float, ...] = CPU_SHARES,
    fovea_sizes: Tuple[int, ...] = FOVEA_SIZES,
    n_images: int = 2,
    seed: int = 0,
    recorder=None,
    engine=None,
    usage=None,
    profiler=None,
):
    """Profile the fovea-size configurations over the CPU-share axis.

    Returns (database, dims, configs) — also used by the Experiment-3
    adaptive run (Fig. 7c/d), which is how the paper uses these curves.
    An optional :class:`repro.obs.TraceRecorder` wraps each measurement
    in a ``profile.measure`` span (see :func:`viz_database` for when the
    sweep engine is consulted).
    """
    return viz_database(
        3, shares, n_images, seed, Instruments(recorder, usage, profiler), engine,
        configs=[{"dR": dr, "c": "lzw", "l": 4} for dr in fovea_sizes],
    )


def build_fig5_cell(
    seed: int = 0,
    tiebreak=None,
    detect_races: bool = False,
    recorder=None,
    usage=None,
    profiler=None,
) -> Scene:
    """One Experiment-3 profiling cell as a self-contained testbed run.

    ``fig5_database`` spawns a fresh simulator per (config, point) cell
    through the profiling driver, so tie directives — which name one
    simulator's sequence numbers — cannot target it as a whole.  This
    replays a single representative cell (fovea 160 at 60 % CPU, the
    mid-grid point) exactly as :meth:`ProfilingDriver.measure` would.
    The Scene's figure is ``None``: its payload is the cell's QoS.
    """
    config = Configuration({"dR": 160, "c": "lzw", "l": 4})
    point = ResourcePoint({"client.cpu": 0.6, "client.network": EXP3_BW})
    run_seed = derive_seed(seed, f"{config.label()}|{point.label()}")
    app = make_viz_app()
    testbed = Testbed(
        host_specs=app.env.host_specs(),
        link_specs=app.env.link_specs(),
        seed=run_seed,
        tiebreak=tiebreak,
    )
    detector = None
    if detect_races:
        from ..analysis.races import RaceDetector, watch

        detector = RaceDetector(testbed.sim).attach()
        for host_name in sorted(testbed.hosts):
            watch(detector, testbed.hosts[host_name])
    instruments = Instruments(recorder, usage, profiler).attach(testbed, config)
    workload = viz_workload(config, point, run_seed, 3, n_images=2)
    rt = app.instantiate(
        testbed,
        config,
        limits=limits_for_point(point),
        workload=workload,
        seed=run_seed,
    )

    def _finalize():
        testbed.shutdown()
        if not rt.finished.triggered:
            raise RuntimeError("fig5 cell run did not finish by t=600")
        payload: Dict = {
            "experiment": "fig5-cell",
            "seed": seed,
            "config": config.label(),
            "point": point.label(),
            "metrics": rt.qos.snapshot(),
            "image_times": [[t, d] for t, d in workload.image_times],
        }
        if detector is not None:
            payload["races"] = [r.to_dict() for r in detector.finish()]
            detector.detach()
        instruments.detach()
        return None, payload

    return Scene(
        name="fig5-cell", seed=seed, until=600.0, testbed=testbed,
        finalize=_finalize, rt=rt, workload=workload, instruments=instruments,
    )


#: CPU-share steps of the single adaptive Experiment-3 session: a drop to
#: the 40 % regime (where fovea 320 and 160 both miss the response bound,
#: per the EXP3_COSTS calibration in fig6 — the scheduler re-picks 80)
#: and a late recovery that lets adaptation switch back up.
DEFAULT_SESSION_VARIATIONS: Tuple[Tuple[float, float], ...] = (
    (20.0, 0.4),
    (60.0, 0.9),
)


def build_fig5_session(
    seed: int = 0,
    n_images: int = 30,
    variations: Tuple[Tuple[float, float], ...] = DEFAULT_SESSION_VARIATIONS,
    until: float = 2000.0,
    recorder=None,
    usage=None,
    profiler=None,
    tiebreak=None,
) -> Scene:
    """Construct one adaptive Experiment-3 session without running it.

    The fig5 *figure* is a profiling sweep (many independent testbeds);
    this is its adaptive counterpart — a single fovea-rendering session
    over the fig5 performance database whose client CPU share steps
    through ``variations``, so the monitor sees the drop, the response
    bound breaks, and the scheduler re-picks the fovea size exactly as
    the Fig. 5 curves predict.  Scenario of choice for the interactive
    context: short, fault-free, one clean violation -> re-selection ->
    recovery arc (fovea 320 -> 80 at the drop, back to 320 after).
    """
    from ..runtime import Objective, UserPreference
    from ..tunable import MetricRange

    db, _dims, _configs = fig5_database(seed=seed)

    def summarize(scene, payload):
        del payload["network"]["parked"]
        payload.update(
            experiment="fig5_session", seed=seed, n_images=n_images,
            variations=[[at, share] for at, share in variations],
        )
        result = FigureResult(
            figure="Fig 5 session",
            title="Adaptive fovea selection as client CPU share steps",
            xlabel="time (s)",
            ylabel="image transmission time (s)",
        )
        series = result.new_series("adaptive session")
        for t, duration in scene.workload.image_times:
            series.add(t, duration)
        for at, share in variations:
            result.note(f"t={at:.1f}s: client CPU share -> {share:g}")
        for switch in payload["switches"]:
            result.note(
                f"t={switch['t']:.1f}s: switched {switch['from']} -> {switch['to']}"
            )
        result.note(f"final config: {payload['final_config']}")
        return result, payload

    # The paper's Experiment-3 preference: minimize transmission time
    # subject to the 1 s round-response bound that separates the fovea
    # sizes (see EXP3_COSTS in fig6 and Experiment 3 in fig7).
    return build_adaptive_viz(
        "fig5sess", seed, until, db,
        UserPreference.single(
            Objective("transmit_time", "minimize"),
            [MetricRange("response_time", hi=1.0)],
        ),
        ResourcePoint({"client.cpu": 0.9, "client.network": EXP3_BW}),
        {"client": ResourceLimits(cpu_share=0.9, net_bw=EXP3_BW)},
        lambda scene: VizWorkload(n_images=n_images, costs=EXP3_COSTS, seed=seed),
        summarize,
        variations=[
            (at, ResourceLimits(cpu_share=share, net_bw=EXP3_BW))
            for at, share in variations
        ],
        tiebreak=tiebreak, recorder=recorder, usage=usage, profiler=profiler,
    )


run_fig5_session = scene_runner(build_fig5_session)


def run_fig5(seed: int = 0, engine=None) -> Tuple[FigureResult, FigureResult]:
    """(transmission-time figure, response-time figure)."""
    return render_viz(
        3, fig5_database(seed=seed, engine=engine),
        lambda config: f"fovea={config.dR}",
        ("Fig 5a", "Image transmission time for different fovea sizes vs CPU share",
         "transmit_time", "transmission time (s)"),
        ("Fig 5b", "Response time for different fovea sizes vs CPU share",
         "response_time", "response time (s)"),
    )
