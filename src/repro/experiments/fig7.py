"""Figure 7: run-time adaptation experiments (Section 7).

Each experiment runs the adaptive application against a mid-run resource
variation and also runs the two relevant static configurations, plotting
per-image metrics versus time:

- Experiment 1 (Fig. 7a): network bandwidth 500 KB/s -> 50 KB/s at t=25 s;
  objective: minimize transmission time; adaptation switches compression
  A -> B mid-image.
- Experiment 2 (Fig. 7b): CPU share 90 % -> 40 % at t=30 s; constraint:
  transmission time <= 10 s, maximize resolution; adaptation degrades the
  resolution level 4 -> 3.
- Experiment 3 (Fig. 7c/d): CPU share 90 % -> 40 % at t=40 s; constraint:
  average response time <= 1 s, minimize transmission time; adaptation
  shrinks the fovea 320 -> 80.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..apps.visualization import VizWorkload
from ..profiling import PerformanceDatabase, ResourcePoint
from ..runtime import AdaptationEvent, Objective, UserPreference
from ..sandbox import ResourceLimits
from ..tunable import Configuration, MetricRange
from .common import FigureResult, build_adaptive_viz, sweep_cells
from .fig5 import fig5_database
from .fig6 import EXP2_BW, EXP3_BW, VIZ_PROFILES, fig6a_database, fig6b_database
from .scene import Scene

__all__ = [
    "AdaptiveRun",
    "build_fig7",
    "build_fig7_exp1",
    "build_fig7_exp2",
    "build_fig7_exp3",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
]


@dataclass
class AdaptiveRun:
    """Everything observed in one (adaptive or static) run.

    Holds plain data (not live workload objects) so a run can cross a
    process boundary: Fig-7 scenarios execute as sweep-engine jobs that
    return :meth:`to_dict`, and the parent rebuilds the run with
    :meth:`from_dict` — byte-identically.
    """

    label: str
    qos: Dict[str, float]
    image_times: List[Tuple[float, float]] = field(default_factory=list)
    round_times: List[Tuple[float, float]] = field(default_factory=list)
    switches: List[Tuple[float, Configuration, Configuration]] = field(
        default_factory=list
    )
    events: List[AdaptationEvent] = field(default_factory=list)
    total_time: float = 0.0

    @property
    def image_series(self) -> List[Tuple[float, float]]:
        return list(self.image_times)

    @property
    def response_series(self) -> List[Tuple[float, float]]:
        return list(self.round_times)

    def to_dict(self) -> dict:
        """JSON-able form (ships runs across process boundaries)."""
        return {
            "label": self.label,
            "qos": dict(self.qos),
            "image_times": [[t, d] for t, d in self.image_times],
            "round_times": [[t, d] for t, d in self.round_times],
            "switches": [
                [t, dict(old), dict(new)] for t, old, new in self.switches
            ],
            "events": [e.to_dict() for e in self.events],
            "total_time": self.total_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveRun":
        """Inverse of :meth:`to_dict`."""
        return cls(
            label=data["label"],
            qos={k: float(v) for k, v in data["qos"].items()},
            image_times=[(float(t), float(d)) for t, d in data["image_times"]],
            round_times=[(float(t), float(d)) for t, d in data["round_times"]],
            switches=[
                (float(t), Configuration(old), Configuration(new))
                for t, old, new in data["switches"]
            ],
            events=[AdaptationEvent.from_dict(e) for e in data["events"]],
            total_time=float(data["total_time"]),
        )


@dataclass(frozen=True)
class _Experiment:
    """One Section 7 experiment: everything its runs differ in, besides
    the workload costs of its profile (``VIZ_PROFILES[exp]``)."""

    database: Callable[..., tuple]
    #: The client's (CPU share, bandwidth) before and after the step; a
    #: ``None`` share leaves the CPU uncapped.
    before: Tuple[Optional[float], float]
    after: Tuple[Optional[float], float]
    #: The objective's (metric, sense), and the metric ``bound`` caps.
    objective: Tuple[str, str]
    bounded: Optional[str]
    #: Static run key -> (configuration, curve label).
    static: Callable[[str], Tuple[Dict, str]]
    #: Defaults of the registered ``fig7-exp<N>`` scenarios.
    n_images: int
    switch_at: float
    bound: Optional[float]


_EXPERIMENTS: Dict[int, _Experiment] = {
    1: _Experiment(
        fig6a_database, (None, 500e3), (None, 50e3),
        ("transmit_time", "minimize"), None,
        lambda run: ({"dR": 320, "c": run, "l": 4}, f"static {run}"),
        n_images=10, switch_at=25.0, bound=None,
    ),
    2: _Experiment(
        fig6b_database, (0.9, EXP2_BW), (0.4, EXP2_BW),
        ("resolution", "maximize"), "transmit_time",
        lambda run: (
            {"dR": 320, "c": "lzw", "l": int(run[1:])},
            f"static level {run[1:]}",
        ),
        n_images=10, switch_at=30.0, bound=10.0,
    ),
    3: _Experiment(
        fig5_database, (0.9, EXP3_BW), (0.4, EXP3_BW),
        ("transmit_time", "minimize"), "response_time",
        lambda run: (
            {"dR": int(run[2:]), "c": "lzw", "l": 4},
            f"static fovea {run[2:]}",
        ),
        n_images=16, switch_at=40.0, bound=1.0,
    ),
}


def build_fig7(
    exp: int,
    seed: int = 0,
    run: str = "adaptive",
    n_images: Optional[int] = None,
    switch_at: Optional[float] = None,
    bound: Optional[float] = None,
    db: Optional[PerformanceDatabase] = None,
    tiebreak=None,
    detect_races: bool = False,
    recorder=None,
    usage=None,
    profiler=None,
) -> Scene:
    """One Fig 7 run, adaptive or a static comparison curve, as a Scene.

    ``exp`` picks Experiment 1, 2 or 3.  ``run`` is ``"adaptive"`` or one
    of the experiment's static keys (``lzw``/``bzip2``, ``l4``/``l3``,
    ``dR320``/``dR80``).  The client's limits step at ``switch_at``, and
    ``bound`` caps the constrained metric (Experiment 2's deadline,
    Experiment 3's response bound).  ``None`` takes the experiment's
    default, and ``db`` defaults to its performance database.  The Scene's
    figure is ``None``; its payload is the run's ``AdaptiveRun.to_dict()``.
    """
    spec = _EXPERIMENTS[exp]
    n_images = spec.n_images if n_images is None else n_images
    switch_at = spec.switch_at if switch_at is None else switch_at
    bound = spec.bound if bound is None else bound
    if db is None:
        db = spec.database(seed=seed)[0]
    (share, bw), (after_share, after_bw) = spec.before, spec.after
    ranges = [MetricRange(spec.bounded, hi=bound)] if spec.bounded else []
    config, label = None, "adaptive"
    if run != "adaptive":
        static, label = spec.static(run)
        config = Configuration(static)

    def summarize(scene, payload):
        workload, controller = scene.workload, scene.controller
        return None, AdaptiveRun(
            label=label,
            qos=payload["qos"],
            image_times=list(workload.image_times),
            round_times=list(workload.round_times),
            switches=list(scene.rt.controls.history),
            events=list(controller.events) if controller is not None else [],
            total_time=payload["total_time"],
        ).to_dict()

    return build_adaptive_viz(
        f"fig7-exp{exp}", seed, 10_000.0, db,
        UserPreference.single(Objective(*spec.objective), ranges),
        ResourcePoint({"client.cpu": share or 1.0, "client.network": bw}),
        {"client": ResourceLimits(cpu_share=share, net_bw=bw)},
        lambda scene: VizWorkload(
            n_images=n_images, costs=VIZ_PROFILES[exp].costs, seed=seed
        ),
        summarize,
        variations=[
            (switch_at, ResourceLimits(cpu_share=after_share, net_bw=after_bw))
        ],
        config=config,
        exchanges=False,
        tiebreak=tiebreak, detect_races=detect_races,
        recorder=recorder, usage=usage, profiler=profiler,
    )


#: The adaptive run of each experiment, registered as ``fig7-exp<N>``.
build_fig7_exp1 = functools.partial(build_fig7, 1)
build_fig7_exp2 = functools.partial(build_fig7, 2)
build_fig7_exp3 = functools.partial(build_fig7, 3)


def _fig7_cell(payload: dict, seed: int) -> dict:
    """Sweep job: one Fig 7 run; the payload holds ``build_fig7``'s args."""
    args = dict(payload, db=PerformanceDatabase.from_dict(payload["db"]))
    return build_fig7(seed=seed, **args).run()[1]


def _runs(exp, keys, db, seed, engine, **params) -> Dict[str, AdaptiveRun]:
    """One experiment's adaptive and static runs, through the sweep engine."""
    db_dict = db.to_dict()
    values = sweep_cells(
        "repro.experiments.fig7:_fig7_cell",
        [{"exp": exp, "db": db_dict, "run": key, **params} for key in keys],
        seed=seed,
        engine=engine,
    )
    return {key: AdaptiveRun.from_dict(value) for key, value in zip(keys, values)}


# ------------------------------------------------------------ experiment 1


def run_experiment1(
    seed: int = 0,
    n_images: int = 10,
    switch_at: float = 25.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting the compression method to network conditions (Fig. 7a)."""
    if db is None:
        db, _dims, _configs = fig6a_database(seed=seed, engine=engine)
    runs = _runs(
        1, ("adaptive", "lzw", "bzip2"), db, seed, engine,
        n_images=n_images, switch_at=switch_at,
    )

    result = FigureResult(
        figure="Fig 7a",
        title="Adapting compression method when bandwidth drops "
        f"500 KB/s -> 50 KB/s at t={switch_at:g}s",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    for key, label in (("adaptive", "adaptive"), ("lzw", "static A (LZW)"),
                       ("bzip2", "static B (bzip2)")):
        series = result.new_series(label)
        for t, duration in runs[key].image_series:
            series.add(t, duration)
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        result.note(
            f"adaptive switched {old.c} -> {new.c} at t={t_switch:.1f}s"
        )
    result.note(
        f"total: adaptive={runs['adaptive'].total_time:.0f}s, "
        f"static A={runs['lzw'].total_time:.0f}s, "
        f"static B={runs['bzip2'].total_time:.0f}s"
    )
    return result, runs


# ------------------------------------------------------------ experiment 2


def run_experiment2(
    seed: int = 0,
    n_images: int = 10,
    switch_at: float = 30.0,
    deadline: float = 10.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting image resolution to CPU conditions (Fig. 7b)."""
    if db is None:
        db, _dims, _configs = fig6b_database(seed=seed, engine=engine)
    runs = _runs(
        2, ("adaptive", "l4", "l3"), db, seed, engine,
        n_images=n_images, switch_at=switch_at, bound=deadline,
    )

    result = FigureResult(
        figure="Fig 7b",
        title="Degrading image resolution when CPU share drops 90% -> 40% "
        f"at t={switch_at:g}s (deadline {deadline:g}s)",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    for key, label in (("adaptive", "adaptive"), ("l4", "static level 4"),
                       ("l3", "static level 3")):
        series = result.new_series(label)
        for t, duration in runs[key].image_series:
            series.add(t, duration)
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        result.note(f"adaptive switched level {old.l} -> {new.l} at t={t_switch:.1f}s")
    return result, runs


# ------------------------------------------------------------ experiment 3


def run_experiment3(
    seed: int = 0,
    n_images: int = 16,
    switch_at: float = 40.0,
    response_bound: float = 1.0,
    db: Optional[PerformanceDatabase] = None,
    engine=None,
) -> Tuple[FigureResult, FigureResult, Dict[str, AdaptiveRun]]:
    """Adapting fovea size to CPU conditions (Figs. 7c and 7d)."""
    if db is None:
        db, _dims, _configs = fig5_database(seed=seed, engine=engine)
    runs = _runs(
        3, ("adaptive", "dR320", "dR80"), db, seed, engine,
        n_images=n_images, switch_at=switch_at, bound=response_bound,
    )

    fig_c = FigureResult(
        figure="Fig 7c",
        title="Response time while adapting fovea size (CPU 90% -> 40% "
        f"at t={switch_at:g}s, bound {response_bound:g}s)",
        xlabel="time (s)",
        ylabel="round response time (s)",
    )
    fig_d = FigureResult(
        figure="Fig 7d",
        title="Transmission time while adapting fovea size",
        xlabel="time (s)",
        ylabel="image transmission time (s)",
    )
    for key, label in (("adaptive", "adaptive"), ("dR320", "static fovea 320"),
                       ("dR80", "static fovea 80")):
        sc = fig_c.new_series(label)
        for t, duration in runs[key].response_series:
            sc.add(t, duration)
        sd = fig_d.new_series(label)
        for t, duration in runs[key].image_series:
            sd.add(t, duration)
    if runs["adaptive"].switches:
        t_switch, old, new = runs["adaptive"].switches[0]
        fig_c.note(f"adaptive switched fovea {old.dR} -> {new.dR} at t={t_switch:.1f}s")
    return fig_c, fig_d, runs
