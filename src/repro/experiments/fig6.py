"""Figure 6: compression-method and resolution tradeoffs.

(a) Image transmission time vs network bandwidth for LZW ("compression A")
    and bzip2 ("compression B"): B wins on thin pipes (smaller payload), A
    wins on fat pipes (CPU becomes the bottleneck) — the crossover that
    drives Experiment 1.
(b) Image transmission time vs CPU share for resolution levels 3 and 4 —
    the basis of Experiment 2's quality degradation.

The Fig 5, 6a and 6b performance databases differ only in their row of
:data:`VIZ_PROFILES`: :func:`viz_database` builds each of them and
:func:`render_viz` draws their figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..apps.visualization import VizCosts, VizWorkload, make_viz_app
from ..exec import AppSpec, default_engine
from ..obs import Instruments
from ..profiling import (
    ProfilingDriver,
    ResourceDimension,
    ResourcePoint,
    vary_one_plan,
)
from ..tunable import Configuration
from .common import FigureResult

__all__ = [
    "EXP1_COSTS",
    "EXP2_COSTS",
    "EXP2_BW",
    "EXP3_COSTS",
    "EXP3_BW",
    "VIZ_PROFILES",
    "run_fig6a",
    "run_fig6b",
    "fig6a_database",
    "fig6b_database",
    "render_viz",
    "viz_database",
    "viz_workload",
]

#: Experiment-1 calibration: light rendering; time is network/codec bound.
EXP1_COSTS = VizCosts(display_cost=3e-5)
#: Experiment-2 calibration: heavy rendering; a 1 MB/s pipe (the Fig-4b
#: server limit), so CPU dominates and the 10 s deadline bites: level 4
#: lands just inside the deadline at 90 % CPU and far outside at 40 %.
EXP2_COSTS = VizCosts(display_cost=4.2e-4)
EXP2_BW = 1e6
#: Experiment-3 calibration: rendering cost placed so that the 1 s
#: response bound separates the fovea sizes the way the paper reports —
#: fovea 320 satisfies it at 90 % CPU (≈0.95 s) but not at 40 % (≈1.9 s),
#: and fovea 160 *barely misses* it at 40 % (≈1.05 s), making 80 the
#: scheduler's pick after the drop.  Per-request server work (pyramid
#: extraction) penalizes small fovea increments; 10 MB/s pipe.
EXP3_COSTS = VizCosts(
    display_cost=1.45e-4, client_round_overhead=9.0, server_round_overhead=20.0
)
EXP3_BW = 10e6

BANDWIDTHS: Tuple[float, ...] = (25e3, 50e3, 100e3, 200e3, 350e3, 500e3, 750e3, 1e6)
CPU_SHARES: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class VizProfile:
    """One Section 5 performance database: everything its sweep differs in."""

    costs: VizCosts
    cpu: Tuple[float, ...]  # client CPU-share levels
    network: Tuple[float, ...]  # client bandwidth levels
    vary: str  # the swept axis; every other axis stays at its top level
    configs: Tuple[Dict, ...]


#: Experiment number -> its database: 1 is Fig 6a, 2 Fig 6b, 3 Fig 5.
VIZ_PROFILES: Dict[int, VizProfile] = {
    1: VizProfile(
        EXP1_COSTS, (0.5, 1.0), BANDWIDTHS, "client.network",
        tuple({"dR": 320, "c": codec, "l": 4} for codec in ("lzw", "bzip2")),
    ),
    2: VizProfile(
        EXP2_COSTS, CPU_SHARES, (EXP2_BW / 2, EXP2_BW), "client.cpu",
        tuple({"dR": 320, "c": "lzw", "l": level} for level in (3, 4)),
    ),
    3: VizProfile(
        EXP3_COSTS, CPU_SHARES, (EXP3_BW / 2, EXP3_BW), "client.cpu",
        tuple({"dR": dr, "c": "lzw", "l": 4} for dr in (80, 160, 320)),
    ),
}


def viz_workload(config, point, run_seed, exp, n_images):
    """Module-level workload factory of database ``exp`` (importable by workers)."""
    return VizWorkload(n_images=n_images, costs=VIZ_PROFILES[exp].costs, seed=run_seed)


def viz_database(
    exp: int, levels: Sequence[float], n_images: int, seed: int,
    instruments: Instruments, engine, configs: Optional[Sequence[Dict]] = None,
):
    """Profile database ``exp`` with its varied axis at ``levels``.

    Returns (database, dims, configs); ``configs`` defaults to the
    table's.  Since engine workers carry no trace context, the sweep
    engine is only consulted when ``instruments`` is empty — or when
    ``engine`` is passed explicitly.
    """
    profile = VIZ_PROFILES[exp]
    app = make_viz_app()
    axes = {"client.cpu": profile.cpu, "client.network": profile.network}
    axes[profile.vary] = tuple(levels)
    dims = [
        ResourceDimension("client.cpu", axes["client.cpu"], lo=0.01, hi=1.0),
        ResourceDimension("client.network", axes["client.network"], lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:viz_workload",
        workload_kwargs={"exp": exp, "n_images": n_images},
    )
    if engine is None and not instruments:
        engine = default_engine()
    driver = ProfilingDriver(
        app, dims, workload_factory=app_spec.build_workload_factory(),
        seed=seed, app_spec=app_spec, instruments=instruments,
    )
    configs = [
        Configuration(c) for c in (profile.configs if configs is None else configs)
    ]
    base = ResourcePoint({d.name: d.levels[-1] for d in dims})
    plan = vary_one_plan(dims, profile.vary, base)
    db = driver.profile(configs=configs, plan=plan, engine=engine)
    return db, dims, configs


#: Varied axis -> (x-axis label, the plotted value of a level).
_X_AXES = {
    "client.cpu": ("CPU share (%)", lambda share: share * 100),
    "client.network": ("bandwidth (KB/s)", lambda bw: bw / 1e3),
}


def render_viz(
    exp: int, built: tuple, label: Callable[[Configuration], str],
    *figures: Tuple[str, str, str, str],
) -> Tuple[FigureResult, ...]:
    """One figure per ``(figure, title, metric, ylabel)`` over the
    ``(db, dims, configs)`` that database ``exp``'s builder returned:
    a curve per configuration, named ``label(config)``."""
    db, _dims, configs = built
    vary = VIZ_PROFILES[exp].vary
    xlabel, x = _X_AXES[vary]
    results = []
    for figure, title, metric, ylabel in figures:
        result = FigureResult(figure=figure, title=title, xlabel=xlabel, ylabel=ylabel)
        for config in configs:
            series = result.new_series(label(config))
            for point in db.points_for(config):
                series.add(x(point[vary]), db.record_at(config, point).metrics[metric])
            series.points.sort()
        results.append(result)
    return tuple(results)


def fig6a_database(
    bandwidths: Tuple[float, ...] = BANDWIDTHS,
    n_images: int = 1,
    seed: int = 0,
    recorder=None,
    engine=None,
    usage=None,
    profiler=None,
):
    """Profile {lzw, bzip2} over the client-bandwidth axis (CPU fixed)."""
    return viz_database(
        1, bandwidths, n_images, seed, Instruments(recorder, usage, profiler), engine
    )


def fig6b_database(
    shares: Tuple[float, ...] = CPU_SHARES,
    n_images: int = 1,
    seed: int = 0,
    recorder=None,
    engine=None,
    usage=None,
    profiler=None,
):
    """Profile resolution levels {3, 4} over the CPU-share axis."""
    return viz_database(
        2, shares, n_images, seed, Instruments(recorder, usage, profiler), engine
    )


def run_fig6a(seed: int = 0, engine=None) -> FigureResult:
    return render_viz(
        1, fig6a_database(seed=seed, engine=engine),
        lambda config: "A (LZW)" if config.c == "lzw" else "B (bzip2)",
        ("Fig 6a", "Image transmission time for different compression methods "
         "vs network bandwidth", "transmit_time", "transmission time (s)"),
    )[0]


def run_fig6b(seed: int = 0, engine=None) -> FigureResult:
    return render_viz(
        2, fig6b_database(seed=seed, engine=engine),
        lambda config: f"level {config.l}",
        ("Fig 6b", "Image transmission time for images of different resolutions "
         "vs CPU share", "transmit_time", "transmission time (s)"),
    )[0]
