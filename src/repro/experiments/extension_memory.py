"""Extension experiment: adapting to *memory* variations.

The paper's evaluation varies only CPU and network, "keeping memory
resources at a fixed level", but both its sandbox (page-protection
resident-set limits) and its framework treat memory as a first-class
resource.  This extension closes that loop with the memory-bound grid
application: profile the ``tile`` configurations over the resident-limit
axis, then drop the limit mid-run and watch the framework re-tile.

This is future work the paper enables but does not evaluate; the shape to
expect follows from the working-set model: large tiles win with ample
memory (less recomputation), small tiles win under pressure (no thrash).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apps import MemWorkload, make_membound_app
from ..profiling import (
    PerformanceDatabase,
    ProfilingDriver,
    ResourceDimension,
    ResourcePoint,
)
from ..runtime import (
    AdaptationController,
    Objective,
    ResourceScheduler,
    UserPreference,
)
from ..sandbox import ResourceLimits, Testbed
from ..tunable import Preprocessor
from .common import FigureResult

__all__ = ["memory_database", "run_memory_adaptation"]

#: Disk-backed paging cost (seconds per fault).
FAULT_COST = 2e-3
MEM_LEVELS: Tuple[float, ...] = (150, 300, 600, 1200, 4000)


def memory_database(
    levels: Tuple[float, ...] = MEM_LEVELS,
    seed: int = 0,
) -> Tuple[PerformanceDatabase, list]:
    """Profile every tile size over the resident-limit axis."""
    app = make_membound_app()
    dims = [ResourceDimension("node.memory", tuple(levels), lo=1)]

    def workload(config, point, run_seed):
        return MemWorkload(sweeps=8)

    # The profiling sandboxes must model expensive (disk-backed) faults.
    driver = ProfilingDriver(
        app, dims, workload_factory=workload, seed=seed,
        sandbox_kwargs={"fault_cost": FAULT_COST},
    )
    db = driver.profile()
    return db, app.configurations()


def run_memory_adaptation(
    seed: int = 0,
    drop_at_sweep_time: float = 2.0,
    from_pages: int = 4000,
    to_pages: int = 300,
    db: Optional[PerformanceDatabase] = None,
) -> Tuple[FigureResult, Dict]:
    """Adaptive run: resident limit drops mid-computation.

    Returns the per-sweep fault figure and a dict with the runs' outcomes.
    """
    if db is None:
        db, _ = memory_database(seed=seed)
    app = make_membound_app()
    pref = UserPreference.single(Objective("elapsed"))
    scheduler = ResourceScheduler(db, pref)
    controller = AdaptationController(
        scheduler,
        monitoring_plan=Preprocessor(app).monitoring_plan(),
        monitor_kwargs={"window": 0.5, "cooldown": 1.0},
    )
    decision = controller.select_initial(
        ResourcePoint({"node.memory": float(from_pages)})
    )

    outcomes: Dict[str, object] = {"initial_config": decision.config}
    runs = {}
    for adaptive in (True, False):
        testbed = Testbed(host_specs=app.env.host_specs(), seed=seed)
        workload = MemWorkload(sweeps=24)
        rt = app.instantiate(
            testbed,
            decision.config,
            limits={"node": ResourceLimits(mem_pages=from_pages)},
            workload=workload,
            sandbox_kwargs={"fault_cost": FAULT_COST},
        )
        if adaptive:
            ctl = AdaptationController(
                ResourceScheduler(db, pref),
                monitoring_plan=Preprocessor(app).monitoring_plan(),
                monitor_kwargs={"window": 0.5, "cooldown": 1.0},
            )
            ctl.current_decision = decision
            ctl.attach(rt)

        def vary(rt=rt):
            yield testbed.sim.timeout(drop_at_sweep_time)
            rt.sandboxes["node"].set_limits(ResourceLimits(mem_pages=to_pages))

        testbed.sim.process(vary())
        testbed.run(until=3600)
        testbed.shutdown()
        key = "adaptive" if adaptive else "static"
        runs[key] = {
            "workload": workload,
            "elapsed": rt.qos.get("elapsed"),
            "faults": rt.qos.get("faults"),
            "switches": list(rt.controls.history),
        }
    outcomes["runs"] = runs

    figure = FigureResult(
        figure="Ext M",
        title=f"Adapting tile size when the resident limit drops "
        f"{from_pages} -> {to_pages} pages",
        xlabel="sweep",
        ylabel="page faults",
    )
    for key in ("adaptive", "static"):
        series = figure.new_series(key)
        for sweep, faults in runs[key]["workload"].fault_log:
            series.add(sweep, faults)
    if runs["adaptive"]["switches"]:
        t, old, new = runs["adaptive"]["switches"][0]
        figure.note(f"adaptive re-tiled {old.tile} -> {new.tile} at t={t:.2f}s")
    figure.note(
        f"total elapsed: adaptive={runs['adaptive']['elapsed']:.2f}s, "
        f"static={runs['static']['elapsed']:.2f}s"
    )
    return figure, outcomes
