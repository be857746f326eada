"""``repro sweep`` — run a profiling sweep through the engine directly.

A thin front end over :class:`~repro.exec.engine.SweepEngine` +
:class:`~repro.profiling.ProfilingDriver` for the bundled applications::

    python -m repro.cli sweep toy                 # serial, cached
    python -m repro.cli sweep toy --jobs 4        # 4 worker processes
    python -m repro.cli sweep viz --no-cache      # always re-simulate
    python -m repro.cli sweep toy --out toy.json  # save the database

Repeated invocations are served from the content-addressed result cache
(default ``.repro_cache``) until the source tree, the spec, or the seed
changes — the summary line reports how much simulated wall time that
saved.  See ``docs/parallel.md``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .profile_jobs import AppSpec

__all__ = ["sweep_main", "SWEEPS"]


def _toy_sweep():
    from ..apps import make_toy_app
    from ..profiling import ResourceDimension

    app = make_toy_app()
    dims = [
        ResourceDimension("node.cpu", (0.25, 0.5, 0.75, 1.0), lo=0.01, hi=1.0)
    ]
    return app, dims, AppSpec("repro.apps:make_toy_app")


def _viz_sweep():
    from ..apps.visualization import make_viz_app
    from ..profiling import ResourceDimension

    app = make_viz_app()
    dims = [
        ResourceDimension("client.cpu", (0.5, 1.0), lo=0.01, hi=1.0),
        ResourceDimension("client.network", (500e3, 1e6), lo=1.0),
    ]
    app_spec = AppSpec(
        "repro.apps.visualization:make_viz_app",
        workload="repro.experiments.fig6:viz_workload",
        workload_kwargs={"exp": 1, "n_images": 1},
    )
    return app, dims, app_spec


#: Sweepable application name -> builder of (app, dims, app_spec).
SWEEPS = {"toy": _toy_sweep, "viz": _viz_sweep}


def sweep_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Profile an application grid through the parallel sweep "
        "engine and its content-addressed result cache.",
    )
    parser.add_argument("app", choices=sorted(SWEEPS), help="application to sweep")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    parser.add_argument("--seed", type=int, default=0, help="sweep seed")
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(".repro_cache"),
        help="result-cache directory (default: .repro_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="skip the persistent cache"
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-job timeout (s)"
    )
    parser.add_argument(
        "--retries", type=int, default=2, help="retries per crashed/stuck job"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the database as JSON"
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    from ..profiling import ProfilingDriver
    from .engine import SweepEngine
    from .store import ResultStore

    app, dims, app_spec = SWEEPS[args.app]()
    store = None if args.no_cache else ResultStore(args.cache_dir)
    engine = SweepEngine(
        jobs=args.jobs, store=store, timeout=args.timeout, retries=args.retries
    )
    driver = ProfilingDriver(
        app, dims, workload_factory=app_spec.build_workload_factory(),
        seed=args.seed, app_spec=app_spec,
    )
    db = driver.profile(engine=engine)

    print(f"== sweep {args.app}: {len(db)} cells ==")
    for config in db.configurations():
        for record in db.records_for(config):
            metrics = "  ".join(
                f"{k}={v:.4g}" for k, v in sorted(record.metrics.items())
            )
            print(f"  {config.label()} @ {record.point.label()}: {metrics}")
    m = engine.metrics
    print(
        f"engine: {m.counter('exec.jobs.run').value:g} run, "
        f"{m.counter('exec.jobs.cached').value:g} cached, "
        f"{m.counter('exec.jobs.retried').value:g} retried, "
        f"{m.counter('exec.wall.saved').value:.2f}s saved "
        f"({engine.jobs} workers)"
    )
    if args.out is not None:
        db.save(args.out)
        print(f"database written to {args.out}")
    return 0
