"""The profiling driver.

"A driver program executes each configuration repeatedly in a virtual
execution environment for different levels of allocated resources."  The
:class:`ProfilingDriver` does exactly that: for every (configuration,
resource point) pair of a sampling plan it builds a *fresh* testbed,
instantiates the application inside sandboxes configured for that point,
runs it to completion, and stores the measured QoS metrics in a
:class:`PerformanceDatabase`.  An adaptive mode closes the loop with
sensitivity analysis.

When constructed with an :class:`repro.exec.AppSpec` (a pure description
of how to rebuild the app in another process), :meth:`profile` and
:meth:`profile_adaptive` accept a :class:`repro.exec.SweepEngine` and
route every measurement through it — sharding cells across worker
processes and serving unchanged cells from the persistent result cache —
while merging records in the exact order of the serial loop, so the
resulting database is byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from ..obs import Instruments
from ..sandbox import LimiterMode, Testbed
from ..sim import derive_seed
from ..tunable import Configuration, TunableApp
from .database import PerformanceDatabase, Record
from .resource_space import ResourceDimension, ResourcePoint, limits_for_point
from .sampling import grid_plan
from .sensitivity import propose_refinements

__all__ = ["ProfilingDriver"]


class ProfilingDriver:
    """Populates a performance database by controlled execution."""

    def __init__(
        self,
        app: TunableApp,
        dims: Sequence[ResourceDimension],
        workload_factory: Optional[Callable[[Configuration, ResourcePoint, int], object]] = None,
        mode: str = LimiterMode.IDEAL,
        seed: int = 0,
        max_run_time: float = 3600.0,
        app_spec=None,
        instruments: Instruments = Instruments(),
        sandbox_kwargs: Optional[Mapping[str, Any]] = None,
    ):
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate resource dimensions: {names!r}")
        env_resources = set(app.env.resource_names())
        for d in dims:
            if d.name not in env_resources:
                raise ValueError(
                    f"dimension {d.name!r} is not a resource of app {app.name!r}"
                )
        self.app = app
        self.dims = list(dims)
        self.workload_factory = workload_factory
        self.mode = mode
        self.seed = seed
        self.max_run_time = max_run_time
        #: Passive instruments every :meth:`measure` attaches to that
        #: run's fresh testbed, so usage and kernel cost buckets
        #: accumulate across the whole sweep (accountant entries rebase
        #: onto each new testbed's shares).  A recorder also wraps each
        #: run in a ``profile.measure`` span; virtual time restarts at
        #: zero per testbed, so successive run spans overlap on the time
        #: axis — the ``run`` attr disambiguates them.  Not consulted on
        #: the engine path (workers carry no trace context).
        self.instruments = instruments
        #: Optional :class:`repro.exec.AppSpec` enabling the engine path
        #: of :meth:`profile`/:meth:`profile_adaptive` (workers must be
        #: able to rebuild the app from pure data).
        self.app_spec = app_spec
        #: Extra :class:`~repro.sandbox.Sandbox` arguments for every
        #: measured run (``{"fault_cost": ...}`` for disk-backed paging);
        #: like the instruments, not consulted on the engine path.
        self.sandbox_kwargs = sandbox_kwargs
        self.runs = 0

    def measure(self, config: Configuration, point: ResourcePoint) -> Record:
        """One controlled execution; returns the measurement record."""
        run_seed = derive_seed(self.seed, f"{config.label()}|{point.label()}")
        testbed = Testbed(
            host_specs=self.app.env.host_specs(),
            link_specs=self.app.env.link_specs(),
            mode=self.mode,
            seed=run_seed,
        )
        instruments = self.instruments.attach(testbed, config)
        obs = instruments.recorder
        if obs is not None:
            span = obs.begin(
                "profile.measure", cat="profiling",
                config=config.label(), point=point.label(),
                seed=run_seed, run=self.runs,
            )
            obs.push_parent(span)
            obs.metrics.counter("profile.runs").inc()
        try:
            workload = None
            if self.workload_factory is not None:
                workload = self.workload_factory(config, point, run_seed)
            rt = self.app.instantiate(
                testbed,
                config,
                limits=limits_for_point(point),
                workload=workload,
                seed=run_seed,
                sandbox_kwargs=self.sandbox_kwargs,
            )
            testbed.run_until_finished([rt], until=self.max_run_time)
        finally:
            if obs is not None:
                obs.pop_parent()
                obs.end(span, virtual_duration=testbed.sim.now)
            instruments.detach()
        self.runs += 1
        metrics = rt.qos.snapshot()
        if obs is not None:
            obs.metrics.histogram(
                "profile.virtual_duration",
                edges=(1.0, 10.0, 60.0, 300.0, 1800.0),
            ).observe(testbed.sim.now)
        return Record(
            config=config,
            point=point,
            metrics=metrics,
            meta={"seed": run_seed, "virtual_duration": testbed.sim.now},
        )

    def profile(
        self,
        configs: Optional[Sequence[Configuration]] = None,
        plan: Optional[Sequence[ResourcePoint]] = None,
        db: Optional[PerformanceDatabase] = None,
        engine=None,
    ) -> PerformanceDatabase:
        """Measure every configuration at every plan point.

        With ``engine`` (a :class:`repro.exec.SweepEngine`), cells run
        through the sweep engine — parallel and/or cache-served — and
        merge into the database in serial-loop order.  The instruments
        are not consulted on that path (workers carry no trace context).
        """
        if configs is None:
            configs = self.app.configurations()
        if plan is None:
            plan = grid_plan(self.dims)
        if db is None:
            db = PerformanceDatabase(
                self.app.name, [d.name for d in self.dims]
            )
        if engine is not None:
            cells = [(config, point) for config in configs for point in plan]
            self._measure_cells(cells, db, engine, prefix="g")
            return db
        for config in configs:
            for point in plan:
                db.add(self.measure(config, point))
        return db

    def _measure_cells(self, cells, db, engine, prefix: str) -> None:
        """Run (config, point) cells through the engine; add in order."""
        from ..exec import JobSpec
        from ..exec.profile_jobs import app_spec_payload

        specs = [
            JobSpec(
                kind="repro.exec.profile_jobs:measure_cell",
                payload=app_spec_payload(
                    self.app_spec, config, point, self.mode, self.max_run_time
                ),
                seed=self.seed,
                key=f"{prefix}{i:06d}",
            )
            for i, (config, point) in enumerate(cells)
        ]
        report = engine.run(specs)
        for spec in specs:
            db.add(Record.from_dict(report.value(spec.key)))
        self.runs += len(cells)

    def profile_adaptive(
        self,
        configs: Optional[Sequence[Configuration]] = None,
        initial_plan: Optional[Sequence[ResourcePoint]] = None,
        rounds: int = 2,
        per_round: int = 8,
        min_score: float = 0.02,
        engine=None,
    ) -> PerformanceDatabase:
        """Grid profiling followed by sensitivity-driven refinement rounds.

        The refinement proposals of each round depend only on the
        database contents, which the engine path reproduces exactly — so
        each round's batch can itself run through the engine.
        """
        if configs is None:
            configs = self.app.configurations()
        db = self.profile(configs=configs, plan=initial_plan, engine=engine)
        metrics = [m.name for m in self.app.metrics]
        for round_idx in range(rounds):
            proposals = propose_refinements(
                db, metrics, top_k=per_round, min_score=min_score, configs=configs
            )
            if not proposals:
                break
            if engine is not None:
                self._measure_cells(
                    [(prop.config, prop.point) for prop in proposals],
                    db, engine, prefix=f"r{round_idx:02d}-",
                )
                continue
            for prop in proposals:
                db.add(self.measure(prop.config, prop.point))
        return db
