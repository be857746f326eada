"""Tests for the profiling driver (controlled executions -> database)."""

import pytest

from repro.profiling import ProfilingDriver, ResourceDimension, ResourcePoint
from repro.tunable import (
    ConfigSpace,
    Configuration,
    ControlParameter,
    ExecutionEnv,
    HostComponent,
    QoSMetric,
    TaskGraph,
    TaskSpec,
    TunableApp,
)


def make_app():
    """App whose elapsed time is work/(speed*share) — analytically known."""
    space = ConfigSpace([ControlParameter("work", (50, 100))])
    env = ExecutionEnv([HostComponent("node", cpu_speed=100.0)])

    def launcher(rt):
        def main():
            sb = rt.sandbox("node")
            t0 = rt.sim.now
            yield sb.compute(float(rt.config.work))
            rt.qos.update("elapsed", rt.sim.now - t0, time=rt.sim.now)

        return rt.sim.process(main())

    return TunableApp(
        name="measured",
        space=space,
        env=env,
        metrics=[QoSMetric("elapsed")],
        tasks=TaskGraph([TaskSpec("main", params=("work",), resources=("node.cpu",))]),
        launcher=launcher,
    )


def cpu_dim(*levels):
    return ResourceDimension("node.cpu", levels, lo=0.01, hi=1.0)


def test_measure_single_point():
    driver = ProfilingDriver(make_app(), [cpu_dim(0.5)])
    rec = driver.measure(
        Configuration({"work": 100}), ResourcePoint({"node.cpu": 0.5})
    )
    assert rec.metrics["elapsed"] == pytest.approx(2.0)
    assert rec.meta["virtual_duration"] >= 2.0


def test_profile_full_grid():
    driver = ProfilingDriver(make_app(), [cpu_dim(0.25, 0.5, 1.0)])
    db = driver.profile()
    assert len(db) == 6  # 2 configs x 3 points
    assert driver.runs == 6
    # Check the analytically expected values.
    assert db.predict(
        Configuration({"work": 50}), ResourcePoint({"node.cpu": 0.25}), "elapsed"
    ) == pytest.approx(2.0)
    assert db.predict(
        Configuration({"work": 100}), ResourcePoint({"node.cpu": 1.0}), "elapsed"
    ) == pytest.approx(1.0)


def test_profile_interpolation_between_grid_points():
    driver = ProfilingDriver(make_app(), [cpu_dim(0.25, 0.5, 1.0)])
    db = driver.profile(configs=[Configuration({"work": 100})])
    predicted = db.predict(
        Configuration({"work": 100}), ResourcePoint({"node.cpu": 0.75}), "elapsed"
    )
    # True value 100/75 = 1.333; linear interp of (0.5 -> 2.0, 1.0 -> 1.0)
    # gives 1.5 — close but not exact (convexity).
    assert predicted == pytest.approx(1.5)


def test_profile_adaptive_reduces_interpolation_error():
    true = lambda cpu: 100.0 / (100.0 * cpu)
    config = Configuration({"work": 100})
    query = ResourcePoint({"node.cpu": 0.3})

    coarse_driver = ProfilingDriver(make_app(), [cpu_dim(0.2, 0.6, 1.0)])
    coarse = coarse_driver.profile(configs=[config])
    coarse_err = abs(coarse.predict(config, query, "elapsed") - true(0.3))

    adaptive_driver = ProfilingDriver(make_app(), [cpu_dim(0.2, 0.6, 1.0)])
    refined = adaptive_driver.profile_adaptive(
        configs=[config], rounds=2, per_round=4
    )
    refined_err = abs(refined.predict(config, query, "elapsed") - true(0.3))

    assert len(refined) > len(coarse)
    assert refined_err < coarse_err


def test_driver_validates_dims():
    with pytest.raises(ValueError):
        ProfilingDriver(make_app(), [ResourceDimension("ghost.cpu", (0.5,))])
    with pytest.raises(ValueError):
        ProfilingDriver(make_app(), [cpu_dim(0.5), cpu_dim(0.7)])


def test_driver_deterministic_given_seed():
    d1 = ProfilingDriver(make_app(), [cpu_dim(0.5, 1.0)], seed=3)
    d2 = ProfilingDriver(make_app(), [cpu_dim(0.5, 1.0)], seed=3)
    db1, db2 = d1.profile(), d2.profile()
    assert db1.to_dict() == db2.to_dict()


def test_workload_factory_receives_context():
    seen = []

    def factory(config, point, seed):
        seen.append((dict(config), dict(point), seed))
        return "WL"

    driver = ProfilingDriver(make_app(), [cpu_dim(1.0)], workload_factory=factory)
    driver.profile(configs=[Configuration({"work": 50})])
    assert seen == [({"work": 50}, {"node.cpu": 1.0}, seen[0][2])]


def test_unfinished_run_raises_naming_app_and_config():
    driver = ProfilingDriver(make_app(), [cpu_dim(0.5)], max_run_time=1.0)
    config = Configuration({"work": 100})
    with pytest.raises(RuntimeError, match="did not finish within 1.0s") as info:
        driver.measure(config, ResourcePoint({"node.cpu": 0.5}))
    assert f"measured @ {config.label()}" in str(info.value)
    assert driver.runs == 0
