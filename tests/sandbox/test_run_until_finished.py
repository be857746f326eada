"""``Testbed.run_until_finished``: a measurement run ends with its app."""

import pytest

from repro.apps import make_toy_app
from repro.experiments.fig3 import _fig3b_cell
from repro.sandbox import DaemonSpec, LimiterMode, ResourceLimits, Testbed
from repro.tunable import Configuration


def _daemon_loaded_toy(share, seed, **toy):
    """The testbed and runtime of one loaded Fig 3b cell."""
    app = make_toy_app(**toy)
    tb = Testbed(
        host_specs=app.env.host_specs(),
        mode=LimiterMode.QUANTUM,
        seed=seed,
        daemons=[DaemonSpec("node", mean_interval=0.2, cpu_fraction=0.02)],
    )
    rt = app.instantiate(
        tb,
        Configuration({"scale": 1.0}),
        limits={"node": ResourceLimits(cpu_share=share)},
    )
    return tb, rt


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("share", [0.1, 0.5, 1.0])
def test_fig3b_cell_matches_the_horizon_run(share, seed):
    tb, rt = _daemon_loaded_toy(share, seed)
    tb.run(until=3600)
    tb.shutdown()
    assert _fig3b_cell({"share": share}, seed) == rt.qos.get("elapsed")


def test_the_testbed_stops_with_its_app():
    tb, rt = _daemon_loaded_toy(0.5, seed=0)
    tb.run_until_finished([rt], until=3600)
    daemon = tb.daemons[0]
    assert not daemon.process.is_alive
    assert tb.sim.is_idle()
    assert tb.sim.now == 3600
    assert rt.qos.get("elapsed") == pytest.approx(20.0, rel=0.05)

    horizon, _rt = _daemon_loaded_toy(0.5, seed=0)
    horizon.run(until=3600)
    horizon.shutdown()
    assert daemon.total_work_injected < 0.05 * horizon.daemons[0].total_work_injected


def test_the_shutdown_waits_for_the_last_runtime():
    app = make_toy_app()
    tb = Testbed(host_specs=app.env.host_specs())
    short, long = (
        app.instantiate(
            tb,
            Configuration({"scale": scale}),
            limits={"node": ResourceLimits(cpu_share=0.4)},
        )
        for scale in (1.0, 2.0)
    )
    shutdowns = []
    real_shutdown = tb.shutdown

    def shutdown():
        shutdowns.append(tb.sim.now)
        real_shutdown()

    tb.shutdown = shutdown
    tb.run_until_finished([short, long], until=3600)
    # Two tenants at 0.4 each are uncontended: 10 s / 0.4 and 20 s / 0.4.
    assert short.qos.get("elapsed") == pytest.approx(25.0)
    assert long.qos.get("elapsed") == pytest.approx(50.0)
    assert shutdowns == [pytest.approx(50.0), 3600]


def test_an_unfinished_app_is_named():
    tb, rt = _daemon_loaded_toy(0.5, seed=0, total_work=1e9)
    with pytest.raises(RuntimeError, match=r"did not finish within 60s: toy @ scale=1.0"):
        tb.run_until_finished([rt], until=60)
    assert rt.qos.get("elapsed") is None


def test_shutdown_closes_every_colocated_sandbox():
    """Co-located copies of one app share a sandbox name; all are closed."""
    app = make_toy_app()
    tb = Testbed(host_specs=app.env.host_specs())
    runtimes = [
        app.instantiate(
            tb,
            Configuration({"scale": 1.0}),
            limits={"node": ResourceLimits(cpu_share=0.3)},
        )
        for _ in range(3)
    ]
    tb.run_until_finished(runtimes, until=3600)
    assert len({rt.sandboxes["node"].name for rt in runtimes}) == 1
    assert tb.sandboxes == [rt.sandboxes["node"] for rt in runtimes]
    assert [sb._closed for sb in tb.sandboxes] == [True, True, True]
