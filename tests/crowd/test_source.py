"""End-to-end tests for the aggregate CrowdSource/CrowdAgent pair.

A minimal two-host testbed (no viz app, no controller): the source on
``client`` feeds the agent on ``server`` over a real link, so these pin
the aggregate protocol's bookkeeping — conservation of every request,
closed-loop population accounting, byte-identical repeats, and guard
shedding by priority — at populations small enough for tier-1.
"""

import json

import pytest

from repro.crowd import (
    ClosedLoop,
    ConstantRate,
    CrowdAgent,
    CrowdClass,
    CrowdSource,
    ServiceClass,
)
from repro.crowd.source import _COLUMNS
from repro.recovery import OverloadGuard, OverloadPolicy
from repro.sandbox import HostSpec, LinkSpec, Testbed


def _flat_price(_config):
    return 1e-4, 200.0


def run_crowd_pair(
    classes,
    seed=0,
    horizon=20.0,
    guard=None,
    service=None,
    link_bw=12.5e6,
    until=60.0,
):
    tb = Testbed(
        host_specs=[HostSpec("client", 450.0), HostSpec("server", 450.0)],
        link_specs=[LinkSpec("client", "server", link_bw, 0.002)],
        seed=seed,
    )
    source = CrowdSource(
        tb.sim, tb.hosts["client"], "server", "crowd.req", classes,
        seed=seed, tick=0.25, horizon=horizon, drain=10.0,
    )
    if service is None:
        service = [
            ServiceClass(c.name, price=_flat_price, link_weight=8.0)
            for c in classes
        ]
    agent = CrowdAgent(
        tb.sim, tb.hosts["server"], "crowd.req", service,
        config_fn=lambda: {}, guard=guard, source=source,
    )
    tb.run(until=until)
    return source, agent, tb


def _mixed_classes():
    return [
        CrowdClass("open", users=500, arrivals=ConstantRate(per_user=0.05)),
        CrowdClass("closed", users=200, arrivals=ClosedLoop(think=2.0),
                   priority=1),
    ]


def test_every_issued_request_is_accounted_for():
    source, _agent, _tb = run_crowd_pair(_mixed_classes())
    assert source.closed
    for name, row in source.stats().items():
        assert row["issued"] > 0, name
        assert row["served"] + row["shed"] + row["lost"] == row["issued"]
        assert row["satisfied"] + row["violated"] == row["issued"]
        assert row["inflight"] == 0
    totals = source.totals()
    assert totals["served"] + totals["shed"] + totals["lost"] == totals["issued"]


def test_closed_loop_population_is_conserved():
    classes = [CrowdClass("closed", users=300, arrivals=ClosedLoop(think=1.5))]
    source, _agent, _tb = run_crowd_pair(classes)
    row = source.stats()["closed"]
    # Every user ends up back in the thinking pool once the run drains.
    assert row["thinking"] == 300
    assert row["inflight"] == 0
    assert row["issued"] > 300  # each user cycled more than once


def test_finished_event_carries_totals():
    source, _agent, _tb = run_crowd_pair(_mixed_classes())
    assert source.finished.triggered
    assert source.finished.value == source.totals()


def test_same_seed_runs_are_identical_and_seeds_differ():
    first, _, _ = run_crowd_pair(_mixed_classes(), seed=3)
    second, _, _ = run_crowd_pair(_mixed_classes(), seed=3)
    other, _, _ = run_crowd_pair(_mixed_classes(), seed=4)
    assert first.stats() == second.stats()
    assert first.stats() != other.stats()


def test_fast_service_satisfies_qos():
    """With an idle server and a fat link, every request meets its deadline."""
    classes = [CrowdClass("open", users=100,
                          arrivals=ConstantRate(per_user=0.05))]
    source, _agent, _tb = run_crowd_pair(classes)
    row = source.stats()["open"]
    assert row["lost"] == 0
    assert row["violated"] == 0
    assert row["satisfied"] == row["issued"]
    assert 0.0 < row["resp_max"] < 1.0


def test_guard_sheds_low_priority_only():
    """Offered load far beyond service capacity trips depth shedding, and
    the keep_priority class rides through untouched."""
    classes = [
        CrowdClass("open", users=4000, arrivals=ConstantRate(per_user=0.5)),
        CrowdClass("vip", users=50, arrivals=ClosedLoop(think=1.0),
                   priority=1),
    ]
    service = [
        ServiceClass("open", price=lambda _c: (5e-3, 200.0), link_weight=8.0),
        ServiceClass("vip", price=lambda _c: (5e-3, 200.0), link_weight=4.0),
    ]
    guard = OverloadGuard(
        OverloadPolicy(queue_capacity=100_000, shed_depth=500,
                       keep_priority=1)
    )
    source, _agent, _tb = run_crowd_pair(
        classes, guard=guard, service=service, horizon=15.0
    )
    stats = source.stats()
    assert stats["open"]["shed"] > 0
    assert stats["vip"]["shed"] == 0
    assert guard.shed_low_priority > 0
    assert guard.shed_hard == 0


def test_observer_reads_do_not_perturb_the_run():
    """stats()/totals() mid-run are passive projections."""
    def run(probe: bool):
        classes = _mixed_classes()
        tb = Testbed(
            host_specs=[HostSpec("client", 450.0), HostSpec("server", 450.0)],
            link_specs=[LinkSpec("client", "server", 12.5e6, 0.002)],
            seed=0,
        )
        source = CrowdSource(
            tb.sim, tb.hosts["client"], "server", "crowd.req", classes,
            seed=0, tick=0.25, horizon=20.0, drain=10.0,
        )
        agent = CrowdAgent(
            tb.sim, tb.hosts["server"], "crowd.req",
            [ServiceClass(c.name, price=_flat_price, link_weight=8.0)
             for c in classes],
            config_fn=lambda: {}, source=source,
        )

        def prober():
            while not source.closed:
                source.stats()
                source.totals()
                for flow in agent._flows:
                    flow.drained()
                yield tb.sim.timeout(0.1)

        if probe:
            tb.sim.process(prober())
        tb.run(until=60.0)
        return source.stats()

    assert run(probe=False) == run(probe=True)


def _indexed_stats(source):
    """stats() rebuilt by indexing the numpy columns element by element."""
    out = {}
    for i, c in enumerate(source.classes):
        row = {name: int(source._cols[i, j]) for j, name in enumerate(_COLUMNS)}
        served = row["served"]
        row["resp_mean"] = float(source._resp_sum[i]) / served if served else 0.0
        row["resp_max"] = float(source._resp_max[i])
        out[c.name] = row
    return out


def test_stats_are_plain_python_numbers_equal_to_indexed_reads():
    """stats() values are exact ints/floats, so crowd payload JSON is fixed."""
    source, _agent, tb = run_crowd_pair(_mixed_classes(), until=5.0)
    checked = []

    def prober():
        while not source.closed:
            checked.append(source.stats())
            assert checked[-1] == _indexed_stats(source)
            yield tb.sim.timeout(0.5)

    tb.sim.process(prober())
    tb.run(until=60.0)
    checked.append(source.stats())
    assert checked[-1] == _indexed_stats(source)
    assert any(row["inflight"] for stats in checked for row in stats.values())
    for stats in checked:
        for row in stats.values():
            assert list(row) == list(_COLUMNS) + ["resp_mean", "resp_max"]
            for name in _COLUMNS:
                assert type(row[name]) is int
            assert type(row["resp_mean"]) is float
            assert type(row["resp_max"]) is float
    assert json.dumps(checked[-1]) == json.dumps(_indexed_stats(source))
    assert checked[-1]["open"]["resp_mean"] > 0.0


def test_duplicate_class_names_rejected():
    tb = Testbed(host_specs=[HostSpec("client", 450.0)])
    classes = [
        CrowdClass("dup", users=1, arrivals=ConstantRate(per_user=0.1)),
        CrowdClass("dup", users=1, arrivals=ConstantRate(per_user=0.1)),
    ]
    with pytest.raises(ValueError, match="duplicate crowd class names"):
        CrowdSource(tb.sim, tb.hosts["client"], "server", "crowd.req",
                    classes, seed=0)
    with pytest.raises(ValueError, match="at least one class"):
        CrowdSource(tb.sim, tb.hosts["client"], "server", "crowd.req",
                    [], seed=0)
