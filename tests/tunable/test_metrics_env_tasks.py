"""Tests for QoS metrics, execution environments, tasks, and transitions."""

import pytest

from repro.tunable import (
    Configuration,
    ControlBox,
    ExecutionEnv,
    HostComponent,
    LinkComponent,
    MetricError,
    MetricRange,
    PendingChange,
    QoSMetric,
    QoSRecorder,
    TaskGraph,
    TaskSpec,
    TransitionSpec,
    TunabilityError,
)


# ---------------------------------------------------------------- metrics


def test_metric_direction():
    lower = QoSMetric("transmit_time", better="lower")
    higher = QoSMetric("resolution", better="higher")
    assert lower.is_better(1.0, 2.0)
    assert higher.is_better(4, 3)
    assert lower.best([3.0, 1.0, 2.0]) == 1.0
    assert higher.best([3, 1, 2]) == 3


def test_metric_invalid_direction():
    with pytest.raises(MetricError):
        QoSMetric("x", better="sideways")
    with pytest.raises(MetricError):
        QoSMetric("x").best([])


def test_metric_range():
    rng = MetricRange("t", lo=0.0, hi=10.0)
    assert rng.contains(10.0)
    assert not rng.contains(10.1)
    with pytest.raises(MetricError):
        MetricRange("t", lo=5.0, hi=1.0)


def test_recorder_update_and_series():
    rec = QoSRecorder([QoSMetric("t"), QoSMetric("r", better="higher")])
    rec.update("t", 5.0, time=1.0)
    rec.accumulate("t", 2.0, time=2.0)
    assert rec.get("t") == 7.0
    assert rec.series_for("t") == [(1.0, 5.0), (2.0, 7.0)]
    assert rec.get("r") is None


def test_recorder_running_avg():
    rec = QoSRecorder([QoSMetric("response")])
    rec.running_avg("response", 1.0)
    rec.running_avg("response", 3.0)
    rec.running_avg("response", 5.0)
    assert rec.get("response") == pytest.approx(3.0)


def test_recorder_unknown_metric():
    rec = QoSRecorder([QoSMetric("t")])
    with pytest.raises(MetricError):
        rec.update("oops", 1.0)


def test_recorder_duplicate_metrics_rejected():
    with pytest.raises(MetricError):
        QoSRecorder([QoSMetric("t"), QoSMetric("t")])


def test_recorder_satisfies_ranges():
    rec = QoSRecorder([QoSMetric("t"), QoSMetric("r", better="higher")])
    rec.update("t", 5.0)
    rec.update("r", 4)
    assert rec.satisfies([MetricRange("t", hi=10.0)])
    assert not rec.satisfies([MetricRange("t", hi=1.0)])
    # Missing metric fails the constraint.
    rec2 = QoSRecorder([QoSMetric("t")])
    assert not rec2.satisfies([MetricRange("t", hi=10.0)])


# ------------------------------------------------------------ environment


def test_env_resource_names():
    env = ExecutionEnv(
        [HostComponent("client"), HostComponent("server")],
        [LinkComponent("client", "server")],
    )
    names = env.resource_names()
    assert "client.cpu" in names
    assert "server.network" in names
    assert "client.disk" in names
    assert len(names) == 8  # 2 hosts x {cpu, memory, network, disk}
    env.validate_resource("client.cpu")
    with pytest.raises(ValueError):
        env.validate_resource("client.gpu")


def test_env_validation():
    with pytest.raises(ValueError):
        ExecutionEnv([])
    with pytest.raises(ValueError):
        ExecutionEnv([HostComponent("a"), HostComponent("a")])
    with pytest.raises(ValueError):
        ExecutionEnv([HostComponent("a")], [LinkComponent("a", "ghost")])
    with pytest.raises(ValueError):
        HostComponent("a", resources=("cpu", "gpu"))


def test_env_to_specs():
    env = ExecutionEnv(
        [HostComponent("client", cpu_speed=450.0, mem_pages=1024)],
    )
    spec = env.host_specs()[0]
    assert spec.name == "client"
    assert spec.cpu_speed == 450.0
    assert spec.mem_pages == 1024


# ----------------------------------------------------------------- tasks


def cfg(**kw):
    return Configuration(kw)


def test_task_instance_name():
    task = TaskSpec("module", params=("l", "dR", "c"))
    name = task.instance_name(cfg(l=4, dR=80, c="lzw"))
    assert name == "module[l=4][dR=80][c=lzw]"


def test_task_guard_and_execution_path():
    t1 = TaskSpec("fetch", guard=lambda c: c.mode == "remote")
    t2 = TaskSpec("render")
    graph = TaskGraph([t1, t2], edges=[("fetch", "render")])
    assert [t.name for t in graph.execution_path(cfg(mode="remote"))] == [
        "fetch",
        "render",
    ]
    assert [t.name for t in graph.execution_path(cfg(mode="local"))] == ["render"]


def test_task_graph_rejects_cycles():
    t1, t2 = TaskSpec("a"), TaskSpec("b")
    with pytest.raises(TunabilityError, match="cycle"):
        TaskGraph([t1, t2], edges=[("a", "b"), ("b", "a")])


@pytest.mark.parametrize(
    "names,edges,order",
    [
        (
            ["sink", "left", "src", "right"],
            [("src", "left"), ("src", "right"), ("left", "sink"),
             ("right", "sink")],
            ["src", "left", "right", "sink"],
        ),
        (["c", "b", "a"], [("a", "b"), ("b", "c")], ["a", "b", "c"]),
        (
            ["x", "y", "z", "w", "v"],
            [("w", "x"), ("v", "z")],
            ["y", "w", "v", "x", "z"],
        ),
    ],
)
def test_execution_path_order_is_pinned(names, edges, order):
    """Topological order: sources in insertion order, then their successors.

    These are the orders the graph gave before it moved to the standard
    library's ``graphlib``, for the same node and edge insertion order.
    """
    graph = TaskGraph([TaskSpec(n) for n in names], edges=edges)
    assert [t.name for t in graph.execution_path(cfg(mode="x"))] == order


@pytest.mark.parametrize(
    "edges,cycle",
    [
        ([("a", "b"), ("b", "a")], "['a', 'b', 'a']"),
        ([("a", "a")], "['a', 'a']"),
        ([("a", "b"), ("b", "c"), ("c", "a")], "['a', 'b', 'c', 'a']"),
    ],
)
def test_cycle_error_names_the_cycle(edges, cycle):
    tasks = [TaskSpec(n) for n in "abc"]
    with pytest.raises(TunabilityError) as err:
        TaskGraph(tasks, edges=edges)
    assert str(err.value) == f"task graph has a cycle: {cycle}"


def test_task_graph_unknown_edge():
    with pytest.raises(TunabilityError):
        TaskGraph([TaskSpec("a")], edges=[("a", "zzz")])


def test_task_graph_duplicate_names():
    with pytest.raises(TunabilityError):
        TaskGraph([TaskSpec("a"), TaskSpec("a")])


def test_resources_used_unions_path():
    t1 = TaskSpec("a", resources=("client.cpu",))
    t2 = TaskSpec("b", resources=("client.cpu", "client.network"))
    graph = TaskGraph([t1, t2], edges=[("a", "b")])
    assert graph.resources_used(cfg(x=1)) == ["client.cpu", "client.network"]


def test_task_graph_lookup():
    graph = TaskGraph([TaskSpec("a")])
    assert "a" in graph
    assert graph.task("a").name == "a"
    with pytest.raises(TunabilityError):
        graph.task("b")


# ------------------------------------------------------------ transitions


def drive(gen):
    """Run a transition-apply generator that yields nothing."""
    result = None
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        result = stop.value
    return result


def test_controlbox_apply_pending():
    box = ControlBox(cfg(c="lzw"))
    applied = []
    box.request(PendingChange(cfg(c="bzip2"), on_applied=applied.append))
    assert box.has_pending
    new = drive(box.apply(ctx=None, time=5.0))
    assert new == cfg(c="bzip2")
    assert box.current == cfg(c="bzip2")
    assert applied == [True]
    assert box.history == [(5.0, cfg(c="lzw"), cfg(c="bzip2"))]


def test_controlbox_noop_change_applies_immediately():
    box = ControlBox(cfg(c="lzw"))
    applied = []
    box.request(PendingChange(cfg(c="lzw"), on_applied=applied.append))
    assert not box.has_pending
    assert applied == [True]


def test_controlbox_newer_request_supersedes():
    box = ControlBox(cfg(c="lzw"))
    outcomes = {}
    box.request(PendingChange(cfg(c="bzip2"), on_applied=lambda ok: outcomes.setdefault("old", ok)))
    box.request(PendingChange(cfg(c="none"), on_applied=lambda ok: outcomes.setdefault("new", ok)))
    drive(box.apply(ctx=None))
    assert outcomes == {"old": False, "new": True}
    assert box.current == cfg(c="none")


def test_controlbox_guard_rejects():
    guard = TransitionSpec(guard=lambda old, new: new.c != "forbidden")
    box = ControlBox(cfg(c="lzw"), transitions=(guard,))
    outcome = []
    box.request(PendingChange(cfg(c="forbidden"), on_applied=outcome.append))
    drive(box.apply(ctx=None))
    assert outcome == [False]
    assert box.current == cfg(c="lzw")


def test_controlbox_handler_runs_with_old_and_new():
    seen = {}

    def handler(ctx, old, new):
        seen["old"], seen["new"], seen["ctx"] = old, new, ctx

    box = ControlBox(cfg(c="lzw"), transitions=(TransitionSpec(handler=handler),))
    box.request(PendingChange(cfg(c="bzip2")))
    drive(box.apply(ctx="CTX"))
    assert seen == {"old": cfg(c="lzw"), "new": cfg(c="bzip2"), "ctx": "CTX"}


def test_controlbox_generator_handler_is_driven():
    steps = []

    def handler(ctx, old, new):
        steps.append("start")
        yield "an-event"
        steps.append("end")

    box = ControlBox(cfg(c="a"), transitions=(TransitionSpec(handler=handler),))
    box.request(PendingChange(cfg(c="b")))
    gen = box.apply(ctx=None)
    yielded = next(gen)
    assert yielded == "an-event"
    drive(gen)
    assert steps == ["start", "end"]
    assert box.current == cfg(c="b")


def test_controlbox_apply_without_pending_is_noop():
    box = ControlBox(cfg(c="a"))
    assert drive(box.apply(ctx=None)) is None
