"""End-to-end adaptation: monitor -> scheduler -> steering on a live app.

A miniature Experiment 1: the client downloads images while the testbed
drops its bandwidth limit mid-run; the controller must detect the drop,
consult the database, and switch the compression configuration at a round
boundary (notifying the server through the transition handler).
"""


from repro.apps.visualization import VizCosts, VizWorkload, make_viz_app
from repro.profiling import PerformanceDatabase, Record, ResourcePoint
from repro.runtime import (
    AdaptationController,
    Objective,
    ResourceScheduler,
    SteeringAgent,
    ControlMessage,
    UserPreference,
)
from repro.sandbox import ResourceLimits, Testbed
from repro.tunable import Configuration, Preprocessor


def cfg(c):
    return Configuration({"dR": 320, "c": c, "l": 4})


def small_crossover_db():
    """Hand-built DB: lzw best at >=200 KB/s, bzip2 best below."""
    db = PerformanceDatabase("active-visualization", ["client.cpu", "client.network"])
    samples = {
        ("lzw", 50e3): 55.0,
        ("lzw", 200e3): 14.0,
        ("lzw", 500e3): 6.5,
        ("bzip2", 50e3): 36.0,
        ("bzip2", 200e3): 12.0,
        ("bzip2", 500e3): 10.0,
    }
    for (codec, bw), t in samples.items():
        db.add(
            Record(
                cfg(codec),
                ResourcePoint({"client.cpu": 1.0, "client.network": bw}),
                {"transmit_time": t, "response_time": t / 4, "resolution": 4.0},
            )
        )
    return db


def run_e2e(adaptive=True, n_images=8, drop_at=14.0):
    app = make_viz_app()
    db = small_crossover_db()
    scheduler = ResourceScheduler(
        db, UserPreference.single(Objective("transmit_time"))
    )
    controller = AdaptationController(
        scheduler,
        monitoring_plan=Preprocessor(app).monitoring_plan(),
        monitor_kwargs={"window": 2.0, "cooldown": 4.0},
    )
    initial_point = ResourcePoint({"client.cpu": 1.0, "client.network": 500e3})
    decision = controller.select_initial(initial_point)

    testbed = Testbed(host_specs=app.env.host_specs(), link_specs=app.env.link_specs())
    workload = VizWorkload(n_images=n_images, costs=VizCosts(display_cost=3e-5))
    rt = app.instantiate(
        testbed,
        decision.config,
        limits={"client": ResourceLimits(net_bw=500e3)},
        workload=workload,
    )
    if adaptive:
        controller.attach(rt)

    def vary():
        yield testbed.sim.timeout(drop_at)
        rt.sandboxes["client"].set_limits(ResourceLimits(net_bw=50e3))

    testbed.sim.process(vary())
    testbed.run(until=5000)
    testbed.shutdown()
    assert rt.finished.triggered
    return controller, rt, workload


def test_initial_configuration_uses_database():
    controller, rt, _ = run_e2e(adaptive=False)
    # At 500 KB/s the database says lzw (6.5 < 10.0).
    assert controller.current_decision.config == cfg("lzw")


def test_adaptation_switches_to_bzip2_after_bandwidth_drop():
    controller, rt, workload = run_e2e()
    assert rt.controls.current == cfg("bzip2")
    switches = rt.controls.history
    assert len(switches) == 1
    t_switch, old, new = switches[0]
    assert (old.c, new.c) == ("lzw", "bzip2")
    assert t_switch > 14.0  # after the drop
    kinds = [e.kind for e in controller.events]
    assert kinds[:3] == ["initial", "trigger", "decision"]
    assert "applied" in kinds


def test_adaptive_beats_static_initial_choice():
    _, rt_adaptive, wl_adaptive = run_e2e()
    # Static run with the same initial (lzw) configuration throughout.
    app = make_viz_app()
    testbed = Testbed(host_specs=app.env.host_specs(), link_specs=app.env.link_specs())
    workload = VizWorkload(n_images=8, costs=VizCosts(display_cost=3e-5))
    rt_static = app.instantiate(
        testbed,
        cfg("lzw"),
        limits={"client": ResourceLimits(net_bw=500e3)},
        workload=workload,
    )

    def vary():
        yield testbed.sim.timeout(14.0)
        rt_static.sandboxes["client"].set_limits(ResourceLimits(net_bw=50e3))

    testbed.sim.process(vary())
    testbed.run(until=5000)
    assert rt_static.finished.triggered
    total_adaptive = wl_adaptive.image_times[-1][0]
    total_static = workload.image_times[-1][0]
    assert total_adaptive < total_static * 0.85


def test_server_was_notified_of_codec_change():
    """After the switch, replies really are bzip2-compressed (smaller)."""
    _, rt, workload = run_e2e()
    durations = [d for _, d in workload.image_times]
    # Post-switch images are faster than the static-lzw low-bandwidth rate
    # of ~55 s -> the server must be producing bzip2 payloads.
    assert durations[-1] < 45.0


def test_steering_agent_records_messages_and_acks():
    app = make_viz_app()
    db = small_crossover_db()
    scheduler = ResourceScheduler(db, UserPreference.single(Objective("transmit_time")))
    testbed = Testbed(host_specs=app.env.host_specs(), link_specs=app.env.link_specs())
    workload = VizWorkload(n_images=2, costs=VizCosts(display_cost=3e-5))
    rt = app.instantiate(
        testbed, cfg("lzw"),
        limits={"client": ResourceLimits(net_bw=500e3)}, workload=workload,
    )
    agent = SteeringAgent(rt, control_latency=0.01)
    decision = scheduler.select(
        ResourcePoint({"client.cpu": 1.0, "client.network": 50e3})
    )
    outcomes = []
    agent.deliver(ControlMessage(decision=decision, on_done=outcomes.append))
    testbed.run(until=5000)
    assert outcomes == ["ack"]
    assert len(agent.received) == 1
    assert len(agent.acks) == 1
    assert agent.acks[0][1] == cfg("bzip2")
    assert agent.switches[0][2] == cfg("bzip2")
