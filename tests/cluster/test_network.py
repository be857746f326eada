"""Tests for links, network message passing, hosts, and background load."""

import numpy as np
import pytest

from repro.cluster import (
    BackgroundLoad,
    Host,
    Link,
    Network,
    NetworkError,
    PeriodicDaemon,
    PII_450,
    PII_333,
    PPRO_200,
)
from repro.sim import Simulator


def make_pair(sim, bandwidth=1000.0, latency=0.0):
    net = Network(sim)
    a = Host(sim, "a", cpu_speed=100.0)
    b = Host(sim, "b", cpu_speed=100.0)
    net.register(a)
    net.register(b)
    net.connect("a", "b", bandwidth=bandwidth, latency=latency)
    return net, a, b


# ------------------------------------------------------------------ Link


def test_link_transfer_time():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    _, delivered = link.transfer(500.0)
    sim.run()
    assert delivered.value == pytest.approx(0.5)


def test_link_latency_added_after_drain():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, latency=0.2)
    _, delivered = link.transfer(500.0)
    sim.run()
    assert delivered.value == pytest.approx(0.7)


def test_link_concurrent_transfers_share_bandwidth():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    _, d1 = link.transfer(1000.0)
    _, d2 = link.transfer(1000.0)
    sim.run()
    assert d1.value == pytest.approx(2.0)
    assert d2.value == pytest.approx(2.0)


def test_link_cap_limits_single_flow():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    _, delivered = link.transfer(500.0, cap=100.0)
    sim.run()
    assert delivered.value == pytest.approx(5.0)


def test_link_bandwidth_change_mid_transfer():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0)
    _, delivered = link.transfer(1000.0)

    def controller():
        yield sim.timeout(0.5)  # 500 bytes sent
        link.set_bandwidth(100.0)

    sim.process(controller())
    sim.run()
    # Remaining 500 bytes at 100 B/s -> 0.5 + 5.0.
    assert delivered.value == pytest.approx(5.5)


def test_link_zero_size_transfer():
    sim = Simulator()
    link = Link(sim, bandwidth=1000.0, latency=0.1)
    _, delivered = link.transfer(0.0)
    sim.run()
    assert delivered.value == pytest.approx(0.1)


def test_link_rejects_negative():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, bandwidth=10.0, latency=-1.0)
    link = Link(sim, bandwidth=10.0)
    with pytest.raises(ValueError):
        link.transfer(-5.0)


# --------------------------------------------------------------- Network


def test_message_delivery_to_mailbox():
    sim = Simulator()
    net, a, b = make_pair(sim, bandwidth=1000.0)

    def sender():
        yield a.send("b", "req", {"x": 1}, size=500.0)

    def receiver():
        msg = yield b.mailbox("req").get()
        return (sim.now, msg.payload, msg.src)

    sim.process(sender())
    proc = sim.process(receiver())
    sim.run()
    assert proc.value == (0.5, {"x": 1}, "a")


def test_messages_ordered_on_same_port():
    sim = Simulator()
    net, a, b = make_pair(sim)
    got = []

    def sender():
        yield a.send("b", "p", 1, size=100.0)
        yield a.send("b", "p", 2, size=100.0)

    def receiver():
        for _ in range(2):
            msg = yield b.mailbox("p").get()
            got.append(msg.payload)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert got == [1, 2]


def test_ports_are_independent():
    sim = Simulator()
    net, a, b = make_pair(sim)

    def sender():
        yield a.send("b", "data", "D", size=10.0)
        yield a.send("b", "ctrl", "C", size=10.0)

    def receiver():
        ctrl = yield b.mailbox("ctrl").get()
        data = yield b.mailbox("data").get()
        return (ctrl.payload, data.payload)

    sim.process(sender())
    proc = sim.process(receiver())
    sim.run()
    assert proc.value == ("C", "D")


def test_duplex_directions_independent():
    sim = Simulator()
    net, a, b = make_pair(sim, bandwidth=1000.0)

    def ping():
        yield a.send("b", "p", "ping", size=1000.0)

    def pong():
        yield b.send("a", "p", "pong", size=1000.0)

    sim.process(ping())
    sim.process(pong())
    sim.run()
    # Both complete at t=1.0: no shared-bandwidth interaction between
    # directions.
    assert sim.now == pytest.approx(1.0)


def test_unknown_route_raises():
    sim = Simulator()
    net = Network(sim)
    host = Host(sim, "solo", cpu_speed=1.0)
    net.register(host)
    with pytest.raises(NetworkError):
        net.link("solo", "nowhere")
    with pytest.raises(NetworkError):
        net.connect("solo", "nowhere", bandwidth=1.0)


def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.register(Host(sim, "x", cpu_speed=1.0))
    with pytest.raises(NetworkError):
        net.register(Host(sim, "x", cpu_speed=1.0))


def test_send_without_network_raises():
    sim = Simulator()
    host = Host(sim, "lonely", cpu_speed=1.0)
    with pytest.raises(RuntimeError):
        host.send("b", "p", None, size=1.0)


# ------------------------------------------------------------- Machines


def test_machine_ratios():
    assert PII_333.clock_ratio(PII_450) == pytest.approx(333.0 / 450.0)
    assert PPRO_200.specint_ratio(PII_450) == pytest.approx(8.2 / 17.2)
    assert PII_450.mem_pages == 128 * 1024 * 1024 // 4096


# ------------------------------------------------------ Background load


def test_background_load_steals_cpu():
    sim = Simulator()
    host = Host(sim, "h", cpu_speed=100.0)
    rng = np.random.default_rng(42)
    daemon = BackgroundLoad(host, rng, mean_interval=0.05, burst_work=1.0)
    app_job = host.cpu.execute(100.0)
    sim.run(until=10.0)
    daemon.stop()
    # The app alone would finish at t=1.0; daemons delay it measurably.
    assert app_job.finished
    assert app_job.done.value > 1.0
    assert daemon.total_work_injected > 0


def test_periodic_daemon_injects_deterministic_work():
    sim = Simulator()
    host = Host(sim, "h", cpu_speed=100.0)
    daemon = PeriodicDaemon(host, period=0.1, work_per_tick=0.5)
    sim.run(until=1.05)
    daemon.stop()
    assert daemon.total_work_injected == pytest.approx(5.0)


def test_periodic_daemon_validates_period():
    sim = Simulator()
    host = Host(sim, "h", cpu_speed=100.0)
    with pytest.raises(ValueError):
        PeriodicDaemon(host, period=0.0, work_per_tick=1.0)
