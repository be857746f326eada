"""Sandbox sends and receives are events the sandbox completes itself.

The reference is the design they replace, one helper process per
message, kept here as :class:`HelperSandbox`: programs with many
same-instant ties must resume in the same order, at the same times, with
the same values and the same bookkeeping under both.
"""

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

import repro.sim.core as core
from repro.cluster import Host, Network
from repro.recovery import Supervisor
from repro.sandbox import LimiterMode, ResourceLimits, Sandbox
from repro.sandbox.sandbox import RecvOp, SendOp
from repro.sim import Interrupt, Simulator


class HelperSandbox(Sandbox):
    """``send``/``recv`` as one helper process per message."""

    def send(self, dst, port, payload, size):
        return self.sim.process(
            self._send(dst, port, payload, size), name=f"{self.name}.send"
        )

    def _send(self, dst, port, payload, size):
        start = self.sim.now
        cap = None
        if self.limits.net_bw is not None:
            if self._bucket is not None:
                delay = self._bucket.reserve(size, self.sim.now)
                if delay > 0:
                    yield self.sim.timeout(delay)
            else:
                cap = self.limits.net_bw
        msg = yield self.host.send(dst, port, payload, size, cap=cap, owner=self)
        self.bytes_sent += size
        self.send_log.append((start, self.sim.now, size))
        return msg

    def recv(self, port, filter=None):
        return self.sim.process(self._recv(port, filter), name=f"{self.name}.recv")

    def _recv(self, port, filter=None):
        msg = yield self.host.mailbox(port).get(filter=filter)
        if self._recv_bucket is not None:
            delay = self._recv_bucket.reserve(msg.size, self.sim.now)
            if delay > 0:
                yield self.sim.timeout(delay)
        self.bytes_received += msg.size
        self.recv_log.append((msg.send_time, self.sim.now, msg.size))
        return msg


HOSTS = ("a", "b", "c")

# Zero sizes and zero waits are drawn often: they pile events onto one
# instant, where only the FIFO order separates them.
_OPS = st.one_of(
    st.tuples(
        st.just("send"), st.integers(0, 2), st.integers(0, 1),
        st.sampled_from([0.0, 0.0, 100.0, 250.0]),
    ),
    st.tuples(st.just("recv"), st.integers(0, 1), st.sampled_from([None, 0, 1])),
    st.tuples(st.just("wait"), st.sampled_from([0.0, 0.0, 0.25])),
)
#: One program per process; process ``k`` runs in sandbox ``k % 3``.
PROGRAMS = st.lists(st.lists(_OPS, max_size=6), min_size=2, max_size=5)
#: Sandbox limits: none, an ideal bandwidth cap, or a token bucket.
SHAPES = st.sampled_from(["none", "ideal", "bucket"])

_FILTERS = (lambda msg: msg.payload[0] % 2 == 0, lambda msg: msg.payload[0] % 2 == 1)


def run_program(cls, program, shape):
    """Run ``program`` over sandboxes of class ``cls``; returns its log."""
    sim = Simulator()
    net = Network(sim)
    for name in HOSTS:
        net.register(Host(sim, name, cpu_speed=100.0))
    for i, a in enumerate(HOSTS):
        for b in HOSTS[i + 1:]:
            net.connect(a, b, bandwidth=1000.0, latency=0.25 if b == "c" else 0.0)
    limits, mode = ResourceLimits(), LimiterMode.IDEAL
    if shape == "ideal":
        limits = ResourceLimits(net_bw=400.0)
    elif shape == "bucket":
        limits, mode = ResourceLimits(net_bw=400.0), LimiterMode.QUANTUM
    boxes = [cls(net.hosts[h], limits, mode=mode, name=f"sb-{h}") for h in HOSTS]
    log = []

    def body(me, ops):
        box = boxes[me % 3]
        for i, op in enumerate(ops):
            if op[0] == "send":
                dst = HOSTS[op[1]]
                if dst == box.host.name:
                    continue
                msg = yield box.send(dst, f"p{op[2]}", (me, i), size=op[3])
                log.append((sim.now, me, i, "sent", msg.payload))
            elif op[0] == "recv":
                flt = None if op[2] is None else _FILTERS[op[2]]
                msg = yield box.recv(f"p{op[1]}", filter=flt)
                log.append((sim.now, me, i, "got", msg.payload, msg.src))
            else:
                yield sim.timeout(op[1])
                log.append((sim.now, me, i, "woke"))

    for me, ops in enumerate(program):
        sim.process(body(me, ops), name=f"app{me}")
    sim.run(until=30.0)
    books = [
        (b.bytes_sent, b.bytes_received, b.send_log, b.recv_log) for b in boxes
    ]
    return log, books


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS, SHAPES)
def test_ops_resume_where_helper_processes_did(program, shape):
    assert run_program(Sandbox, program, shape) == run_program(
        HelperSandbox, program, shape
    )


class QueuedSandbox(Sandbox):
    """A planted defect: ops fire through a queued NORMAL event instead
    of running their waiters inline."""

    class Send(SendOp):
        __slots__ = ()

        def _complete(self, ok, value):
            self.succeed(value) if ok else self.fail(value)

    class Recv(RecvOp):
        __slots__ = ()

        def _complete(self, ok, value):
            self.succeed(value) if ok else self.fail(value)

    def send(self, dst, port, payload, size):
        return self.Send(self, dst, port, payload, size)

    def recv(self, port, filter=None):
        return self.Recv(self, port, filter)


def test_oracle_catches_queued_completion():
    program, shape = find(
        st.tuples(PROGRAMS, SHAPES),
        lambda case: run_program(QueuedSandbox, *case)
        != run_program(HelperSandbox, *case),
        settings=settings(max_examples=2000, database=None, derandomize=True),
    )
    assert run_program(Sandbox, program, shape) == run_program(
        HelperSandbox, program, shape
    )


def _one_message(cls):
    """Send one message between two sandboxes; returns the simulator."""
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b"):
        net.register(Host(sim, name, cpu_speed=100.0))
    net.connect("a", "b", bandwidth=1000.0)
    sa, sb = cls(net.hosts["a"]), cls(net.hosts["b"])

    def sender():
        yield sa.send("b", "p", "x", size=100.0)

    def receiver():
        return (yield sb.recv("p")).payload

    sim.process(sender())
    got = sim.process(receiver())
    sim.run()
    assert got.value == "x"
    assert (sa.bytes_sent, sb.bytes_received) == (100.0, 100.0)
    return sim


def test_one_message_takes_two_steps_fewer():
    sim = Simulator()
    sandbox = Sandbox(Host(sim, "h", cpu_speed=1.0))
    assert isinstance(sandbox.send("h", "p", None, 1.0), SendOp)
    assert isinstance(sandbox.recv("p"), RecvOp)
    # The two helpers' exit steps; each op's start event takes the step
    # of a helper's start.
    assert _one_message(HelperSandbox).steps - _one_message(Sandbox).steps == 2


# -- spawn and race-detector census --------------------------------------

#: Processes spawned by one seed-0 iteration with a helper process per
#: message (6,116 and 8,998 of them helpers).
HELPER_ERA_SPAWNS = {"adapt_faults": 6230, "crowd_sessions": 9089}


def _adapt_faults():
    from repro.experiments import run_chaos, run_recovery

    run_chaos(seed=0)
    run_recovery(seed=0)


def _crowd_sessions():
    from repro.experiments import run_crowd

    run_crowd(seed=0, scenario="baseline", users=50)


@pytest.mark.parametrize(
    "workload, run", [("adapt_faults", _adapt_faults), ("crowd_sessions", _crowd_sessions)]
)
def test_spawn_census(monkeypatch, workload, run):
    names = []
    spawn = core.Process.__init__

    def counting(self, sim, generator, name=""):
        spawn(self, sim, generator, name)
        names.append(self.name)

    monkeypatch.setattr(core.Process, "__init__", counting)
    run()
    assert names
    assert len(names) <= HELPER_ERA_SPAWNS[workload] // 10
    helpers = [
        n for n in names
        if n.endswith((".send", ".recv")) and not n.startswith("crowd.agent.")
    ]
    assert helpers == []


def test_race_detector_sees_every_mailbox_access(monkeypatch):
    """Deliveries go through ``Store.post``, which the detector wraps like
    ``put``: chaos seed 0 records as many accesses as with a put per
    delivery (2,618)."""
    from repro.analysis.races import RaceDetector
    from repro.experiments import run_chaos

    accesses = []
    record = RaceDetector.record

    def counting(self, label, op):
        accesses.append(label)
        record(self, label, op)

    monkeypatch.setattr(RaceDetector, "record", counting)
    _fig, payload = run_chaos(seed=0, detect_races=True)
    assert len(accesses) == 2618
    assert payload["races"] == []


# -- supervision ------------------------------------------------------------
# A supervisor reaping a process parked on an op cancels the op.  The
# outcomes below are the ones reaping a helper process gave.


def _supervised_pair(limits=ResourceLimits(), mode=LimiterMode.IDEAL):
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b"):
        net.register(Host(sim, name, cpu_speed=100.0))
    net.connect("a", "b", bandwidth=1000.0)
    sup = Supervisor(sim, seed=0).attach()
    box = Sandbox(net.hosts["a"], limits, mode=mode, name="svc")
    return sim, net, sup, box


def test_killed_receiver_leaves_no_waiter_behind():
    sim, net, sup, box = _supervised_pair()
    got = []

    def server():
        try:
            got.append((yield box.recv("p")))
        except Interrupt:
            return

    proc = sim.process(server(), name="server")
    sup.supervise("server", lambda _s: None, processes=[proc], restarts=False)
    sim.schedule_callback(1.0, lambda: sup.kill("server"))
    peer = Sandbox(net.hosts["b"], name="peer")

    def late_sender():
        yield sim.timeout(2.0)
        yield peer.send("a", "p", "late", size=10.0)

    sim.process(late_sender(), name="peer")
    sim.run()
    mailbox = net.hosts["a"].mailbox("p")
    assert got == []
    assert [m.payload for m in mailbox.items] == ["late"]  # nobody swallowed it
    assert not mailbox._get_waiters
    assert box.bytes_received == 0.0


def test_reaped_send_books_nothing():
    sim, net, sup, box = _supervised_pair()

    def client():
        try:
            yield box.send("b", "p", "data", size=1000.0)  # 1 s on the wire
        except Interrupt:
            return

    proc = sim.process(client(), name="client")
    sup.supervise("client", lambda _s: None, processes=[proc], restarts=False)
    sim.schedule_callback(0.5, lambda: sup.kill("client"))
    sim.run()
    # The bytes already on the wire arrive; the dead sender books nothing.
    assert [m.payload for m in net.hosts["b"].mailbox("p").items] == ["data"]
    assert box.bytes_sent == 0.0 and box.send_log == []


def test_send_reaped_while_shaped_never_leaves():
    sim, net, sup, box = _supervised_pair(
        ResourceLimits(net_bw=100.0), LimiterMode.QUANTUM
    )

    def client():
        try:
            yield box.send("b", "p", "data", size=1000.0)  # ~10 s of tokens
        except Interrupt:
            return

    proc = sim.process(client(), name="client")
    sup.supervise("client", lambda _s: None, processes=[proc], restarts=False)
    sim.schedule_callback(1.0, lambda: sup.kill("client"))
    sim.run()
    assert not net.hosts["b"].mailbox("p").items
    assert box.bytes_sent == 0.0
