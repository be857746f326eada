"""Tests for span recording: parenting, process lifecycle, no-op mode."""

import pytest

from repro.obs import ObsError, TraceRecorder
from repro.sim import Simulator


def test_disabled_mode_is_noop():
    """Without a bound recorder nothing observable changes: sim.obs stays
    None and every instrumentation guard short-circuits."""
    sim = Simulator()
    assert sim.obs is None

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker(), name="w")
    sim.run(until=2.0)
    assert sim.obs is None  # nothing installed one behind our back


def test_bind_unbind_contract():
    sim = Simulator()
    rec = TraceRecorder()
    rec.bind(sim)
    assert sim.obs is rec
    with pytest.raises(ObsError):
        rec.bind(sim)  # double bind
    with pytest.raises(ObsError):
        TraceRecorder().bind(sim)  # second recorder on same sim
    assert sim.observers == ()  # spans come from process hooks, not steps
    rec.unbind()
    assert sim.obs is None
    assert sim.observers == ()


def test_bind_hooks_processes_spawned_before_it():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker(), name="early")
    rec = TraceRecorder().bind(sim)
    sim.process(worker(), name="late")
    sim.run()
    early, late = rec.find("proc:early"), rec.find("proc:late")
    assert [(r.t0, r.t1) for r in early + late] == [(0.0, 1.0), (0.0, 1.0)]
    assert early[0].sid < late[0].sid  # start order, not spawn-under-bind order
    assert rec.steps == sim.steps == 6


def test_unbound_recorder_hooks_do_nothing():
    sim = Simulator()
    rec = TraceRecorder().bind(sim)

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker(), name="w")
    rec.unbind()
    sim.run()
    assert rec.records == []
    assert rec.steps == 0
    # Rebinding before a start keeps one hook, not two.
    sim.process(worker(), name="again")
    rec.bind(sim)
    rec.unbind()
    rec.bind(sim)
    sim.run()
    assert [r.name for r in rec.records] == ["proc:again"]
    assert rec.records[0].t1 == 2.0


def test_process_lifecycle_spans_and_creator_parenting():
    sim = Simulator()
    rec = TraceRecorder().bind(sim)

    def child():
        rec.instant("child.tick")
        yield sim.timeout(1.0)

    def parent():
        yield sim.timeout(0.5)
        sim.process(child(), name="kid")
        yield sim.timeout(2.0)

    sim.process(parent(), name="dad")
    sim.run(until=5.0)
    rec.finish()

    dad = rec.find("proc:dad")[0]
    kid = rec.find("proc:kid")[0]
    tick = rec.find("child.tick")[0]
    assert dad.parent is None
    assert kid.parent == dad.sid  # spawned from inside dad
    assert tick.parent == kid.sid  # recorded while kid was active
    assert dad.t0 == 0.0 and dad.t1 == pytest.approx(2.5)
    assert kid.t0 == pytest.approx(0.5) and kid.t1 == pytest.approx(1.5)
    assert tick.t0 == pytest.approx(0.5)
    assert dad.attrs["ok"] is True


def test_interleaved_processes_nest_independently():
    """Spans recorded from interleaved processes parent under their own
    process span, not whichever process happened to run last."""
    sim = Simulator()
    rec = TraceRecorder().bind(sim)

    def ticker(name, period):
        for _ in range(3):
            yield sim.timeout(period)
            rec.instant(f"tick.{name}")

    sim.process(ticker("a", 0.3), name="proc-a")
    sim.process(ticker("b", 0.4), name="proc-b")
    sim.run(until=2.0)
    rec.finish()

    span_a = rec.find("proc:proc-a")[0]
    span_b = rec.find("proc:proc-b")[0]
    assert all(r.parent == span_a.sid for r in rec.find("tick.a"))
    assert all(r.parent == span_b.sid for r in rec.find("tick.b"))
    assert [r.proc for r in rec.find("tick.a")] == ["proc-a"] * 3


def test_explicit_parent_beats_active_process():
    sim = Simulator()
    rec = TraceRecorder().bind(sim)
    cause = rec.instant("cause")

    def worker():
        yield sim.timeout(1.0)
        rec.instant("effect", parent=cause)

    sim.process(worker(), name="w")
    sim.run(until=2.0)
    assert rec.find("effect")[0].parent == cause


def test_ambient_parent_stack():
    rec = TraceRecorder()
    with rec.span("outer") as outer:
        inner = rec.instant("inner")
    after = rec.instant("after")
    assert rec.find("inner")[0].parent == outer
    assert rec.find("after")[0].parent is None
    assert after != inner


def test_span_end_errors_and_finish():
    rec = TraceRecorder()
    sid = rec.begin("work")
    with pytest.raises(ObsError):
        rec.end(999)
    rec.end(sid)
    with pytest.raises(ObsError):
        rec.end(sid)  # double close
    open_sid = rec.begin("dangling")
    rec.finish()
    dangling = rec.find("dangling")[0]
    assert dangling.sid == open_sid
    assert dangling.t1 is not None
    assert dangling.attrs["unfinished"] is True


def test_monotonic_ids_and_unbound_clock():
    rec = TraceRecorder()
    a = rec.instant("a")
    b = rec.instant("b")
    assert (a, b) == (1, 2)
    assert rec.find("a")[0].t0 == 0.0  # unbound clock reads 0.0


def test_recorder_chains_existing_step_hook():
    # An observer attached before the recorder keeps running beside it.
    sim = Simulator()
    seen = []
    sim.observe(lambda t, prio, seq, event: seen.append(seq))
    rec = TraceRecorder().bind(sim)

    def worker():
        yield sim.timeout(1.0)

    sim.process(worker(), name="w")
    sim.run(until=2.0)
    assert seen  # the original hook still fires
    assert rec.steps == len(seen)
