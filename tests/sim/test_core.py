"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator, Timeout


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_initial_time_can_be_set():
    assert Simulator(start=5.0).now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(3.5)

    sim.run_process(proc())
    assert sim.now == pytest.approx(3.5)


def test_timeout_carries_value():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc()) == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("late", 2.0))
    sim.process(proc("early", 1.0))
    sim.process(proc("mid", 1.5))
    sim.run()
    assert order == ["early", "mid", "late"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_run_until_past_raises():
    sim = Simulator(start=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_process_waits_on_manual_event():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter():
        val = yield ev
        seen.append((sim.now, val))

    def firer():
        yield sim.timeout(2.0)
        ev.succeed(42)

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert seen == [(2.0, 42)]


def test_event_failure_propagates_into_process():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    proc = sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert proc.value == "caught boom"


def test_unhandled_event_failure_crashes_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listens"))
    with pytest.raises(RuntimeError, match="nobody listens"):
        sim.run()


def test_defused_failure_does_not_crash_run():
    sim = Simulator()
    ev = sim.event()
    ev.defused = True
    ev.fail(RuntimeError("quiet"))
    sim.run()  # no raise


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError())


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    assert sim.run_process(proc()) == "done"


def test_process_exception_propagates_from_run_process():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    with pytest.raises(KeyError):
        sim.run_process(proc())


def test_process_is_event_waitable_by_other_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        result = yield sim.process(child())
        return result * 3

    assert sim.run_process(parent()) == 21


def test_yield_non_event_is_error():
    sim = Simulator()

    def proc():
        yield 5

    with pytest.raises(SimulationError, match="non-event"):
        sim.run_process(proc())


def test_yield_foreign_event_is_error():
    sim = Simulator()
    other = Simulator()

    def proc():
        yield other.timeout(1.0)

    with pytest.raises(SimulationError, match="another simulator"):
        sim.run_process(proc())


def test_interrupt_thrown_into_waiting_process():
    sim = Simulator()
    seen = {}

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            seen["cause"] = intr.cause
            seen["time"] = sim.now

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt(cause="reconfigure")

    proc = sim.process(sleeper())
    sim.process(interrupter(proc))
    sim.run()
    assert seen == {"cause": "reconfigure", "time": 3.0}


def test_interrupted_process_can_continue():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        return sim.now

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt()

    proc = sim.process(sleeper())
    sim.process(interrupter(proc))
    sim.run()
    assert proc.value == pytest.approx(3.0)


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_stale_event_does_not_resume_interrupted_process():
    """After an interrupt, the originally awaited event must not re-resume."""
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            resumes.append("interrupt")
        yield sim.timeout(10.0)
        resumes.append("second sleep")

    def interrupter(target):
        yield sim.timeout(1.0)
        target.interrupt()

    proc = sim.process(sleeper())
    sim.process(interrupter(proc))
    sim.run()
    assert resumes == ["interrupt", "second sleep"]
    assert sim.now == pytest.approx(11.0)


def test_schedule_callback():
    sim = Simulator()
    fired = []
    sim.schedule_callback(2.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.5]


def test_stop_halts_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        sim.stop()
        yield sim.timeout(1.0)  # pragma: no cover

    sim.process(proc())
    sim.run()
    assert sim.now == 1.0


def test_peek_and_is_idle():
    sim = Simulator()
    assert sim.is_idle()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert not sim.is_idle()
    assert sim.peek() == 4.0


def test_step_on_empty_schedule_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_run_process_unfinished_raises():
    sim = Simulator()
    ev = sim.event()  # never fires

    def proc():
        yield ev

    with pytest.raises(SimulationError, match="did not finish"):
        sim.run_process(proc())


def test_urgent_events_precede_normal_at_same_time():
    sim = Simulator()
    order = []
    normal = sim.event()
    urgent = sim.event()
    normal.callbacks.append(lambda e: order.append("normal"))
    urgent.callbacks.append(lambda e: order.append("urgent"))
    normal.succeed()
    urgent.succeed(priority=0)
    sim.run()
    assert order == ["urgent", "normal"]


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(float(i % 17) / 10.0)
        done.append(i)

    for i in range(2000):
        sim.process(proc(i))
    sim.run()
    assert len(done) == 2000


def test_active_process_visible_during_execution():
    sim = Simulator()
    captured = []

    def proc():
        captured.append(sim.active_process)
        yield sim.timeout(1.0)
        captured.append(sim.active_process)

    p = sim.process(proc())
    sim.run()
    assert captured == [p, p]
    assert sim.active_process is None


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_timeout_chain_accumulates_time():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield sim.timeout(0.1)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(1.0)


def test_run_reentrancy_from_process_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        sim.run()

    sim.process(proc())
    with pytest.raises(SimulationError, match="re-entered"):
        sim.run()


def test_step_reentrancy_from_process_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        sim.step()

    sim.process(proc())
    with pytest.raises(SimulationError, match="re-entered"):
        sim.run()


def test_urgent_timeout_precedes_normal_at_same_instant():
    from repro.sim import NORMAL, URGENT

    order = []
    sim = Simulator()

    def watcher():
        yield sim.timeout(1.0, priority=URGENT)
        order.append("watcher")

    def worker():
        yield sim.timeout(1.0, priority=NORMAL)
        order.append("worker")

    # Schedule the NORMAL one first: priority must beat FIFO order.
    sim.process(worker())
    sim.process(watcher())
    sim.run()
    assert order == ["watcher", "worker"]


def test_step_hook_observes_every_step():
    seen = []
    sim = Simulator()

    def observer(t, prio, seq, event):
        seen.append((t, prio, type(event).__name__))

    sim.observe(observer)

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    sim.process(proc())
    sim.run()
    times = [t for t, _prio, _name in seen]
    assert times == sorted(times)
    assert [name for _t, _prio, name in seen].count("Timeout") == 2
    sim.unobserve(observer)
    assert sim.observers == ()


def test_observers_run_in_attach_order():
    sim = Simulator()
    calls = []

    def observer(name):
        return lambda t, prio, seq, event: calls.append((name, seq))

    first, second = observer("first"), observer("second")
    sim.observe(first)
    sim.observe(second)
    assert sim.observers == (first, second)
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert [name for name, _seq in calls] == ["first", "second"] * 2
    assert calls[0][1] == calls[1][1] and calls[2][1] == calls[3][1]


def test_observer_unobserving_itself_mid_step_does_not_skip_the_next():
    sim = Simulator()
    calls = []

    def once(t, prio, seq, event):
        calls.append("once")
        sim.unobserve(once)

    sim.observe(once)
    sim.observe(lambda t, prio, seq, event: calls.append("after"))
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert calls == ["once", "after", "after"]
    assert len(sim.observers) == 1


def test_unobserve_of_unknown_observer_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.unobserve(lambda t, prio, seq, event: None)


def test_clock_alarm_fires_on_due_steps_until_rearmed():
    sim = Simulator()
    fired = []

    def alarm(t):
        fired.append(t)
        if t >= 3.0:
            sim.set_alarm(5.0, alarm)  # re-arm further out

    sim.set_alarm(2.0, alarm)
    for delay in (1.0, 2.0, 2.0, 3.0, 4.0, 6.0):
        sim.timeout(delay)
    sim.run()
    # Level-triggered: every step at or past the alarm time calls it.
    assert fired == [2.0, 2.0, 3.0, 6.0]
    assert sim.steps == 6
    with pytest.raises(SimulationError):
        sim.set_alarm(7.0, lambda t: None)  # another owner
    sim.set_alarm(0.0, None)
    sim.timeout(1.0)
    sim.run()
    assert fired == [2.0, 2.0, 3.0, 6.0] and sim.steps == 7


# -- tiebreak policy hook --------------------------------------------------


class _DemoteSeqZero:
    """Minimal policy: push the very first enqueue past its tie window."""

    def key(self, time, priority, seq, event):
        return seq + (1 << 60) if seq == 0 else seq


def test_tiebreak_policy_reorders_same_instant_ties():
    order = []
    sim = Simulator(tiebreak=_DemoteSeqZero())
    sim.schedule_callback(1.0, lambda: order.append("a"))  # seq 0, demoted
    sim.schedule_callback(1.0, lambda: order.append("b"))  # seq 1
    sim.run()
    assert order == ["b", "a"]


def test_identity_tiebreak_matches_no_policy():
    class Identity:
        def key(self, time, priority, seq, event):
            return seq

    def drive(sim):
        order = []
        sim.schedule_callback(1.0, lambda: order.append("a"))
        sim.schedule_callback(1.0, lambda: order.append("b"))
        sim.run()
        return order

    assert drive(Simulator()) == drive(Simulator(tiebreak=Identity()))


def test_tiebreak_never_reorders_across_priorities():
    from repro.sim import URGENT

    order = []
    sim = Simulator(tiebreak=_DemoteSeqZero())
    # The demoted event is URGENT: demotion moves it within its own
    # (time, priority) window, never behind a NORMAL event.
    sim.schedule_callback(1.0, lambda: order.append("urgent"), priority=URGENT)
    sim.schedule_callback(1.0, lambda: order.append("normal"))
    sim.run()
    assert order == ["urgent", "normal"]


def test_set_tiebreak_rejects_nonempty_heap():
    sim = Simulator()
    pending = sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.set_tiebreak(_DemoteSeqZero())
    assert pending is not None


def test_set_tiebreak_on_fresh_sim_and_property():
    sim = Simulator()
    policy = _DemoteSeqZero()
    sim.set_tiebreak(policy)
    assert sim.tiebreak is policy
    sim.set_tiebreak(None)
    assert sim.tiebreak is None
