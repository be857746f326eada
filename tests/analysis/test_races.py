"""Dynamic tie-order race detector tests.

The canonical positive case: two independent processes touch the same
Store at the same virtual timestamp with no causal path between them, so
their relative order exists only because one event was pushed onto the
heap first.  The detector must flag it — deterministically, with the same
report on every run.
"""

import pytest

from repro.analysis.races import RaceDetector
from repro.sim import NORMAL, FluidShare, Simulator, Store, Timeout, URGENT


def _racy_run():
    """Two unrelated writers hit one store at t=1.0; returns the reports."""
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value):
        yield sim.timeout(1.0)
        store.put(value)

    sim.process(writer("a"), name="first")
    sim.process(writer("b"), name="second")
    sim.run()
    reports = detector.finish()
    detector.detach()
    return reports


def test_same_timestamp_store_conflict_is_flagged():
    reports = _racy_run()
    assert len(reports) == 1
    report = reports[0]
    assert report.label == "shared"
    assert report.time == 1.0
    assert report.first.context != report.second.context
    assert "FIFO" in report.message()


def test_report_is_deterministic_across_runs():
    first = [r.to_dict() for r in _racy_run()]
    second = [r.to_dict() for r in _racy_run()]
    assert first == second


def test_different_timestamps_do_not_race():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value, at):
        yield sim.timeout(at)
        store.put(value)

    sim.process(writer("a", 1.0))
    sim.process(writer("b", 2.0))
    sim.run()
    assert detector.finish() == []


def test_same_process_does_not_race_with_itself():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer():
        yield sim.timeout(1.0)
        store.put("a")
        store.put("b")

    sim.process(writer())
    sim.run()
    assert detector.finish() == []


def test_put_wakes_receiver_is_causal_not_racy():
    # The classic chain: a parked get resumes *because of* the put, at the
    # same timestamp.  That order is causal (happens-before), not a tie.
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")
    received = []

    def receiver():
        item = yield store.get()
        received.append(item)

    def sender():
        yield sim.timeout(1.0)
        store.put("msg")

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert received == ["msg"]
    assert detector.finish() == []


def test_priority_separated_accesses_are_not_a_tie():
    # URGENT-before-NORMAL at one timestamp is semantic ordering, not a
    # FIFO accident, so it must not be reported.
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")

    def writer(value, priority):
        yield sim.timeout(1.0, priority=priority)
        store.put(value)

    sim.process(writer("urgent", URGENT))
    sim.process(writer("normal", NORMAL))
    sim.run()
    assert detector.finish() == []


def test_watch_mapping_flags_read_write_tie():
    sim = Simulator()

    class Table:
        def __init__(self):
            self.entries = {}

    table = Table()
    detector = RaceDetector(sim).attach()
    detector.watch_mapping(table, "entries", "table.entries")

    def writer():
        yield sim.timeout(1.0)
        table.entries["k"] = 1

    def reader(out):
        yield sim.timeout(1.0)
        out.append(table.entries.get("k"))

    seen = []
    sim.process(writer(), name="writer")
    sim.process(reader(seen), name="reader")
    sim.run()
    reports = detector.finish()
    assert [r.label for r in reports] == ["table.entries"]
    assert {reports[0].first.op, reports[0].second.op} == {"read", "write"}


def test_watch_mapping_read_read_is_not_a_race():
    sim = Simulator()

    class Table:
        def __init__(self):
            self.entries = {"k": 1}

    table = Table()
    detector = RaceDetector(sim).attach()
    detector.watch_mapping(table, "entries", "table.entries")

    def reader(out):
        yield sim.timeout(1.0)
        out.append(table.entries.get("k"))

    seen = []
    sim.process(reader(seen))
    sim.process(reader(seen))
    sim.run()
    assert seen == [1, 1]
    assert detector.finish() == []


def test_setup_accesses_never_race():
    sim = Simulator()
    store = Store(sim)
    detector = RaceDetector(sim).attach()
    detector.watch_store(store, "shared")
    store.put("preloaded")  # before run(): no executing step, cannot race

    def consumer(out):
        yield sim.timeout(1.0)
        out.append(store.try_get())

    got = []
    sim.process(consumer(got))
    sim.run()
    assert got == ["preloaded"]
    assert detector.finish() == []


def test_detach_restores_simulator_hooks():
    sim = Simulator()
    assert sim._direct  # no observer: hot sites push the heap directly
    detector = RaceDetector(sim).attach()
    assert sim.observers == (detector._on_step,)
    assert sim.push_hook is not None  # every push now reports its parent
    assert not sim._direct
    detector.detach()
    assert sim.observers == ()
    assert sim.push_hook is None
    assert sim._direct


# -- causal parents are learned on every push path --------------------------
#
# Each program makes two same-instant, same-priority writes from different
# contexts, where the second step was scheduled by the first.  The detector
# learns that parent through the kernel's push hook; a push that bypassed
# the hook would leave the pair unordered and report a false race.


def _chain_timeout0(sim, touch):
    def writer():
        yield sim.timeout(1.0)
        touch()
        Timeout(sim, 0.0).callbacks.append(lambda _e: touch())

    sim.process(writer(), name="writer")


def _chain_succeed(sim, touch, fail=False):
    wake = sim.event()

    def signaller():
        yield sim.timeout(1.0)
        touch()
        if fail:
            wake.fail(RuntimeError("wake"))
        else:
            wake.succeed()

    def waiter():
        try:
            yield wake
        except RuntimeError:
            pass
        touch()

    sim.process(signaller(), name="signaller")
    sim.process(waiter(), name="waiter")


def _chain_fluid_catch_up(sim, touch):
    """The share's catch-up finds the job done inside the writer's step."""
    share = FluidShare(sim, 1.0)
    jobs = []

    def writer():
        tick = sim.timeout(1.0)  # sorts before the completion timer
        jobs.append(share.submit(1.0))
        yield tick
        touch()
        share.sync()

    def waiter():
        yield jobs[0].done
        touch()

    sim.process(writer(), name="writer")
    sim.process(waiter(), name="waiter")


def _chain_fluid_timer(sim, touch):
    """The completion timer's step serves the work and wakes the waiter."""
    share = FluidShare(sim, 1.0)
    share.usage_tap = lambda _owner, _amount: touch()

    def waiter():
        yield share.submit(1.0).done
        touch()

    sim.process(waiter(), name="waiter")


def _chain_spawn(sim, touch):
    def child():
        touch()
        yield sim.timeout(0.0)

    def parent():
        # URGENT, like the child's start: a different priority would order
        # the two steps without any causal link.
        yield sim.timeout(1.0, priority=URGENT)
        touch()
        sim.process(child(), name="child")

    sim.process(parent(), name="parent")


def _chain_exit(sim, touch):
    def child():
        yield sim.timeout(1.0)
        touch()

    def parent():
        # Through a condition, so the resume is the parent's own step, not
        # the child's exit event (which the detector files under the child).
        yield sim.any_of([sim.process(child(), name="child")])
        touch()

    sim.process(parent(), name="parent")


@pytest.mark.parametrize(
    "build",
    [
        _chain_timeout0,
        _chain_succeed,
        lambda sim, touch: _chain_succeed(sim, touch, fail=True),
        _chain_fluid_catch_up,
        _chain_fluid_timer,
        _chain_spawn,
        _chain_exit,
    ],
    ids=["timeout0", "succeed", "fail", "fluid-catch-up", "fluid-timer",
         "spawn", "exit"],
)
def test_same_instant_causal_chain_is_not_a_race(build):
    sim = Simulator()
    detector = RaceDetector(sim).attach()
    touches = []

    def touch():
        detector.record("state", "write")
        touches.append((sim.now, detector._current[3]))

    build(sim, touch)
    sim.run()
    # The program really made two same-instant writes from two contexts...
    assert len(touches) == 2
    assert touches[0][0] == touches[1][0] > 0.0
    assert touches[0][1] != touches[1][1]
    # ...and the detector saw the second step descend from the first.
    assert detector.finish() == []


def test_chaos_run_reports_no_races():
    from repro.experiments import run_chaos

    _, payload = run_chaos(seed=0, detect_races=True)
    assert payload["races"] == []
