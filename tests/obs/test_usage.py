"""Usage accounting: hand-checkable fixture vs. the share's own ground truth.

The two-process fixture is small enough to verify on paper:

* one CPU (``FluidShare``) at speed 2.0 work-units/s;
* process A submits 4.0 units, process B submits 8.0 units, equal weight.

GPS evolution: both run at rate 1.0 until A finishes at t=4 (A served 4,
B served 4); B alone then runs at rate 2.0 and finishes at t=6 (B served
8).  Total served 12 over whatever window the clock covers.
"""

import math

import pytest

from repro.obs import TraceRecorder, UsageAccountant
from repro.obs.usage import NO_CONFIG, UNATTRIBUTED, owner_label
from repro.sim import FluidShare, Simulator


class _Proc:
    def __init__(self, name):
        self.name = name


@pytest.fixture()
def fixture():
    sim = Simulator()
    share = FluidShare(sim, speed=2.0, name="cpu")
    usage = UsageAccountant()
    usage.attach(sim)
    usage.track_share("cpu", share, "cpu")
    return sim, share, usage


def test_two_process_account_matches_hand_calculation(fixture):
    sim, share, usage = fixture
    share.submit(4.0, weight=1.0, owner=_Proc("A"))
    share.submit(8.0, weight=1.0, owner=_Proc("B"))
    sim.run()
    usage.finish()

    entry = usage.resources["cpu"]
    assert entry.served == pytest.approx(12.0)
    assert entry.by_owner["A"] == pytest.approx(4.0)
    assert entry.by_owner["B"] == pytest.approx(8.0)
    # Clock stops at the last completion (t=6): capacity = 2.0 * 6.
    assert sim.now == pytest.approx(6.0)
    assert entry.capacity == pytest.approx(12.0)
    assert entry.utilization() == pytest.approx(1.0)


def test_account_agrees_with_utilization_since_ground_truth(fixture):
    sim, share, usage = fixture
    share.submit(4.0, weight=1.0, owner=_Proc("A"))
    share.submit(8.0, weight=1.0, owner=_Proc("B"))
    # Idle tail: a timer extends the window past the last completion, so
    # utilization drops below 1 and exercises the capacity integral.
    sim.schedule_callback(8.0, lambda: None)
    sim.run()
    usage.finish()

    truth = share.utilization_since(0.0, 0.0)
    entry = usage.resources["cpu"]
    assert truth == pytest.approx(12.0 / 16.0)
    assert entry.utilization() == pytest.approx(truth, abs=1e-9)
    # The three attribution views are the same work.
    assert sum(entry.by_owner.values()) == pytest.approx(entry.served)
    assert sum(entry.by_config.values()) == pytest.approx(entry.served)


def test_per_config_attribution_splits_at_safe_point(fixture):
    sim, share, usage = fixture
    usage.set_config("cfg-a", t=0.0)
    share.submit(4.0, weight=1.0, owner=_Proc("A"))
    share.submit(8.0, weight=1.0, owner=_Proc("B"))
    sim.run(until=5.0)
    # A runtime switch folds progress at the safe point before relabeling;
    # sync() is that fold for a hand-driven simulation.
    share.sync()
    usage.set_config("cfg-b")
    sim.run()
    usage.finish()

    entry = usage.resources["cpu"]
    # [0,4): A and B serve 4 each; [4,5): B alone serves 2 -> cfg-a = 10.
    assert entry.by_config["cfg-a"] == pytest.approx(10.0)
    # [5,6): B alone serves the remaining 2 -> cfg-b.
    assert entry.by_config["cfg-b"] == pytest.approx(2.0)
    assert usage.config_marks == [(0.0, "cfg-a"), (5.0, "cfg-b")]


def test_capacity_integral_exact_across_speed_change(fixture):
    sim, share, usage = fixture
    share.submit(20.0, weight=1.0, owner=_Proc("A"))
    sim.run(until=2.0)
    share.set_speed(0.5)  # speed tap folds capacity at the old rate
    sim.run()
    usage.finish()

    # [0,2): speed 2 -> capacity 4, served 4; then 16 remaining at 0.5
    # -> 32 s more, capacity 16.  Busy throughout: utilization 1.
    entry = usage.resources["cpu"]
    assert sim.now == pytest.approx(34.0)
    assert entry.capacity == pytest.approx(20.0)
    assert entry.served == pytest.approx(20.0)
    # Note: share.utilization_since() is NOT comparable here — it assumes
    # the *current* speed held over the whole window; the accountant's
    # speed tap integrates capacity exactly across the change.
    assert entry.utilization() == pytest.approx(1.0)


def test_utilization_series_is_time_weighted(fixture):
    sim, share, usage = fixture
    share.submit(4.0, weight=1.0, owner=_Proc("A"))
    share.submit(8.0, weight=1.0, owner=_Proc("B"))
    sim.schedule_callback(8.0, lambda: None)
    sim.run()
    usage.finish()

    series = usage.series("cpu")
    assert series is not None and series.samples
    # Capacity-weighted mean of the samples reproduces the overall
    # utilization (invariant 3 in the module docstring).
    total, weighted, prev_t = 0.0, 0.0, 0.0
    for t, u in series.samples:
        dt = t - prev_t
        weighted += u * dt
        total += dt
        prev_t = t
    assert weighted / total == pytest.approx(
        usage.resources["cpu"].utilization(), abs=1e-9
    )


def test_owner_label_fallbacks():
    assert owner_label(None) == UNATTRIBUTED
    assert owner_label(_Proc("sandbox-1")) == "sandbox-1"
    assert owner_label(object()) == "object"


def test_accounting_is_passive_no_events_no_rng(fixture):
    sim, share, usage = fixture
    share.submit(4.0, weight=1.0, owner=_Proc("A"))
    before_events = sim.scheduled_count if hasattr(sim, "scheduled_count") else None
    sim.run()
    usage.finish()
    summary = usage.summary()
    assert summary["resources"]["cpu"]["served"] == pytest.approx(4.0)
    assert summary["config_marks"] == []
    assert usage.active_config == NO_CONFIG
    assert math.isfinite(summary["elapsed"])


def test_attach_refuses_double_attachment(fixture):
    sim, _share, usage = fixture
    with pytest.raises(ValueError):
        usage.attach(sim)
    other = UsageAccountant()
    with pytest.raises(ValueError):
        other.attach(sim)
    usage.detach()
    other.attach(sim)  # fine after the first detached
    other.detach()


def test_detach_stops_observing_while_a_recorder_stays_bound():
    sim = Simulator()
    usage = UsageAccountant().attach(sim)
    recorder = TraceRecorder().bind(sim)

    def worker():
        for _ in range(6):
            yield sim.timeout(1.0)

    sim.process(worker())
    sim.run(until=2.5)
    steps = usage.steps
    usage.detach()
    sim.run()
    assert usage.steps == steps
    assert recorder.steps > steps
    assert sim.observers == ()  # neither instrument is a step observer
    assert sim._alarm_fn is None  # detach disarmed the clock alarm
    recorder.unbind()
    assert sim.observers == ()


@pytest.mark.parametrize("resolution", [0.1, 0.3, 1.0 / 3.0, 1.0])
def test_alarm_samples_exactly_where_the_per_step_test_would(resolution):
    """The clock alarm cuts a sample on the same steps as the per-step
    test ``t - last_sample >= resolution`` it replaces, float ties included."""
    sim = Simulator()
    usage = UsageAccountant(resolution=resolution).attach(sim)
    share = FluidShare(sim, 1.0)
    usage.track_share("s", share, "cpu")
    expected = []
    last = [0.0]

    def per_step_test(t, prio, seq, event):
        if t - last[0] >= resolution:
            expected.append(t)
            last[0] = t

    sim.observe(per_step_test)

    def worker(dt):
        for _ in range(40):
            yield sim.timeout(dt)

    for dt in (0.1, 0.1 / 3.0, 0.7):
        sim.process(worker(dt))
    sim.run()
    times = [t for t, _u in usage.series("s").samples]
    assert times == expected
    assert len(times) > 5
