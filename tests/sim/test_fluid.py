"""Tests for the fluid (GPS with caps) resource model."""

import pytest

from repro.sim import FluidShare, SimulationError, Simulator


def run_until_done(sim, *jobs):
    sim.run()
    for job in jobs:
        assert job.finished


def test_single_job_runs_at_full_speed():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=50.0)
    run_until_done(sim, job)
    assert job.done.value == pytest.approx(0.5)


def test_two_equal_jobs_share_equally():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    a = cpu.submit(work=100.0)
    b = cpu.submit(work=100.0)
    run_until_done(sim, a, b)
    # Each runs at 50 for the whole time -> both finish at t=2.
    assert a.done.value == pytest.approx(2.0)
    assert b.done.value == pytest.approx(2.0)


def test_weighted_sharing():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    heavy = cpu.submit(work=150.0, weight=3.0)
    light = cpu.submit(work=50.0, weight=1.0)
    run_until_done(sim, heavy, light)
    # heavy gets 75/s, light 25/s -> both finish at t=2.
    assert heavy.done.value == pytest.approx(2.0)
    assert light.done.value == pytest.approx(2.0)


def test_departure_releases_capacity():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    short = cpu.submit(work=50.0)
    long = cpu.submit(work=150.0)
    run_until_done(sim, short, long)
    # Both run at 50 until t=1 (short done, long has 100 left); then long
    # runs at 100, finishing at t=2.
    assert short.done.value == pytest.approx(1.0)
    assert long.done.value == pytest.approx(2.0)


def test_cap_limits_rate_even_when_alone():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=50.0, cap=25.0)
    run_until_done(sim, job)
    assert job.done.value == pytest.approx(2.0)


def test_cap_excess_redistributed_to_uncapped_job():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    capped = cpu.submit(work=20.0, cap=20.0)
    free = cpu.submit(work=160.0)
    run_until_done(sim, capped, free)
    # capped runs at 20, free at 80 -> capped done at t=1 (80 of free's work
    # done); free then runs at 100/s for its remaining 80 -> t=1.8.
    assert capped.done.value == pytest.approx(1.0)
    assert free.done.value == pytest.approx(1.8)


def test_water_filling_multiple_caps():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    a = cpu.submit(work=1000.0, cap=10.0)
    b = cpu.submit(work=1000.0, cap=20.0)
    c = cpu.submit(work=1000.0)
    sim.run(until=1.0)
    cpu.sync()  # accumulators advance lazily at event boundaries
    # a:10, b:20, c: 70
    assert a.consumed == pytest.approx(10.0)
    assert b.consumed == pytest.approx(20.0)
    assert c.consumed == pytest.approx(70.0)


def test_late_arrival_slows_existing_job():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    first = cpu.submit(work=100.0)

    def spawn_second():
        yield sim.timeout(0.5)
        second = cpu.submit(work=50.0)
        return second

    proc = sim.process(spawn_second())
    sim.run()
    second = proc.value
    # first: 50 done by 0.5, then 50/s -> finishes at 1.5.
    assert first.done.value == pytest.approx(1.5)
    # second: 50 work at 50/s -> also at 1.5.
    assert second.done.value == pytest.approx(1.5)


def test_set_weight_zero_suspends():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=100.0)

    def controller():
        yield sim.timeout(0.5)  # 50 done
        cpu.set_weight(job, 0.0)
        yield sim.timeout(1.0)  # suspended: no progress
        assert job.consumed == pytest.approx(50.0)
        cpu.set_weight(job, 1.0)

    sim.process(controller())
    sim.run()
    assert job.done.value == pytest.approx(2.0)


def test_set_speed_rescales_rates():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=100.0)

    def controller():
        yield sim.timeout(0.5)
        cpu.set_speed(50.0)

    sim.process(controller())
    sim.run()
    # 50 done at t=0.5; remaining 50 at 50/s -> t=1.5.
    assert job.done.value == pytest.approx(1.5)


def test_set_cap_mid_flight():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=100.0)

    def controller():
        yield sim.timeout(0.5)
        cpu.set_cap(job, 10.0)

    sim.process(controller())
    sim.run()
    # 50 done by 0.5; remaining 50 at 10/s -> total 5.5.
    assert job.done.value == pytest.approx(5.5)


def test_zero_work_completes_immediately():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=0.0)
    sim.run()
    assert job.finished
    assert job.done.value == 0.0


def test_zero_speed_makes_no_progress():
    sim = Simulator()
    cpu = FluidShare(sim, speed=0.0)
    job = cpu.submit(work=10.0)
    sim.run(until=100.0)
    assert not job.finished
    assert job.consumed == 0.0


def test_cancel_fails_done_event():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    job = cpu.submit(work=100.0)

    def waiter():
        try:
            yield job.done
        except SimulationError:
            return "cancelled"

    def canceller():
        yield sim.timeout(0.1)
        cpu.cancel(job)

    proc = sim.process(waiter())
    sim.process(canceller())
    sim.run()
    assert proc.value == "cancelled"


def test_consumed_accounting_matches_total_served():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    a = cpu.submit(work=30.0)
    b = cpu.submit(work=70.0, weight=2.0)
    sim.run()
    assert cpu.total_served == pytest.approx(100.0)
    assert a.consumed == pytest.approx(30.0)
    assert b.consumed == pytest.approx(70.0)


def test_utilization_snapshot():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    snap = cpu.snapshot()
    job = cpu.submit(work=25.0, cap=50.0)

    def observer():
        yield sim.timeout(1.0)
        return cpu.utilization_since(*snap)

    proc = sim.process(observer())
    sim.run(until=1.0)
    sim.run()
    # 25 work at cap 50 takes 0.5s; over the 1s window utilization = 25%.
    assert proc.value == pytest.approx(0.25)
    assert job.finished


def test_validation_errors():
    sim = Simulator()
    with pytest.raises(SimulationError):
        FluidShare(sim, speed=-1.0)
    cpu = FluidShare(sim, speed=10.0)
    with pytest.raises(SimulationError):
        cpu.submit(work=-1.0)
    with pytest.raises(SimulationError):
        cpu.submit(work=1.0, weight=-1.0)
    with pytest.raises(SimulationError):
        cpu.submit(work=1.0, cap=-1.0)
    job = cpu.submit(work=1.0)
    with pytest.raises(SimulationError):
        cpu.set_weight(job, -2.0)
    with pytest.raises(SimulationError):
        cpu.set_cap(job, -2.0)
    with pytest.raises(SimulationError):
        cpu.set_speed(-5.0)


def test_rates_reported_on_jobs():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    a = cpu.submit(work=1000.0, weight=1.0)
    b = cpu.submit(work=1000.0, weight=4.0)
    assert a.rate == pytest.approx(20.0)
    assert b.rate == pytest.approx(80.0)


def test_many_jobs_complete_in_expected_order():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    jobs = [cpu.submit(work=10.0 * (i + 1)) for i in range(10)]
    sim.run()
    finish_times = [j.done.value for j in jobs]
    assert finish_times == sorted(finish_times)
    assert all(j.finished for j in jobs)
    assert cpu.total_served == pytest.approx(sum(10.0 * (i + 1) for i in range(10)))


# -- one rescheduling pass per share per instant ------------------------------


def test_same_instant_submits_reschedule_once():
    from repro.obs.perf import KernelProfiler

    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0, name="cpu")
    profiler = KernelProfiler(full=True).attach(sim)
    jobs = [cpu.submit(work=1.0 + i) for i in range(64)]
    # Every change is pending; nothing is queued yet.
    assert sim._heap == [] and not sim.is_idle()
    assert sim.peek() == 0.0
    sim.step()  # the end-of-instant pass is this step; no event dispatched
    assert profiler.fluid["cpu"]["reschedules"] == 1
    assert profiler.fluid["cpu"]["fanout_max"] == 64
    assert profiler.steps == 0
    assert len(sim._heap) == 1  # one live completion timer, no stale ones
    assert sim.peek() == pytest.approx(0.64)  # 64 jobs x 1 unit at 100/s
    sim.run()
    assert all(j.finished for j in jobs)
    assert cpu.total_served == pytest.approx(sum(1.0 + i for i in range(64)))


def test_same_time_completions_fire_in_last_change_order():
    # Both timers land on t == 1.0 exactly.  ``a`` changed first *and*
    # last; its timer sorts at the FIFO position of its last change, so
    # ``b`` (changed in between) completes first — the order an eager
    # reschedule after every change produces.
    sim = Simulator()
    share_a = FluidShare(sim, speed=100.0, name="a")
    share_b = FluidShare(sim, speed=50.0, name="b")
    order = []
    job_a = share_a.submit(work=100.0)
    job_b = share_b.submit(work=50.0)
    share_a.set_weight(job_a, 1.0)
    job_a.done.callbacks.append(lambda _e: order.append("a"))
    job_b.done.callbacks.append(lambda _e: order.append("b"))
    sim.run()
    assert job_a.done.value == job_b.done.value == 1.0
    assert order == ["b", "a"]


def test_pending_reschedule_at_run_until_arms_completion():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    sim.timeout(5.0)
    jobs = []

    def submitter():
        yield sim.timeout(0.25)
        jobs.append(cpu.submit(work=50.0))

    sim.process(submitter())
    # After the submit at 0.25 the next queued event is at 5.0 > until;
    # the pending pass must run first and arm the completion at 0.75.
    sim.run(until=1.0)
    assert sim.now == 1.0
    assert jobs[0].finished and jobs[0].done.value == pytest.approx(0.75)


def test_stop_mid_instant_then_run_finishes():
    sim = Simulator()
    cpu = FluidShare(sim, speed=100.0)
    jobs = []

    def burst():
        jobs.append(cpu.submit(work=100.0))
        jobs.append(cpu.submit(work=100.0))
        sim.stop()

    sim.schedule_callback(1.0, burst)
    sim.run()
    # Stopped before the end of the instant: the pass is still pending,
    # reported as due now, and reads compute the post-change rates.
    assert sim.now == 1.0 and sim.peek() == 1.0 and not sim.is_idle()
    assert [j.rate for j in jobs] == [50.0, 50.0]
    sim.run()
    assert [j.done.value for j in jobs] == [3.0, 3.0]
    assert sim.is_idle()
