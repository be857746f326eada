"""Differential oracle: repro.sim against the reference kernel.

Hypothesis generates small process programs (timeouts at shared instants,
Store put/get, filtered gets, posts nobody waits on, AnyOf/AllOf,
interrupts, manual events, joins, and fluid submit/cap/cancel calls) and
runs each on both kernels.  What a program
observes must be equal: the order and virtual time of every resume, the
values it receives, and, compared with ``==``, the time each fluid job
completes.  Raw heap traffic is not compared, nor the clock once the run
drains: the production kernel pushes fewer stale fluid timers than the
eager reference, and a stale timer still moves the clock when it fires.
"""

from functools import partial
from types import SimpleNamespace

from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

import repro.sim as production
from tests.reference import kernel as reference

PRODUCTION = SimpleNamespace(
    Simulator=production.Simulator,
    Store=production.Store,
    FluidShare=production.FluidShare,
    Interrupt=production.Interrupt,
    SimulationError=production.SimulationError,
)

_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
_WORKS = st.sampled_from([0.0, 0.25, 1.0, 2.5, 4.0])
_CAPS = st.sampled_from([None, 0.0, 0.3, 0.5, 1.0])
_WEIGHTS = st.sampled_from([1.0, 0.1, 0.7, 0.0])
_SUBMIT = st.tuples(
    st.just("submit"), st.integers(0, 1), _WORKS, _WEIGHTS, _CAPS, st.booleans()
)
_OPS = st.one_of(
    # Submits are drawn three times, and caps twice, as often as the rest,
    # so shares often hold several jobs and take the water-filling path.
    _SUBMIT,
    _SUBMIT,
    st.tuples(st.just("cap"), st.integers(0, 5), _CAPS),
    st.tuples(st.just("wait"), _DELAYS, st.sampled_from([0, 1])),
    st.tuples(st.just("put"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("fget"), st.integers(0, 1), st.integers(0, 2)),
    st.tuples(st.just("post"), st.integers(0, 1), st.integers(0, 9)),
    st.tuples(st.just("any"), st.lists(_DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("all"), st.lists(_DELAYS, max_size=3)),
    st.tuples(st.just("interrupt"), st.integers(0, 3)),
    _SUBMIT,
    st.tuples(st.just("cancel"), st.integers(0, 5)),
    st.tuples(st.just("signal"), st.integers(0, 1)),
    st.tuples(st.just("await"), st.integers(0, 1)),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
#: One list of operations per process.
PROGRAMS = st.lists(st.lists(_OPS, max_size=8), min_size=2, max_size=4)
#: Fluid calls and waits only: several jobs per share most of the time.
FLUID_PROGRAMS = st.lists(
    st.lists(
        st.one_of(
            _SUBMIT,
            st.tuples(st.just("cap"), st.integers(0, 5), _CAPS),
            st.tuples(st.just("cancel"), st.integers(0, 5)),
            st.tuples(st.just("wait"), _DELAYS, st.just(1)),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=2,
    max_size=4,
)


#: Filters a get may carry: an item is an int in 0..9.
FILTERS = (
    lambda item: item % 2 == 0,
    lambda item: item % 2 == 1,
    lambda item: item >= 5,
)


def planted(lifo=False, rate_ulps=0, last_match=False, lazy_post=False):
    """The reference kernel with a known defect planted."""
    return SimpleNamespace(
        Simulator=partial(reference.Simulator, lifo=lifo),
        Store=partial(
            reference.Store, last_match=last_match, lazy_post=lazy_post
        ),
        FluidShare=partial(reference.FluidShare, rate_ulps=rate_ulps),
        Interrupt=reference.Interrupt,
        SimulationError=reference.SimulationError,
    )


def run_program(api, program):
    """Run ``program`` on one kernel; returns everything it observed."""
    sim = api.Simulator()
    stores = [api.Store(sim, capacity=1), api.Store(sim)]
    shares = [api.FluidShare(sim, 0.7), api.FluidShare(sim, 3.0)]
    signals = [sim.event(), sim.event()]
    jobs = []
    procs = []
    log = []

    def note(*entry):
        log.append((sim.now,) + entry)

    def on_done(k):
        def callback(event):
            note("job", k, "done" if event._ok else "cancelled")
        return callback

    def body(me, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "wait":
                    yield sim.timeout(op[1], priority=op[2])
                    note(me, i, "woke")
                elif kind == "put":
                    yield stores[op[1]].put(op[2])
                    note(me, i, "put")
                elif kind == "get":
                    note(me, i, "got", (yield stores[op[1]].get()))
                elif kind == "fget":
                    got = yield stores[op[1]].get(filter=FILTERS[op[2]])
                    note(me, i, "fgot", got)
                elif kind == "post":
                    stores[op[1]].post(op[2])
                    note(me, i, "posted")
                elif kind in ("any", "all"):
                    events = [sim.timeout(d) for d in op[1]]
                    wait = sim.any_of if kind == "any" else sim.all_of
                    value = yield wait(events)
                    note(me, i, kind, [events.index(e) for e in value.events])
                elif kind == "interrupt":
                    other = op[1] % len(procs)
                    target = procs[other]
                    # Only a live process parked on an event, never itself.
                    if other != me and target.is_alive and target.target is not None:
                        target.interrupt((me, i))
                        note(me, i, "interrupted", other)
                elif kind == "submit":
                    job = shares[op[1]].submit(op[2], weight=op[3], cap=op[4])
                    jobs.append(job)
                    job.done.callbacks.append(on_done(len(jobs) - 1))
                    if op[5]:
                        note(me, i, "served", (yield job.done))
                elif kind == "cap":
                    if op[1] < len(jobs):
                        jobs[op[1]].set_cap(op[2])
                elif kind == "cancel":
                    if op[1] < len(jobs):
                        jobs[op[1]].cancel()
                elif kind == "signal":
                    if not signals[op[1]].triggered:
                        signals[op[1]].succeed((me, i))
                elif kind == "await":
                    note(me, i, "signalled", (yield signals[op[1]]))
                else:  # join
                    other = op[1] % len(procs)
                    if other != me:
                        note(me, i, "joined", other, (yield procs[other]))
            except api.Interrupt as interrupt:
                note(me, i, "interrupt", interrupt.cause)
            except api.SimulationError as error:
                note(me, i, "error", str(error))
        note(me, "exit")
        return me

    for me, ops in enumerate(program):
        procs.append(sim.process(body(me, ops)))
    try:
        sim.run()
    except Exception as crash:  # e.g. an interrupt that lands after exit
        note("raised", type(crash).__name__)
    return log


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
def test_production_kernel_matches_reference(program):
    assert run_program(PRODUCTION, program) == run_program(reference, program)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(FLUID_PROGRAMS)
def test_fluid_completions_match_reference(program):
    assert run_program(PRODUCTION, program) == run_program(reference, program)


def _find_divergence(defective):
    """Smallest program on which a planted reference defect shows."""
    return find(
        PROGRAMS,
        lambda program: (
            run_program(PRODUCTION, program) != run_program(defective, program)
        ),
        settings=settings(max_examples=2000, database=None, derandomize=True),
    )


def test_oracle_catches_lifo_ties():
    program = _find_divergence(planted(lifo=True))
    # The unplanted reference agrees: the tie order alone made the difference.
    assert run_program(PRODUCTION, program) == run_program(reference, program)


def test_oracle_catches_a_one_ulp_rate_change():
    program = _find_divergence(planted(rate_ulps=1))
    log = run_program(PRODUCTION, program)
    nudged = run_program(planted(rate_ulps=1), program)
    assert log == run_program(reference, program)
    # The first difference is a virtual time off by a hair, not an order.
    first = next(i for i, (a, b) in enumerate(zip(log, nudged)) if a != b)
    assert log[first][1:] == nudged[first][1:]
    assert 0.0 < abs(log[first][0] - nudged[first][0]) < 1e-9


def test_oracle_catches_a_filtered_get_taking_the_newest_match():
    program = _find_divergence(planted(last_match=True))
    assert run_program(PRODUCTION, program) == run_program(reference, program)
    assert any(op[0] == "fget" for ops in program for op in ops)


def test_oracle_catches_a_post_that_wakes_no_getter():
    program = _find_divergence(planted(lazy_post=True))
    assert run_program(PRODUCTION, program) == run_program(reference, program)
    assert any(op[0] == "post" for ops in program for op in ops)
