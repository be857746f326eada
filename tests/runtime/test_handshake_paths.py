"""Pins the controller's steering-handshake paths that no traced scene
reaches: guard rejection and negotiation, exhausted alternatives, the
negotiation depth bound, an abandoned (timed-out) handshake, a forced
switch superseding an in-flight decision, a superseded decision that is
still applied, an abandoned forced switch, and a brownout pin lifted by
``resume_normal``.

Each case pins the controller's event log as (time, kind, config label),
every trace record as (name, category, parent's name, attrs) and the
counters, so a refactor of the adaptation loop shows any change in
what it logs, traces, or links.
"""

from pathlib import Path

import pytest

from repro.obs import TraceRecorder
from repro.profiling import ResourcePoint
from repro.runtime import (
    AdaptationController,
    Objective,
    ResourceScheduler,
    UserPreference,
)
from repro.runtime.controller import EVENT_TRACE
from repro.sandbox import ResourceLimits, Testbed
from repro.tunable import Configuration

from .test_fault_tolerance import mode_db, one_host_app


def run_case(modes=("a", "b", "c"), forbidden=(), apply_changes=True,
             actions=(), until=30.0, **controller_kwargs):
    """One traced single-host run: the CPU drops to 10 % at t=5, and
    ``actions`` are (time, fn(controller)) interventions."""
    app = one_host_app(modes=modes, forbidden=forbidden,
                       apply_changes=apply_changes)
    controller = AdaptationController(
        ResourceScheduler(mode_db(modes), UserPreference.single(Objective("t"))),
        monitor_kwargs={"window": 0.5, "cooldown": 50.0},
        **controller_kwargs,
    )
    decision = controller.select_initial(ResourcePoint({"node.cpu": 1.0}))
    tb = Testbed(host_specs=app.env.host_specs())
    recorder = TraceRecorder().bind(tb.sim)
    rt = app.instantiate(tb, decision.config,
                         limits={"node": ResourceLimits(cpu_share=1.0)})
    controller.attach(rt)

    def vary():
        yield tb.sim.timeout(5.0)
        rt.sandboxes["node"].set_limits(ResourceLimits(cpu_share=0.1))

    def act(at, fn):
        yield tb.sim.timeout(at)
        fn(controller)

    tb.sim.process(vary())
    for at, fn in actions:
        tb.sim.process(act(at, fn))
    tb.run(until=until)
    return controller, recorder


def observe(**case):
    controller, recorder = run_case(**case)
    events = [
        (round(e.time, 6), e.kind,
         e.config.label() if e.config is not None else None)
        for e in controller.events
    ]
    names = {r.sid: r.name for r in recorder.records}
    records = [
        (r.name, r.cat, names.get(r.parent), dict(r.attrs))
        for r in recorder.records
    ]
    counters = {
        name: metric["value"]
        for name, metric in recorder.metrics.snapshot().items()
        if metric["kind"] == "counter"
    }
    return events, records, counters


def _force(config, reason="brownout-enter"):
    return lambda ctl: ctl.force_config(Configuration(config), reason=reason)


CASES = {
    "rejection-negotiates": dict(forbidden={"b"}),
    "all-alternatives-rejected": dict(forbidden={"b", "c"}),
    "negotiation-depth-bound": dict(
        modes=("a", "b", "c", "d", "e"), forbidden={"b", "c", "d", "e"},
        max_negotiation_depth=2,
    ),
    "stalled-handshake-times-out": dict(
        apply_changes=False,
        steering_kwargs={"ack_timeout": 1.0, "max_retries": 2, "backoff": 2.0},
    ),
    # The decision for 'b' is posted at t=5.961 and lands at the safe
    # point at t=6.0; the forced switch to 'c' replaces it in between.
    "force-supersedes-inflight": dict(actions=[(5.97, _force({"mode": "c"}))]),
    # With a 30 ms control latency the decision for 'b' reaches the agent
    # at t=5.99; the forced switch to 'c' replaces it in the controller at
    # t=5.995 but only reaches the agent at t=6.025, so the superseded
    # request is still applied at the safe point at t=6.0.
    "late-ack-after-force": dict(
        control_latency=0.03, actions=[(5.995, _force({"mode": "c"}))],
    ),
    # As above, but the forced configuration is then refused by its guard:
    # the controller keeps the late-acked 'b' as its decision.
    "late-ack-then-forced-rejection": dict(
        control_latency=0.03, forbidden={"c"},
        actions=[(5.995, _force({"mode": "c"}))],
    ),
    "forced-handshake-times-out": dict(
        apply_changes=False,
        steering_kwargs={"ack_timeout": 1.0, "max_retries": 1, "backoff": 2.0},
        actions=[(2.0, _force({"mode": "c"}))],
    ),
    "brownout-pin-then-resume": dict(
        actions=[(2.0, _force({"mode": "c"})),
                 (12.0, lambda ctl: ctl.resume_normal())],
    ),
}

#: case -> (events, trace records, counters), as observed.  A forced
#: switch follows the same chain as a scheduled one: its ``adapt.applied``
#: links to its ``steer.request``, and an abandoned forced handshake logs
#: ``steering-timeout``.
EXPECTED = {
    "rejection-negotiates": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (6.0, "rejected", "mode=b"),
         (6.0, "decision", "mode=c"),
         (6.05, "applied", "mode=c")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "rejected"}),
         ("adapt.rejected", "adapt", "steer.request", {"config": "mode=b"}),
         ("sched.select",
          "sched",
          "proc:main",
          {"config": "mode=c",
           "constraint": 0,
           "excluded": 1,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "adapt.rejected",
          {"config": "mode=c", "depth": 1, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=c", "outcome": "ack"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=c"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=c"})],
        {"adapt.applied": 1.0,
         "adapt.decisions": 2.0,
         "adapt.rejected": 1.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "sched.selects": 2.0,
         "steer.acks": 1.0,
         "steer.requests": 2.0},
    ),
    "all-alternatives-rejected": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (6.0, "rejected", "mode=b"),
         (6.0, "decision", "mode=c"),
         (6.05, "rejected", "mode=c"),
         (6.05, "decision", "mode=a")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "rejected"}),
         ("adapt.rejected", "adapt", "steer.request", {"config": "mode=b"}),
         ("sched.select",
          "sched",
          "proc:main",
          {"config": "mode=c",
           "constraint": 0,
           "excluded": 1,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "adapt.rejected",
          {"config": "mode=c", "depth": 1, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=c", "outcome": "rejected"}),
         ("adapt.rejected", "adapt", "steer.request", {"config": "mode=c"}),
         ("sched.select",
          "sched",
          "proc:main",
          {"config": "mode=a",
           "constraint": 0,
           "excluded": 2,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "adapt.rejected",
          {"config": "mode=a", "depth": 2, "point": "node.cpu=0.1"})],
        {"adapt.decisions": 3.0,
         "adapt.rejected": 2.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "sched.selects": 3.0,
         "steer.requests": 2.0},
    ),
    "negotiation-depth-bound": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (6.0, "rejected", "mode=b"),
         (6.0, "decision", "mode=c"),
         (6.05, "rejected", "mode=c"),
         (6.05, "no-candidate", None)],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "rejected"}),
         ("adapt.rejected", "adapt", "steer.request", {"config": "mode=b"}),
         ("sched.select",
          "sched",
          "proc:main",
          {"config": "mode=c",
           "constraint": 0,
           "excluded": 1,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "adapt.rejected",
          {"config": "mode=c", "depth": 1, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=c", "outcome": "rejected"}),
         ("adapt.rejected", "adapt", "steer.request", {"config": "mode=c"}),
         ("sched.no-candidate",
          "adapt",
          "adapt.rejected",
          {"depth": 2, "reason": "negotiation-exhausted"})],
        {"adapt.decisions": 2.0,
         "adapt.rejected": 2.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "sched.selects": 2.0,
         "steer.requests": 2.0},
    ),
    "stalled-handshake-times-out": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (12.961, "steering-timeout", "mode=b")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "timeout"}),
         ("steer.retry", "steer", "steer.request", {"attempt": 1}),
         ("steer.retry", "steer", "steer.request", {"attempt": 2}),
         ("steer.withdrawal", "steer", "steer.request", {"attempts": 2}),
         ("adapt.steering-timeout", "adapt", "steer.request", {"config": "mode=b"})],
        {"adapt.decisions": 1.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "sched.selects": 1.0,
         "steer.requests": 1.0,
         "steer.retries": 2.0,
         "steer.timeouts": 1.0},
    ),
    "force-supersedes-inflight": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (5.97, "brownout-enter", "mode=c"),
         (6.0, "applied", "mode=c")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "rejected"}),
         ("recovery.brownout-enter", "recovery", "proc:act", {"config": "mode=c"}),
         ("steer.request",
          "steer",
          "recovery.brownout-enter",
          {"config": "mode=c", "outcome": "ack"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=c"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=c"})],
        {"adapt.applied": 1.0,
         "adapt.decisions": 1.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "recovery.forced_switches": 1.0,
         "sched.selects": 1.0,
         "steer.acks": 1.0,
         "steer.requests": 2.0},
    ),
    "late-ack-after-force": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (5.995, "brownout-enter", "mode=c"),
         (6.0, "applied", "mode=b"),
         (6.05, "applied", "mode=c")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "ack"}),
         ("recovery.brownout-enter", "recovery", "proc:act", {"config": "mode=c"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=b"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=b"}),
         ("steer.request",
          "steer",
          "recovery.brownout-enter",
          {"config": "mode=c", "outcome": "ack"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=c"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=c"})],
        {"adapt.applied": 2.0,
         "adapt.decisions": 1.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "recovery.forced_switches": 1.0,
         "sched.selects": 1.0,
         "steer.acks": 2.0,
         "steer.requests": 2.0},
    ),
    "late-ack-then-forced-rejection": (
        [(0.0, "initial", "mode=a"),
         (5.46, "trigger", None),
         (5.96, "decision", "mode=b"),
         (5.995, "brownout-enter", "mode=c"),
         (6.0, "applied", "mode=b")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("monitor.violation",
          "adapt",
          "proc:monitoring-agent",
          {"estimates": {"node.cpu": 0.18823529411775722}}),
         ("adapt.settle", "adapt", "monitor.violation", {}),
         ("sched.select",
          "sched",
          None,
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "monitor.violation",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "ack"}),
         ("recovery.brownout-enter", "recovery", "proc:act", {"config": "mode=c"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=b"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=b"}),
         ("steer.request",
          "steer",
          "recovery.brownout-enter",
          {"config": "mode=c", "outcome": "rejected"})],
        {"adapt.applied": 1.0,
         "adapt.decisions": 1.0,
         "adapt.violations": 1.0,
         "monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "recovery.forced_switches": 1.0,
         "sched.selects": 1.0,
         "steer.acks": 1.0,
         "steer.requests": 2.0},
    ),
    "forced-handshake-times-out": (
        [(0.0, "initial", "mode=a"),
         (2.0, "brownout-enter", "mode=c"),
         (5.001, "steering-timeout", "mode=c")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("recovery.brownout-enter", "recovery", "proc:act", {"config": "mode=c"}),
         ("steer.request",
          "steer",
          "recovery.brownout-enter",
          {"config": "mode=c", "outcome": "timeout"}),
         ("steer.retry", "steer", "steer.request", {"attempt": 1}),
         ("steer.withdrawal", "steer", "steer.request", {"attempts": 1}),
         ("adapt.steering-timeout", "adapt", "steer.request", {"config": "mode=c"})],
        {"monitor.samples": 2999.0,
         "monitor.violations": 1.0,
         "recovery.forced_switches": 1.0,
         "steer.requests": 1.0,
         "steer.retries": 1.0,
         "steer.timeouts": 1.0},
    ),
    "brownout-pin-then-resume": (
        [(0.0, "initial", "mode=a"),
         (2.0, "brownout-enter", "mode=c"),
         (2.005, "applied", "mode=c"),
         (12.0, "brownout-exit", None),
         (12.0, "decision", "mode=b"),
         (12.05, "applied", "mode=b")],
        [("proc:main", "sim", None, {}),
         ("proc:monitoring-agent", "sim", None, {}),
         ("proc:vary", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("proc:act", "sim", None, {"ok": True}),
         ("recovery.brownout-enter", "recovery", "proc:act", {"config": "mode=c"}),
         ("steer.request",
          "steer",
          "recovery.brownout-enter",
          {"config": "mode=c", "outcome": "ack"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=c"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=c"}),
         ("recovery.brownout-exit", "recovery", "proc:act", {}),
         ("sched.select",
          "sched",
          "proc:act",
          {"config": "mode=b",
           "constraint": 0,
           "excluded": 0,
           "point": "node.cpu=0.1"}),
         ("sched.decision",
          "adapt",
          "recovery.brownout-exit",
          {"config": "mode=b", "depth": 0, "point": "node.cpu=0.1"}),
         ("steer.request",
          "steer",
          "sched.decision",
          {"config": "mode=b", "outcome": "ack"}),
         ("config.switch", "steer", "steer.request", {"config": "mode=b"}),
         ("adapt.applied", "adapt", "steer.request", {"config": "mode=b"})],
        {"adapt.applied": 2.0,
         "adapt.decisions": 1.0,
         "monitor.samples": 2999.0,
         "recovery.forced_switches": 1.0,
         "sched.selects": 1.0,
         "steer.acks": 2.0,
         "steer.requests": 2.0},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_handshake_path_is_pinned(case):
    assert observe(**CASES[case]) == EXPECTED[case]


@pytest.mark.parametrize(
    "case", ["late-ack-after-force", "late-ack-then-forced-rejection"]
)
def test_late_ack_of_superseded_request_is_adopted(case):
    # The controller's decision and the monitor's validity region follow
    # the configuration the application actually runs.
    controller, _ = run_case(**CASES[case])
    assert controller.current_decision.config == controller.rt.controls.current
    assert controller.monitor.conditions == controller.current_decision.conditions


def test_docs_event_table_matches_controller():
    # docs/observability.md lists, per adaptation event kind, the trace
    # instant, category and counter the controller records for it.
    docs = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    rows = {}
    for line in docs.read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if len(cells) == 4 and cells[0] in EVENT_TRACE:
            kind, name, cat, counter = cells
            rows[kind] = (name, cat, None if counter == "—" else counter)
    assert rows == {
        kind: (name, "adapt", counter)
        for kind, (name, counter) in EVENT_TRACE.items()
    }
