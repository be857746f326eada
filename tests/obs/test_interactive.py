"""Interactive context: inspection passivity, interventions, replay.

The load-bearing guarantee: a run driven through ``step()``/``run_until``
with every inspector read at every pause is byte-identical — traces,
metrics, usage account, and experiment payload — to the monolithic
``run_<name>()`` entry point.  And an intervened run is bit-reproducible
from its recorded intervention script alone.
"""

import itertools
import json

import pytest

from repro.obs import (
    InteractiveContext,
    SCENARIOS,
    TraceRecorder,
    UsageAccountant,
    register_scenario,
    replay,
    to_jsonl,
)


def _signature(recorder, usage, payload):
    return (
        to_jsonl(recorder.records),
        json.dumps(recorder.metrics.snapshot(), sort_keys=True),
        json.dumps(usage.summary(), sort_keys=True) if usage else None,
        json.dumps(payload, sort_keys=True, default=str),
    )


def _reference(runner, seed):
    recorder = TraceRecorder()
    usage = UsageAccountant(metrics=recorder.metrics)
    _fig, payload = runner(seed=seed, recorder=recorder, usage=usage)
    return _signature(recorder, usage, payload)


def _stepped_with_inspection(scenario, seed, pause_every=5.0):
    """Drive in fixed-size segments, reading EVERY inspector at each pause."""
    ctx = InteractiveContext(scenario, seed=seed)
    for i in itertools.count(1):
        ctx.run_until(i * pause_every)
        snap = ctx.inspect.snapshot()
        json.dumps(snap, sort_keys=True)  # every section must be JSON-able
        if ctx.done:
            break
    _fig, payload = ctx.finish()
    return ctx, _signature(ctx.recorder, ctx.usage, payload)


def test_fig5_stepped_inspection_byte_identical():
    from repro.experiments.fig5 import run_fig5_session

    ref = _reference(run_fig5_session, seed=0)
    ctx, got = _stepped_with_inspection("fig5", seed=0)
    assert got == ref
    assert ctx.steps > 0 and ctx.scene.finalized


def test_chaos_stepped_inspection_byte_identical():
    from repro.experiments.chaos import run_chaos

    ref = _reference(run_chaos, seed=3)
    _ctx, got = _stepped_with_inspection("chaos", seed=3)
    assert got == ref


def test_recovery_stepped_inspection_byte_identical():
    from repro.experiments.recovery import run_recovery

    ref = _reference(run_recovery, seed=2)
    ctx, got = _stepped_with_inspection("recovery", seed=2)
    assert got == ref
    # Recovery-only inspectors were live during the run.
    assert ctx.inspect.supervision() is not None
    assert ctx.inspect.faults() is not None


def test_interleaved_inspection_leaves_trace_unchanged():
    """Satellite regression: inspecting between steps must not perturb
    lazy-folded FluidShare state or the tracer (same stepping, with and
    without inspector reads, bit-for-bit).  Single steps after each pause
    also stop mid-instant, with a FluidShare change still awaiting its
    end-of-instant rescheduling pass."""
    pending_seen = []

    def state(ctx, share):
        return (
            share._last_update, share._timer_gen, share._dirty, share._slot,
            list(ctx.sim._eoi), len(ctx.sim._heap),
        )

    def inspect_all(ctx, share):
        before = state(ctx, share)
        ctx.inspect.shares()
        ctx.inspect.queues()
        ctx.inspect.usage()
        ctx.inspect.monitor()
        ctx.inspect.controller()
        peeked = share.peek()
        share.served_now()
        rates = [job.rate for job in share._jobs]
        # Passive reads advance neither the lazy fold point nor the
        # completion-timer generation, and neither run nor drop a pending
        # rescheduling pass.
        assert state(ctx, share) == before
        # ...yet mid-instant they already show the post-change rates.
        assert [j["rate"] for j in peeked["jobs"]] == rates
        if share._dirty:
            assert rates == [share._rates()[job] for job in share._jobs]
            stale = [job._rate for job in share._jobs]
            pending_seen.append(stale != rates)

    def run(inspect):
        ctx = InteractiveContext("fig5", seed=1)
        share = ctx.scene.testbed.hosts["client"].cpu.share
        for i in itertools.count(1):
            ctx.run_until(i * 2.5)
            for _ in range(4):
                if inspect:
                    inspect_all(ctx, share)
                ctx.step()
            if ctx.done:
                break
        _fig, payload = ctx.finish()
        return _signature(ctx.recorder, ctx.usage, payload)

    assert run(inspect=True) == run(inspect=False)
    # Mid-instant pending states occurred, and in some of them the stored
    # rates were stale, so the post-change check above was not vacuous.
    assert any(pending_seen)


def test_run_until_predicate_pauses_at_first_switch():
    ctx = InteractiveContext("fig5", seed=0)
    ctx.run_until(lambda c: len(c.switches()) >= 1)
    assert len(ctx.switches()) == 1
    assert not ctx.done
    # The controller saw the violation that motivated the switch.
    controller = ctx.inspect.controller()
    assert controller["phase"] in ("steady", "settling", "reconfiguring")
    assert controller["candidates"]
    assert ctx.inspect.monitor()["estimates"]


def test_interventions_recorded_and_replayed_byte_identically():
    ctx = InteractiveContext("fig5", seed=0)
    ctx.run_until(15.0)
    ctx.perturb("client", cpu_share=0.5, net_bw=10e6)
    ctx.run_until(40.0)
    ctx.inject(
        {"events": [{"kind": "crash", "host": "server", "at": 45.0,
                     "until": 48.0}]}
    )
    _fig, payload = ctx.finish()
    script = ctx.script()
    assert len(ctx.interventions) == 2
    assert all(
        set(entry) == {"t", "steps", "kind", "args"}
        for entry in json.loads(script)
    )
    # Interventions are spans in the trace (cat "interactive").
    names = [r.name for r in ctx.recorder.records if r.cat == "interactive"]
    assert names == ["interactive.perturb", "interactive.inject"]

    replayed = replay("fig5", 0, script)
    _fig2, payload2 = replayed.finish()
    assert _signature(replayed.recorder, replayed.usage, payload2) == \
        _signature(ctx.recorder, ctx.usage, payload)

    # And the intervened run genuinely differs from the clean one.
    clean = InteractiveContext("fig5", seed=0)
    _fig3, payload3 = clean.finish()
    assert json.dumps(payload3, sort_keys=True) != json.dumps(
        payload, sort_keys=True
    )


def test_force_config_and_resume_normal():
    ctx = InteractiveContext("fig5", seed=0)
    ctx.run_until(10.0)
    ctx.force_config({"dR": 160, "c": "lzw", "l": 4}, reason="operator-pin")
    assert ctx.inspect.controller()["pinned"]
    ctx.run_until(12.0)
    ctx.resume_normal(reason="operator-unpin")
    assert not ctx.inspect.controller()["pinned"]
    _fig, payload = ctx.finish()
    kinds = [e["kind"] for e in payload["events"]]
    assert "operator-pin" in kinds and "operator-unpin" in kinds


def test_fault_injection_into_faultfree_scenario_shows_in_inspector():
    ctx = InteractiveContext("fig5", seed=0)
    assert ctx.scene.injector is None and ctx.inspect.faults() is None
    ctx.run_until(10.0)
    ctx.inject(
        {"events": [{"kind": "link-down", "between": ["client", "server"],
                     "at": 12.0, "until": 13.0}]}
    )
    assert ctx.scene.injector is not None
    ctx.run_until(14.0)
    log = ctx.inspect.faults()["log"]
    assert any(entry.get("action") == "link-down" for entry in log)
    ctx.finish()


def test_snapshot_html_midflight_is_passive():
    def run(render):
        ctx = InteractiveContext("fig5", seed=0)
        ctx.run_until(30.0)
        html = ctx.snapshot_html() if render else None
        _fig, payload = ctx.finish()
        return html, _signature(ctx.recorder, ctx.usage, payload)

    html, sig_rendered = run(render=True)
    _none, sig_plain = run(render=False)
    assert sig_rendered == sig_plain
    assert html.startswith("<!DOCTYPE html>")
    assert "fig5" in html and "Live state" in html
    assert "<script" not in html  # no-JS contract


def test_finish_is_idempotent_and_guards_further_driving():
    ctx = InteractiveContext("fig5", seed=0)
    result = ctx.finish()
    assert ctx.finish() is result
    with pytest.raises(RuntimeError):
        ctx.step()
    with pytest.raises(RuntimeError):
        ctx.perturb("client", cpu_share=0.5, net_bw=10e6)


def test_crowd_scenario_exposes_crowd_and_overload_inspectors():
    # The flash-crowd variant wires an OverloadGuard + BrownoutController;
    # scenario kwargs flow through InteractiveContext to the builder.
    ctx = InteractiveContext("crowd", seed=1, scenario="flash")
    ctx.run_until(20.0)
    crowd = ctx.inspect.crowd()
    assert crowd is not None and crowd["classes"]
    assert ctx.inspect.overload() is not None
    snap = ctx.inspect.snapshot()
    assert snap["scenario"] == "crowd" and "crowd" in snap


def test_scenario_registry_and_errors():
    assert set(SCENARIOS) >= {"fig5", "chaos", "recovery", "crowd"}
    with pytest.raises(KeyError):
        InteractiveContext("no-such-scenario")
    with pytest.raises(ValueError):
        register_scenario("bad", "not-a-module-colon-callable")


def test_uninstrumented_context_still_steps_and_finishes():
    ctx = InteractiveContext("fig5", seed=0, instrument=False)
    assert ctx.recorder is None and ctx.usage is None
    ctx.run_until(lambda c: len(c.switches()) >= 1)
    assert ctx.inspect.usage() is None
    _fig, payload = ctx.finish()
    assert payload["switches"]
