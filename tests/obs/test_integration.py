"""End-to-end observability: traced experiments stay byte-identical and
yield reconstructable causal adaptation chains."""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import build_chaos, run_chaos
from repro.experiments.fig5 import fig5_database
from repro.experiments.fig6 import fig6a_database, fig6b_database
from repro.obs import (
    TraceRecorder,
    UsageAccountant,
    adaptation_chains,
    from_jsonl,
    to_jsonl,
)

CHAOS_TRACE = Path(__file__).resolve().parents[2] / "benchmarks/out/chaos_trace.jsonl"


@pytest.fixture(scope="module")
def traced_chaos():
    """One traced chaos run, shared by the assertions below."""
    recorder = TraceRecorder()
    _fig, payload = run_chaos(seed=0, recorder=recorder)
    return recorder, payload


def test_traced_chaos_outcome_byte_identical(traced_chaos):
    _recorder, traced_payload = traced_chaos
    _fig, untraced_payload = run_chaos(seed=0)
    assert json.dumps(traced_payload, sort_keys=True) == json.dumps(
        untraced_payload, sort_keys=True
    )


def test_traced_run_installs_no_step_observer():
    """The recorder and accountant cost per record and per sample, not
    per kernel step: a traced run leaves the observer list empty."""
    recorder = TraceRecorder()
    usage = UsageAccountant(metrics=recorder.metrics)
    scene = build_chaos(seed=0, recorder=recorder, usage=usage)
    sim = scene.sim
    observers = []
    original_step = sim.step

    def step():
        observers.append(sim.observers)
        original_step()

    sim.step = step
    scene.run()
    assert observers and set(observers) == {()}
    assert usage.steps == recorder.steps == len(observers)
    assert any(r.cat == "sim" for r in recorder.records)  # process spans


def test_traced_chaos_runs_are_deterministic(traced_chaos):
    recorder, _payload = traced_chaos
    again = TraceRecorder()
    run_chaos(seed=0, recorder=again)
    assert to_jsonl(recorder.records) == to_jsonl(again.records)
    assert recorder.metrics.snapshot() == again.metrics.snapshot()
    assert recorder.steps == again.steps


def test_chaos_causal_chain_reconstruction(traced_chaos):
    """At least one complete violation -> decision -> steering -> switch
    chain, with timestamps in simulated order and matching the payload."""
    recorder, payload = traced_chaos
    chains = adaptation_chains(recorder.records)
    assert chains, "no config.switch recorded"
    complete = []
    for records in chains:
        names = [r.name for r in records]
        if (
            "monitor.violation" in names
            and "sched.decision" in names
            and "steer.request" in names
            and names[-1] == "config.switch"
        ):
            complete.append(records)
    assert complete, f"no complete causal chain in {[[r.name for r in c] for c in chains]}"
    for records in complete:
        times = [r.t0 for r in records]
        assert times == sorted(times)
    # Switch timestamps agree with the runtime's own history.
    switch_times = sorted(r[-1].t0 for r in chains)
    payload_times = sorted(s["t"] for s in payload["switches"])
    assert switch_times == pytest.approx(payload_times)


def test_chaos_trace_survives_jsonl_round_trip(traced_chaos):
    recorder, _payload = traced_chaos
    back = from_jsonl(to_jsonl(recorder.records))
    chains = adaptation_chains(back)
    assert len(chains) == len(adaptation_chains(recorder.records))


def test_chaos_metrics_agree_with_payload(traced_chaos):
    recorder, payload = traced_chaos
    snap = recorder.metrics.snapshot()
    assert snap["steer.acks"]["value"] == len(payload["switches"])
    assert (
        snap["fault.dropped"]["value"]
        == payload["exchange"]["injector_dropped"]
    )
    assert snap["fault.injections"]["value"] == len(payload["injections"])


@pytest.mark.parametrize(
    "database", [fig5_database, fig6a_database, fig6b_database],
    ids=lambda fn: fn.__name__,
)
def test_traced_database_byte_identical_and_spanned(database):
    # Traced runs measure inline; plain ones go through the sweep engine.
    recorder = TraceRecorder()
    db_traced, _dims, configs = database(seed=0, recorder=recorder)
    db_plain, _dims, _configs = database(seed=0)
    assert db_traced.to_dict() == db_plain.to_dict()
    measures = recorder.find("profile.measure")
    assert len(measures) == len(configs) * len(db_plain.points_for(configs[0]))
    assert all(r.t1 is not None for r in measures)
    assert recorder.metrics.counter("profile.runs").value == len(measures)
    # Every process span of a measurement run nests under its measure span.
    measure_sids = {r.sid for r in measures}
    proc_spans = [r for r in recorder.records if r.cat == "sim"]
    assert proc_spans
    roots = {r.parent for r in proc_spans if r.parent in measure_sids}
    assert roots  # ambient parenting grouped runs under measure spans


def _chaos_detector_last(recorder, usage):
    """Chaos seed 0 with the accountant and recorder attached before the
    race detector, which then watches what ``detect_races`` watches."""
    from repro.analysis.races import RaceDetector, watch

    scene = build_chaos(seed=0, recorder=recorder, usage=usage)
    detector = RaceDetector(scene.sim).attach()
    for host_name in sorted(scene.testbed.hosts):
        watch(detector, scene.testbed.hosts[host_name])
    for label in ("client", "server"):
        exchange = getattr(scene, f"{label}_exchange")
        detector.watch_mapping(
            exchange, "remote_estimates", f"{label}.remote_estimates"
        )
        detector.watch_mapping(
            exchange, "peer_last_seen", f"{label}.peer_last_seen"
        )
    _fig, payload = scene.run()
    payload["races"] = [r.to_dict() for r in detector.finish()]
    detector.detach()
    return payload


@pytest.mark.parametrize("detector_first", [True, False])
def test_observer_attach_order_leaves_chaos_unchanged(detector_first):
    """Detector, accountant and recorder observe the same steps in any
    order: the payload is the detector-only run's, the trace the
    committed one."""
    recorder = TraceRecorder()
    usage = UsageAccountant()
    if detector_first:
        _fig, payload = run_chaos(
            seed=0, detect_races=True, recorder=recorder, usage=usage
        )
    else:
        payload = _chaos_detector_last(recorder, usage)
    _fig, bare = run_chaos(seed=0, detect_races=True)
    assert json.dumps(payload, sort_keys=True) == json.dumps(bare, sort_keys=True)
    assert to_jsonl(recorder.records) == CHAOS_TRACE.read_text()
    assert usage.steps == recorder.steps > 0
